(** Finite-field arithmetic in GF(2^m), 3 <= m <= 15.

    Elements are ints in \[0, 2^m).  Addition is xor.  Multiplication and
    inversion go through precomputed log/antilog tables over a standard
    primitive polynomial for each m, so a field is a value you construct
    once and thread through the codec. *)

type t

val create : int -> t
(** [create m] builds GF(2^m).  Fields are immutable once built, so one
    value is safe to share across domains.  @raise Invalid_argument unless
    [3 <= m <= 15]. *)

val order : t -> int
(** Number of nonzero elements, [2^m - 1] (the multiplicative order). *)

val add : t -> int -> int -> int
val mul : t -> int -> int -> int
val inv : t -> int -> int
(** @raise Division_by_zero on 0. *)

val div : t -> int -> int -> int

val alpha_pow : t -> int -> int
(** [alpha_pow f i] is the primitive element to the power [i] ([i] may be any
    int; reduced mod order). *)
