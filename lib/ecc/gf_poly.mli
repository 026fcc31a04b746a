(** Dense polynomials with coefficients in GF(2^m).

    A polynomial is an int array; index [i] holds the coefficient of x^i.
    All functions treat arrays as immutable values and normalize away
    leading zeros, so [degree] is always meaningful.  The zero polynomial is
    represented by [[|0|]] and has degree -1 by convention. *)

type t = int array

val one : t
val degree : t -> int
val coefficient : t -> int -> int
(** Coefficient of x^i (0 beyond the degree). *)

val add : Galois.t -> t -> t -> t
val mul : Galois.t -> t -> t -> t
val scale : Galois.t -> int -> t -> t
(** Multiply every coefficient by a field scalar. *)

val shift : t -> int -> t
(** [shift p k] is [p * x^k]. *)

val eval : Galois.t -> t -> int -> int
(** Evaluate at a field point (Horner). *)

val minimal_polynomial : Galois.t -> int -> t
(** [minimal_polynomial f e] is the minimal polynomial over GF(2) of the
    field element alpha^e: the product of (x - alpha^j) over the conjugacy
    class [{e, 2e, 4e, ...}].  All returned coefficients are 0 or 1. *)
