(** Packed bit arrays (8 bits per byte) for codewords.

    Positions are 0-based; all operations bounds-check. *)

type t

val create : int -> t
(** [create len] is a zeroed array of [len] bits. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit
val copy : t -> t

val popcount : t -> int
(** Number of set bits. *)

val equal : t -> t -> bool

val of_string : string -> t
(** [of_string "10110"] builds a 5-bit array from ASCII ['0']/['1'].
    Convenient in tests.  @raise Invalid_argument on other characters. *)

val to_string : t -> string

val randomize : Sim.Rng.t -> t -> unit
(** Fill with uniformly random bits. *)

val iter_set : t -> (int -> unit) -> unit
(** Call the function on each set position, in increasing order. *)
