(** Deterministic, splittable pseudo-random number generator.

    The simulator must be reproducible: every experiment takes an explicit
    seed, and concurrent subsystems (devices, workload generators, failure
    injectors) each receive an independent stream obtained with {!split} so
    that adding a subsystem never perturbs the random sequence seen by the
    others.  The generator is xoshiro256** (Blackman & Vigna), seeded through
    splitmix64. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] returns a new generator whose future output is independent of
    [t]'s.  [t] itself advances, so successive splits differ. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the same
    sequence. *)

val equal : t -> t -> bool
(** State equality: two equal generators produce identical futures.  The
    differential tests use this to prove two code paths consumed exactly
    the same number of draws. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

type bounded
(** A bound with {!int}'s per-call division work done once. *)

val bounded : int -> bounded
(** [bounded bound] precomputes [bound]'s rejection limit.
    @raise Invalid_argument if [bound <= 0]. *)

val draw : t -> bounded -> int
(** [draw t (bounded bound)] is [int t bound]: the same value, and [t]
    advances by the same number of steps.  Hot loops that draw under one
    bound build it once and skip {!int}'s four constant divisions per
    call. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val unit_float : t -> float
(** Uniform in \[0, 1), with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to \[0,1\]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
