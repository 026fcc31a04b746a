(** Random-variate sampling on top of {!Rng}.

    Every sampler takes the generator explicitly so callers control which
    stream each subsystem consumes. *)

val exponential : Rng.t -> rate:float -> float
(** Exponential with the given rate (mean 1/rate).  Used for Poisson-process
    inter-arrival times, e.g. non-wear device failures at a given AFR. *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian via the Box-Muller transform. *)

val lognormal : Rng.t -> mu:float -> sigma:float -> float
(** exp of a normal(mu, sigma); models per-page flash strength variance. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson counts; Knuth's method below mean 30, normal approximation
    (rounded, clamped at 0) above. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Number of successes in [n] Bernoulli(p) trials.  Exact inversion for
    small [n*p]; normal approximation for large [n] where exact sampling
    would be too slow for per-read bit-error counts. *)

(** Zipfian distribution over ranks 0..n-1, used for skewed workloads. *)
module Zipf : sig
  type t

  val create : n:int -> theta:float -> t
  (** [create ~n ~theta] prepares a sampler over [n] items with skew
      [theta] (0 = uniform; typical hot-cold workloads use 0.8-1.2).
      Preprocessing is O(n). *)

  val sample : t -> Rng.t -> int
  (** Draw a rank in \[0, n).  O(log n) by binary search on the CDF. *)

  val n : t -> int
end
