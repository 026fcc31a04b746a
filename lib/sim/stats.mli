(** Histograms for experiment measurement. *)

(** Log-linear (HDR-style) histogram: the one bucketed distribution of
    the simulator — telemetry metrics, request latencies and fleet wear
    all record into it.

    A positive value's bucket is the top 11 exponent bits plus the top 4
    mantissa bits of its IEEE-754 encoding: 16 linear sub-buckets per
    octave, so every positive normal float has a bucket at most 1/16 of
    its lower edge wide, at any magnitude.  Values [<= 0] share one
    bucket below all others and [infinity] has the top bucket.  Counts
    live in a dense array over the index span actually observed.

    There are no parameters: every histogram has the same layout, so
    {!merge} is integer bucket addition — associative and commutative,
    and the counts and percentiles do not depend on merge order.
    Count, sum, min and max are exact.  Single-domain; callers that
    share one across domains lock around it. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** @raise Invalid_argument on [nan]. *)

  val count : t -> int
  val sum : t -> float

  val mean : t -> float
  (** [sum / count]; [nan] when empty. *)

  val min : t -> float
  val max : t -> float
  (** Exact; [nan] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t q], [q] in \[0, 1\]: nearest rank
      ([max 1 (ceil (q * count))]), reported as the midpoint of the
      bucket holding that rank clamped to \[min, max\] — so it lies in
      the same bucket as the exact order statistic (relative error at
      most 2{^-5} for positive normal floats) and never outside the
      observed range.  [nan] when empty. *)

  val bucket_index : float -> int
  (** The bucket holding a value, as an index that grows with the
      value: two values share a bucket iff their indices are equal.
      [-1] for values [<= 0].  @raise Invalid_argument on [nan]. *)

  val count_from : t -> float -> int
  (** Observations in the bucket holding [x] and every bucket above it. *)

  val fold : t -> init:'a -> ('a -> float -> int -> 'a) -> 'a
  (** Fold over the non-empty buckets in ascending order, passing each
      bucket's representative value (as {!percentile} reports it) and
      its count. *)

  val merge : into:t -> t -> unit
  (** Add the source's buckets and exact fields into [into]. *)
end
