(** Request-latency histogram with root-cause attribution.

    Latencies record into {!Sim.Stats.Histogram}, the simulator's one
    log-linear histogram: 16 sub-buckets per octave at any magnitude, so
    p999 stays resolvable next to p50 however many decades the
    distribution spans, and two histograms always merge bucket for
    bucket.  On top of it this module keeps, per cause bit, a histogram
    of the tagged ops and the single worst tagged op — enough to say
    what a tail percentile's population was paying for.

    Count, sum, min and max are exact; percentiles are nearest-rank
    bucket approximations within \[min, max\].  All operations are
    single-domain; parallel cells keep their own histogram and the
    driver {!merge}s in submission order, so results are deterministic
    at any job count. *)

type t

val tags_width : int
(** Tag-bit positions accepted by {!observe_tagged} (bits
    [0 .. tags_width-1]; higher bits are masked off).  Wide enough for
    {!Obs.Cause.width}. *)

val create : unit -> t
val observe : t -> float -> unit

val observe_tagged : t -> float -> tags:int -> unit
(** {!observe} plus root-cause attribution: each set bit in [tags]
    records the value in that cause's histogram, and the observation
    competes (strict max, first wins) for the exemplar slot.
    [tags = 0] degrades to plain {!observe}; the per-cause histograms
    are only allocated once a tagged observation arrives. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t q] for [q] in \[0, 1\]; [nan] when empty. *)

val count_above : t -> float -> int
(** Observations in the percentile-[q] bucket and above — the tail
    population the attribution counters are reported against. *)

val tag_totals_above : t -> float -> int array
(** Per-tag-bit observation counts ([tags_width] entries) in the
    percentile-[q] bucket and above — "what the tail ops were
    paying for".  All zeros when no tagged observation landed there. *)

val exemplar_above : t -> float -> (float * int) option
(** Worst tagged exemplar at or above percentile [q]:
    [(latency_us, tags)] of the highest-latency tagged op, if it lies in
    the percentile-[q] bucket or above. *)

val merge : into:t -> t -> unit
(** Add the source's buckets and attribution into [into]; exact for
    count/min/max and every percentile (the sum up to float rounding). *)

val pp_row : Format.formatter -> t -> unit
(** Render [p50 p95 p99 p999 max] in microseconds, fixed width — one row
    of the latency tables (a count-0 histogram renders dashes). *)
