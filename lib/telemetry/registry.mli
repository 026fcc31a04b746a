(** Labeled metric registry: the measurement substrate of the stack.

    Every layer (flash chip, ECC, FTL, Salamander core, diFS) registers
    counters, gauges and histograms against a registry at component
    creation time — the registry is threaded explicitly through every
    component constructor's [?registry] argument — and updates them on
    its hot paths.  Two registries exist: live ones created with
    {!create}, whose metrics record, and the shared {!null} registry
    whose metrics are inert dummies — an update to a null metric is a
    single predictable branch, so fully instrumented code paths cost
    nothing measurable when telemetry is off (see the [overhead]
    benchmark in [bench/main.ml]).

    Live registries come in two flavours.  Shared registries (the
    {!create} default) are domain-safe: counters and gauges are atomics,
    histograms take a per-metric mutex, and registration itself is
    serialized, so components built and driven on [Parallel.Pool]
    workers may share one registry.  Unshared registries
    ([create ~shared:false ()]) back every metric with a plain
    unsynchronized ref — the fast path for chunk-local accumulators
    that one domain owns at a time and the barrier reduces with
    {!merge}; updating an unshared metric from two domains at once is a
    data race and on the caller.

    Metrics are identified by a [(name, labels)] pair.  Registering the
    same pair twice returns the same handle (so independent components
    may share an aggregate counter); registering the same name with a
    different metric kind raises. *)

(** Canonicalized label sets: key/value pairs, sorted by key. *)
module Labels : sig
  type t = (string * string) list

  val v : (string * string) list -> t
  (** Sort by key.  Values may contain any bytes (exporters escape per
      format).  @raise Invalid_argument on duplicate keys or on keys
      containing ['"'], ['\n'] or ['=']. *)

  val to_string : t -> string
  (** [k1=v1,k2=v2] — the canonical identity used for uniqueness.
      Injective: ['\\'], [','], ['='] and newlines in keys or values
      are rendered as ["\\\\"], ["\\,"], ["\\="] and ["\\n"], so
      distinct label sets never collide. *)
end

(** Monotonic integer counter. *)
module Counter : sig
  type t

  val incr : ?by:int -> t -> unit
  (** No-op on an inactive (null-registry) counter.
      @raise Invalid_argument if [by] is negative. *)

  val value : t -> int

  val is_active : t -> bool
  (** [false] for null-registry metrics: call sites guarding expensive
      instrumentation (e.g. sampling a binomial error count) should skip
      it when inactive. *)
end

(** Instantaneous float value. *)
module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
  val is_active : t -> bool
end

(** Distribution with percentile queries, backed by the log-linear
    {!Sim.Stats.Histogram}: exact count/mean/min/max, percentiles within
    2{^-5} relative error at any magnitude and never outside
    \[min, max\]. *)
module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** [nan] when empty. *)

  val percentile : t -> float -> float
  (** Nearest-rank bucket approximation (see
      {!Sim.Stats.Histogram.percentile}); [nan] when empty. *)

  val min : t -> float
  val max : t -> float
  val is_active : t -> bool
end

type t
(** A metric registry. *)

val create : ?shared:bool -> unit -> t
(** [create ()] builds a shared (domain-safe) registry;
    [create ~shared:false ()] builds an unshared one whose metrics are
    plain refs — single-domain-owned accumulators only. *)

val is_shared : t -> bool
(** [true] for {!null} and for registries created without
    [~shared:false]. *)

val null : t
(** The inert registry: all metrics obtained from it are inactive and
    shared; [snapshot null] is always empty. *)

val is_null : t -> bool

(** {2 Registration} *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t

type count = { mutable n : int; counter : Counter.t }
(** One component's event tally: [n] is this component's own count (its
    accessors read it) and [counter] the registry counter every
    component sharing the registry aggregates on.  Bump it only through
    {!bump}, so the two never drift; a hot loop may raise [n] alone and
    settle [counter] later with [Counter.incr ~by]. *)

val count : t -> ?help:string -> ?labels:(string * string) list -> string -> count
(** Register [counter] as {!counter} does and start [n] at 0. *)

val bump : ?by:int -> count -> unit
(** Add [by] (default 1) to both [n] and [counter].
    @raise Invalid_argument if [by] is negative. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> string -> Histogram.t
(** Every histogram has the same parameter-free log-linear layout (see
    {!Sim.Stats.Histogram}), so any value is recorded without clamping.
    @raise Invalid_argument when a [nan] is observed. *)

(** {2 Snapshots} *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

type value = Counter of int | Gauge of float | Histogram of summary

type sample = {
  name : string;
  labels : Labels.t;
  help : string;
  value : value;
}

val snapshot : t -> sample list
(** Every registered metric, sorted by [(name, labels)] — deterministic
    for a given set of registrations regardless of registration order. *)

val merge : into:t -> t -> unit
(** [merge ~into src] reduces [src]'s metrics into [into]: counters add,
    histograms add bucket counts (exact for count/min/max and every
    percentile whatever the merge order; the mean up to float rounding),
    and gauges adopt the source value — callers merge per-domain
    registries in submission order, so the result is deterministic and
    equal to what a sequential run against a single registry would have
    produced.  Metrics missing from [into] are registered on the fly.  A
    no-op when either side is {!null}.
    @raise Invalid_argument on a metric-kind clash.

    {2 Removed: the process-default registry}

    The deprecated [default] / [set_default] / [with_default] shim —
    the old implicit process-global wiring — was deleted on the
    timeline its deprecation notice announced (last in-tree readers
    removed in v0.3, shim deleted in v0.4).  Out-of-tree callers must
    pass registries explicitly through each component constructor's
    [?registry] argument; constructors fall back to {!null} when none
    is given. *)
