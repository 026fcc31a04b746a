(** Periodic registry sampling into downsampling time series.

    Each call to {!sample} snapshots a {!Telemetry.Registry} and appends
    one sample per metric field to the matching {!Series}: counters and
    gauges contribute a ["value"] field, histograms a ["count"] field
    always plus ["mean"], ["p50"], ["p99"] and ["p999"] once they hold
    observations (so
    timelines never carry the NaN an empty histogram summarizes to).

    A sampler is single-domain: parallel tasks sample their own
    sub-sampler over their own sub-registry and the driver merges them
    back {e in submission order} with {!merge}, adding identifying
    labels — the same reduction discipline as [Telemetry.Registry.merge],
    so timelines are byte-identical at any job count. *)

module Key : sig
  type t = {
    name : string;  (** metric name *)
    labels : Telemetry.Registry.Labels.t;
    field : string;
        (** "value" | "count" | "mean" | "p50" | "p99" | "p999" *)
  }

  val compare : t -> t -> int
  (** Order by (name, labels, field) — the timeline order. *)

  val to_string : t -> string
  (** [name{labels}.field]; ".value" is omitted. *)
end

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds every per-key series (default 256 points). *)

val key : ?labels:(string * string) list -> string -> Key.t
(** Build the key of a metric's ["value"] field.
    @raise Invalid_argument on malformed labels. *)

val observe : t -> time:float -> Key.t -> float -> unit
(** Append one sample to the series for [key], creating it on first
    use. *)

val sample : t -> time:float -> Telemetry.Registry.t -> unit
(** Snapshot the registry and observe every metric field at [time]. *)

val series : t -> (Key.t * Series.t) list
(** All series sorted by {!Key.compare}. *)

val find : t -> Key.t -> Series.t option

val merge : into:t -> ?labels:(string * string) list -> t -> unit
(** Transplant every series of the source, with [labels] prepended to
    each key (how a fleet tags a device's series with [device=...]).
    Points land via {!Series.append_point}, preserving the source's
    aggregation; when a relabeled key already exists in [into], the
    source points are appended after the existing ones — callers merge
    in submission order to keep this deterministic.
    @raise Invalid_argument if [labels] collides with a source key's
    existing label keys. *)
