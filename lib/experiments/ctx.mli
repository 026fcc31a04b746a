(** Execution context threaded through experiment runners.

    A runner receives the registry its components should bind metrics
    against, optionally a domain pool to fan independent simulations
    across, and the optional monitor and fleet-report sinks.  The default
    context is fully inert — a null registry, no pool, no sinks — so
    callers that don't care pay nothing. *)

type t = {
  registry : Telemetry.Registry.t;
      (** Where components created by the runner bind their metrics.
          {!Telemetry.Registry.null} keeps telemetry off. *)
  pool : Parallel.Pool.t option;
      (** Run independent units of work (fleet devices, whole experiments)
          on this pool; [None] means run sequentially on the caller's
          domain.  Output is byte-identical either way. *)
  monitor : Monitor.Engine.t option;
      (** Longitudinal health monitor sampling the registry over simulated
          time; [None] (the default) keeps the whole sampling path off. *)
  obs : Obs.Fleet_report.Acc.t option;
      (** Fleet-report accumulator collecting one end-of-run wear
          observation per device; [None] (the default) keeps the
          observability plane off. *)
}

val default : t
(** Null registry, no pool, no monitor, no fleet-report accumulator. *)

val make :
  ?registry:Telemetry.Registry.t ->
  ?pool:Parallel.Pool.t ->
  ?monitor:Monitor.Engine.t ->
  ?obs:Obs.Fleet_report.Acc.t ->
  unit ->
  t

val sub : t -> t
(** A scratch context for one parallel task: no pool (a task running
    {e on} the pool must never submit into it), a fresh unshared registry
    — or {!Telemetry.Registry.null} when both the context's registry is
    null and no monitor is attached, so inactive telemetry stays free; a
    monitor needs live metrics to sample even when the caller never
    exports them — plus a scratch monitor ({!Monitor.Engine.sub}) and a
    scratch fleet-report accumulator ({!Obs.Fleet_report.Acc.sub}) when
    the context carries those.  The task writes into it privately; merge
    it back with {!absorb} {e in submission order} to keep every artifact
    independent of execution interleaving. *)

val absorb : t -> ?labels:(string * string) list -> t -> unit
(** [absorb ctx sub] merges a task's scratch context into [ctx]: the
    registry ({!Telemetry.Registry.merge}; no-op when either is null),
    the monitor ({!Monitor.Engine.absorb}, prefixing every series/alert
    key with [labels], e.g. [("device", "cvss-3")]) and the fleet-report
    accumulator ({!Obs.Fleet_report.Acc.merge}).  Each sink merges only
    when both sides carry it. *)

val map :
  t ->
  ?labels:('a -> (string * string) list) ->
  'a list ->
  (t -> 'a -> 'b) ->
  'b list
(** [map ctx items f] runs [f (sub ctx) item] for every item on the
    context's pool (sequentially when it has none), then {!absorb}s each
    scratch context in submission order, labelled by [labels item].
    Results come back in item order; output is byte-identical at any job
    count. *)
