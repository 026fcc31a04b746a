(** The [salamander monitor] experiment: a wear-heavy fleet with the
    longitudinal health monitor attached.

    Runs a small {!Fleet} deployment hot enough (2 DWPD against a
    60-cycle calibration) that some devices visibly consume their
    margin — and some die — within the window, then summarizes what the
    monitor collected: sample count, series count and the alert log.
    Timeline/trace export and the health-report rendering live in the
    CLI layer, which owns the files; this module only drives the
    simulation and prints the run summary. *)

type result = {
  fleet : Fleet.result;
  samples : int;  (** {!Monitor.Engine.samples} after the run; 0 without a monitor *)
  series : int;  (** distinct time series collected *)
  transitions : int;  (** alert state changes recorded *)
}

val run :
  ?kind:Defaults.kind ->
  ?devices:int ->
  ?days:int ->
  ?dwpd:float ->
  ?afr_per_day:float ->
  ?seed:int ->
  ?ctx:Ctx.t ->
  Format.formatter ->
  result
(** Defaults: 6 [`Regens] devices, 25 days, 2.0 DWPD, AFR 0.0011/day,
    seed {!Defaults.fleet_seed}.  Deterministic for a fixed seed at any
    job count (the {!Fleet.run} guarantee). *)
