(** Fleet aging simulation behind Figs. 3a and 3b: a batch of identical
    devices deployed together, each absorbing a daily write quota (DWPD),
    with wear-driven failures from the flash model and non-wear failures
    injected at a configurable rate (the field AFR the paper cites).

    Time is in scaled days: one day = one drive-write-per-day of the
    device's *current* capacity, so a device with target_pec 60 and write
    amplification ~1.3 lives ~45 scaled days.  Shrinking devices write
    less per day as they shrink, exactly like a real deployment whose
    data has been rebalanced away. *)

type kind = Defaults.kind

type snapshot = {
  day : int;
  alive : int;
  capacity_opages : int;  (** summed over live devices *)
}

type result = {
  kind : kind;
  devices : int;
  snapshots : snapshot list;
      (** one per epoch boundary (every day by default), day 0 first *)
  total_host_writes : int;
  wear_deaths : int;
  afr_deaths : int;
}

val run :
  ?devices:int ->
  ?days:int ->
  ?dwpd:float ->
  ?afr_per_day:float ->
  ?seed:int ->
  ?ctx:Ctx.t ->
  ?chunk_size:int ->
  ?aging:Workload.Aging.path ->
  ?epoch_days:int ->
  kind ->
  result
(** Defaults: {!Defaults.fleet_devices} devices, 150 days, 1 DWPD,
    AFR 0.0011/day (1%/year compressed by the same ~40x factor as the
    wear scale), seed {!Defaults.fleet_seed}.

    Each device runs as an independent simulation whose RNG streams are
    split off the root seed in submission order, so for a fixed [seed]
    the result — and any telemetry merged into [ctx]'s registry — is
    identical whether [ctx] carries a pool or not, at any domain count.
    With [ctx.pool] set, devices age in parallel, chunked: one pool task
    simulates a run of consecutive devices into a chunk-local scratch
    registry/monitor ({!Parallel.Pool.map_chunked}) that is merged once
    at the barrier.  [chunk_size] overrides the sizing policy (one
    device per chunk when a monitor is attached — each device keeps its
    own label — otherwise up to 64 chunks across the fleet); the
    aggregate [result] is the same at any chunk size, and chunk sizing
    never depends on the job count.

    [aging] picks the epoch driver ({!Workload.Aging.path}; default
    [Auto], which takes the devices' bulk-aging fast path — bit-exact
    with [Per_op], which remains available as the differential oracle).
    [epoch_days] (default 1) coalesces that many simulated days into one
    aging epoch: one quota of [epoch_days] days' writes, one AFR draw at
    the compounded hazard, and recording/sampling/snapshots only at
    epoch boundaries — the multi-year fleet-scale configuration.  With
    [epoch_days = 1] every step reduces exactly to the per-day loop.
    @raise Invalid_argument if [epoch_days < 1].

    When [ctx] carries a monitor, each device samples its scratch
    registry into its {!Ctx.sub} context's monitor at the monitor's epoch
    interval (plus day 0 and the final day) with time = the simulated
    day, wraps its life in a [fleet:device] span with per-day [fleet:day]
    child spans, and is merged back under a [device=<kind>-<i>] label —
    still byte-identical at any job count. *)
