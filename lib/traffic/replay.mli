(** Trace replay under a simulated clock: turns a multi-tenant trace plus
    a device into request latencies.

    The model is a single submission queue of depth one over the device:
    op [k] arrives open-loop at a paced arrival time (base rate shaped
    by an optional intensity envelope, normally {!Gen.intensity}),
    waits for the device to go idle and for its tenant's QoS bucket to
    admit it, then occupies the device for a service time.  Service is
    the base read/write cost plus a per-batch submission overhead
    amortized over [batch] ops plus a {e contention charge}: the
    device's {!Ftl.Device_intf.bg_stats} are diffed around the op, and
    every GC pass, relocation, retry rung and read-reclaim that fired
    inside it stalls the queue by its cost — which is how GC, scrub and
    regeneration churn surface as tail latency.  One snapshot is taken
    per op and serves as the next op's baseline; it is re-taken after
    [on_batch], so background work a hook causes is billed to no op.

    The flash costs come from {!Flash.Latency.default}, the timing model
    Figs. 3c/3d use: a read and a read-reclaim cost one sense (60 us), a
    retry rung one more sense ([retry_us], 40 us), a GC pass one erase
    (5 ms), and a relocated oPage a read plus a program (760 us).  The
    costs that are not flash timings are fixed: 20 us per batch
    submission, 2 us per op, 180 us for a write acked from the
    controller's buffer (its program amortized), 5 us per trim, 2 ms per
    live-repair escalation (a replica read off another node plus the
    in-place rewrite, priced into the triggering op so recovery shows in
    the tail) and 10 ms of host-level recovery per uncorrectable read.

    Latency = completion - arrival, observed into {!Lathist}s (all /
    reads / writes) and checked against the tenant's SLO.  Each op also
    carries an {!Obs.Cause} bitset of the background activities that
    billed into it (plus QoS throttling), fed to
    {!Lathist.observe_tagged} for tail attribution and counted per set
    into an exact cause mix.  Everything is sequential and
    deterministic for a given trace, device and config.  The per-op
    loop allocates no closure, ref or record of its own: per op, a
    replay allocates what the device calls do, one snapshot, and the
    floats boxed across calls to [intensity], {!Qos.admit} and
    {!Lathist}. *)

type config = {
  arrival_rate_ops_per_s : float;  (** offered load before intensity shaping *)
  batch : int;  (** ops per submission batch (>= 1) *)
}

val default_config : config
(** 5k ops/s in batches of 16. *)

type outcome = {
  issued : int;
  completed : int;
  read_errors : int;  (** uncorrectable reads *)
  unmapped_reads : int;
  write_errors : int;
  throttled_ops : int;  (** ops a QoS bucket made wait *)
  throttle_us : float;  (** total time spent waiting on buckets *)
  slo_violations : int;
  died : bool;  (** replay stopped because the device failed *)
  end_us : float;  (** simulated completion time of the last op *)
  all : Lathist.t;
  reads : Lathist.t;
  writes : Lathist.t;
  accounts : Tenant.Accounts.t;
  cause_mix : int array;
      (** exact count of completed ops per cause {e set}, indexed by
          {!Obs.Cause.t} ([2^Obs.Cause.width] entries; entry
          {!Obs.Cause.none} counts the untagged ops), so the entries sum
          to [completed] *)
}

val run :
  ?config:config ->
  ?qos:Qos.config ->
  ?intensity:(op:int -> float) ->
  ?on_batch:(batch:int -> unit) ->
  population:Tenant.t ->
  trace:Workload.Trace.t ->
  device:Ftl.Device_intf.packed ->
  unit ->
  outcome
(** Replay the whole trace (stopping early only if the device dies).
    LBAs are folded into the device's current capacity ([lba mod
    capacity], re-read at every batch boundary so shrinking devices keep
    absorbing the full stream); tenant ids are folded into the
    population likewise.  [on_batch] runs before each batch — the chaos
    hook point.
    @raise Invalid_argument if [config.batch < 1] or the arrival rate is
    non-positive. *)
