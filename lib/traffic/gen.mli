(** Seeded multi-tenant trace generator.

    Composes three layers per drawn op: {e who} (a zipfian popularity
    distribution over tenant ranks, gated by a per-tenant on/off burst
    envelope), {e what} (the tenant's profile pattern over its footprint,
    via {!Tenant}), and {e when} (a diurnal intensity envelope over the
    op index — the trace format carries no timestamps, so the replayer
    re-derives arrival pacing from {!intensity} at the same op index,
    keeping the trace file portable across pacing models). *)

type spec = {
  tenants : int;
  ops : int;
  window : int;  (** LBA span the tenant footprints scatter over *)
  profiles : Tenant.profile list;
  popularity_theta : float;
      (** skew of the per-op tenant draw (0 = uniform popularity) *)
  burst_period : int;  (** ops per on/off cycle; 0 disables bursts *)
  burst_duty : float;  (** fraction of the cycle a tenant is on, (0, 1] *)
  diurnal_period : int;  (** ops per diurnal cycle; 0 disables *)
  diurnal_amplitude : float;  (** trough depth, in [0, 1) *)
}

val default_spec : spec
(** 200 tenants, 20k ops, 16Ki-LBA window, {!Tenant.default_profiles},
    popularity theta 0.9, bursts of period 2000 at 40% duty, one diurnal
    cycle per 10k ops at 0.6 amplitude. *)

val intensity : spec -> op:int -> float
(** Diurnal arrival-intensity multiplier at op index [op], in
    [1 - diurnal_amplitude, 1]; constantly 1 when disabled. *)

val generate : spec -> seed:int -> Workload.Trace.t
(** Produce exactly [spec.ops] events, deterministically from [seed].
    @raise Invalid_argument on a malformed spec (non-positive
    tenants/ops/window, duty or amplitude out of range). *)
