(** Wear a device out under a workload.

    It runs against any {!Ftl.Device_intf.packed} device (Salamander
    devices through their flat adapter), confining the pattern window to
    a fixed utilization of whatever capacity the device currently exports
    — the distributed-system assumption that freed space is rebalanced
    away rather than left stranded. *)

type outcome = {
  host_writes : int;  (** oPages accepted before stopping *)
  reads : int;
  unmapped_reads : int;  (** reads of never-written LBAs (workload artifact) *)
  uncorrectable_reads : int;  (** media-level errors ECC could not fix *)
  died : bool;  (** stopped because the device failed, not the cap *)
}

(** How {!run_epoch} advances the device. *)
type path =
  | Auto
      (** take the device's bulk-aging stream when the pattern allows it
          (write-only uniform) and the device supports it; identical
          results either way *)
  | Per_op  (** force the one-call-per-write loop (the oracle path) *)

val run_epoch :
  ?path:path ->
  ?utilization:float ->
  rng:Sim.Rng.t ->
  pattern:Pattern.t ->
  device:Ftl.Device_intf.packed ->
  quota:int ->
  unit ->
  outcome
(** Drive accesses until [quota] writes have been accepted (an aging
    epoch: one fleet day, a coalesced run of days, or a whole lifetime
    under a large quota) or the device dies.  The pattern window tracks
    [utilization * logical_capacity] (default 0.85) as the device
    shrinks, resynced every 256 accepted writes.  [Auto] advances the
    stretches between resyncs through {!Ftl.Device_intf.S.write_stream}
    instead of one call per write; the result is bit-exact with
    [Per_op] — same RNG draws, same device state, same outcome. *)
