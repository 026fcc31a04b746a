(** TAB-RECOV — recovery traffic in the distributed file system (§4.3).

    A cluster of devices of each design hosts replicated chunks and is
    aged by chunk rewrites until most of its capacity is gone.  We meter
    how many oPages the diFS moved to re-replicate after failures.

    Expected shape from the paper's reasoning: ShrinkS recovery volume is
    comparable to the baseline (the same LBAs fail over time, just
    spread out); regeneration adds traffic because regenerated minidisks
    fail again and are shorter-lived. *)

type row = {
  kind : Defaults.kind;
  recovery_opages : int;
  recovery_events : int;
  host_writes : int;
  lost_chunks : int;
  recovery_per_host_write : float;
}

val measure : ?devices:int -> ?seed:int -> ?ctx:Ctx.t -> unit -> row list
(** With a pool in [ctx], the four clusters age in parallel; results are
    identical. *)

val measure_redundancy :
  ?devices:int ->
  ?seed:int ->
  ?ctx:Ctx.t ->
  unit ->
  (string * Difs.Cluster.t * int) list
(** Replication vs (4,2) erasure coding on identical RegenS fleets:
    (label, aged cluster, host writes).  Erasure halves storage overhead
    but pays k-fold read amplification on every minidisk recovery. *)

val run : ?ctx:Ctx.t -> Format.formatter -> unit
