(** The distributed storage system Salamander plugs into.

    A cluster owns a set of devices spread over nodes, carves each device
    into {!Target} failure domains (whole drive, or one per minidisk),
    stores every chunk redundantly — n-way replication or (k, m)
    Reed-Solomon erasure coding — with each share on a distinct device,
    and — the property the whole paper leans on — recovers from any
    target failure by rebuilding the affected shares from survivors,
    while metering how much data the recovery read and wrote.

    Failures reach the cluster as device events, polled after every
    chunk write and around every {!repair} and {!scrub}: Salamander
    devices announce decommissioned and regenerated minidisks, monolithic
    devices brick (baseline) or shrink (CVSS).  Handling a failure can
    itself wear flash and trigger further failures; the processing loop
    runs to a fixed point. *)

type backend = Target.backend =
  | Monolithic of Ftl.Device_intf.packed
      (** baseline or CVSS drive: a single failure domain *)
  | Salamander of Salamander.Device.t
      (** one failure domain per live minidisk *)

type placement =
  | Spread_devices
      (** shares of a chunk must sit on distinct devices (default) *)
  | Spread_targets
      (** distinct targets suffice — minidisks of one drive may share a
          chunk, exposing the correlated-failure risk the paper flags as
          an open question *)

type redundancy =
  | Replication of int  (** n full copies *)
  | Erasure of { data_shares : int; parity_shares : int }
      (** k data + m parity Reed-Solomon shares; any k reconstruct *)

type config = {
  redundancy : redundancy;
  chunk_opages : int;  (** chunk data size; erasure shares are 1/k of it *)
  placement : placement;
}

val default_config : config
(** 3-way replication, 16-oPage (64 KiB) chunks, [Spread_devices]. *)

val default_ec_config : config
(** (4, 2) erasure coding over 16-oPage chunks: 1.5x storage overhead
    instead of replication's 3x. *)

type t

val create : ?config:config -> ?registry:Telemetry.Registry.t -> unit -> t
(** Telemetry binds against [registry] (default:
    {!Telemetry.Registry.null}, i.e. inert). *)

val config : t -> config

val total_shares : t -> int
(** Shares stored per chunk: n, or k + m. *)

val read_quorum : t -> int
(** Shares needed to read/rebuild: 1, or k. *)

val share_opages : t -> int
(** oPages per share: the chunk size, or 1/k of it. *)

val storage_overhead : t -> float
(** Physical oPages stored per logical chunk oPage. *)

val add_device : t -> node:int -> backend -> int
(** Register a device; returns its cluster-wide id.  Salamander targets
    are discovered from its live minidisks. *)

(** {2 Client operations} *)

type io_error =
  [ `No_capacity  (** not enough live targets to place the chunk *)
  | `Unknown_chunk
  | `Insufficient_shares  (** fewer than the read quorum survive *) ]

val write_chunk : t -> int -> (unit, io_error) result
(** Create (first write) or overwrite (version bump) chunk [id] across
    its shares.  Device events raised by the writes are processed before
    returning. *)

val read_chunk : t -> int -> (int, io_error) result
(** Read and verify the chunk's data: the number of data oPages whose
    content matched the recorded version.  Under erasure coding, data
    shares lost since the last repair are reconstructed on the fly
    through the Reed-Solomon decoder. *)

val delete_chunk : t -> int -> unit
(** Trim and free the chunk's shares and forget it, scrub backoff
    included: a chunk later written under the same id starts afresh. *)

val kill_device : t -> int -> unit
(** Failure injection: declare a device dead regardless of its media state
    (controller/DRAM/firmware failures — the ~1% AFR class the field
    studies report).  All its targets fail and recovery runs immediately.

    Edge semantics: a kill of an unknown id, a second kill of an
    already-killed device, or a kill arriving while a recovery span
    (failure handling, drain, truncation, {!repair}, {!scrub}) is
    mid-flight is a strict no-op — no target state changes — that bumps
    the [difs_kill_ignored_total] counter (also {!kill_ignored}) instead
    of silently diverging.  Callers injecting faults should re-issue the
    kill after the recovery span completes if they still want the device
    dead. *)

val kill_ignored : t -> int
(** kill_device calls ignored per the edge semantics above. *)

val is_device_killed : t -> int -> bool

val repair : t -> unit
(** Try to bring under-redundant chunks back to full share counts (e.g.
    after capacity freed up or new minidisks appeared). *)

(** {2 Foreground live repair}

    The read-path half of the corruption story (Tai et al.'s live
    recovery): instead of waiting for a background scrub to sweep across
    the damage, corruptions detected while serving a read are repaired
    in place from cluster redundancy, and reads whose device-level retry
    ladder exhausts escalate into the same path before the host ever
    sees [`Uncorrectable].

    Two invariants fall out, both checked by [Faults.Verdict]: no read
    returns corrupt data while a healthy replica exists
    ([difs_corrupt_reads_with_replica_total] stays 0), and when no
    healthy share answers the read degrades to today's unrecoverable
    outcome without wedging the pool. *)

val recover_opage : ?mdisk:int -> t -> device:int -> lba:int -> int option
(** Foreground-repair the oPage at (device, mdisk?, lba): locate the
    owning chunk, reconstruct the content from a healthy replica (or a
    verified EC quorum), rewrite the failing copy through the normal FTL
    write path — so wear accounting and GC see the traffic — and return
    the payload.  [None] when no chunk owns the address, no healthy
    source exists, or the call is a nested escalation from a repair
    already in flight.  Runs as a recovery span: {!kill_device} calls
    landing mid-repair are counted no-ops, like any other recovery. *)

val enable_live_repair : ?config:Ftl.Engine.recovery_config -> t -> unit
(** Arm every registered device's read-recovery hook to escalate into
    {!recover_opage}.  [config] sets the per-read attempt bound and the
    exponential backoff budget (default
    {!Ftl.Engine.default_recovery}).  Devices added after this call are
    not armed; call again to cover them. *)

val live_repair_attempts : t -> int
val live_repair_successes : t -> int

val live_repair_replica_reads : t -> int
(** Replica/share reads consumed hunting for a healthy source. *)

val live_repair_rewritten_opages : t -> int
(** Damaged copies rewritten in place through the normal write path. *)

val live_repair_failures : t -> int
(** Repairs that degraded to the unrecoverable outcome. *)

val corrupt_reads_served : t -> int
(** Corrupt oPages handed to a reader because no healthy replica
    existed (legal degraded service). *)

val corrupt_reads_with_replica : t -> int
(** Corrupt oPages handed to a reader while a healthy replica existed —
    the live-repair invariant; must stay 0. *)

(** {2 Background scrubbing}

    The tolerance half of the silent-corruption story: faults that raise
    no error at read time (a flipped payload below the ECC's radar) are
    only caught by re-verifying stored content against what the chunk
    should contain.  The scrubber sweeps chunks in id order, reads every
    share, repairs bad oPages in place on live targets, and treats shares
    that stop answering like failed shares — drop and rebuild from
    survivors.  Chunks whose repair keeps failing (no spare capacity, too
    few survivors) back off exponentially (up to 64 sweeps) so a stuck
    chunk cannot monopolize every sweep. *)

type scrub_report = {
  mutable chunks_scanned : int;
  mutable opages_verified : int;  (** oPages read and compared *)
  mutable mismatches : int;  (** content that failed verification *)
  mutable unreadable_shares : int;  (** shares dropped and rebuilt *)
  mutable repairs : int;  (** in-place rewrites + share rebuilds that landed *)
  mutable repair_failures : int;  (** rebuilds that found no destination *)
  mutable skipped_backoff : int;  (** chunks skipped while backing off *)
}
(** One sweep's tallies: a fresh record per {!scrub} call, filled as the
    sweep goes. *)

val scrub : ?limit:int -> t -> scrub_report
(** Run one scrub sweep.  [limit] caps the chunks scanned this sweep; a
    limited scrubber resumes after the last scanned chunk on the next
    sweep (deterministic round-robin), so every chunk is still covered.
    Pending device events are processed before and after the sweep.
    Progress is exported through [difs_scrub_sweeps_total],
    [difs_scrub_mismatches_total] and [difs_scrub_repairs_total]. *)

val scrub_sweeps : t -> int
val scrub_mismatches : t -> int
val scrub_repairs : t -> int

val audit : t -> string list
(** Structural placement invariants, for the chaos verdict: every share
    sits on a known active target, no two shares occupy the same
    (target, base) range, no chunk carries duplicate share indices, and
    each active target's allocated range count equals the shares placed
    on it.  Returns human-readable violations (empty = clean), sorted
    for deterministic output. *)

(** {2 Introspection} *)

type health = { intact : int; degraded : int; lost : int }

val health : t -> health
(** Chunks at full redundancy / below it but still readable / below the
    read quorum (unrecoverable). *)

val verify_chunk : t -> int -> bool
(** Strong check: every stored share matches the recorded version. *)

val chunks : t -> int list

val share_count : t -> int -> int option
(** Shares currently held by chunk [id] ([None] for unknown chunks); the
    chaos verdict compares this against the read quorum. *)

val live_targets : t -> int
val total_free_ranges : t -> int

val recovery_opages : t -> int
(** oPages *written* by failure recovery: the §4.3 re-replication
    volume. *)

val recovery_read_opages : t -> int
(** oPages *read* to feed recovery — under erasure coding each rebuilt
    share reads k surviving shares, the classic EC repair
    amplification. *)

val recovery_events : t -> int
(** Target failures handled. *)

val lost_chunks : t -> int

val unrecoverable_opages : t -> int
(** oPages recovery could not reconstruct (fewer than quorum survivors
    answered while rebuilding a share). *)

val rebuilt_shares : t -> int
(** Shares successfully re-materialized on a fresh target.  Recovery
    accounting balances as
    [recovery_opages + unrecoverable_opages >= rebuilt_shares *
    share_opages], with equality when no rebuild was aborted mid-copy
    (see {!rebuild_aborts}). *)

val rebuild_aborts : t -> int
(** Rebuild attempts abandoned because the destination target died
    mid-copy (their partial writes are still metered in
    {!recovery_opages}). *)

val devices_alive : t -> int
