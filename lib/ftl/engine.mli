(** The page-mapped FTL engine shared by every simulated device.

    Responsibilities: a deduplicating write buffer flushed one fPage at a
    time, log-structured allocation into the least-worn free block, greedy
    garbage collection with a free-block reserve, periodic wear-leveling
    sweeps, and the bidirectional mapping.  Behaviour that distinguishes
    device designs is injected through {!Policy.t}.

    Logical space: the engine accepts any logical oPage index in
    [0, logical_capacity); layering (flat LBAs for a baseline disk,
    per-mDisk spaces for Salamander) is the device's business. *)

type t

type config = {
  gc_reserve_blocks : int;
      (** GC keeps at least this many erased blocks in reserve (>= 2 so
          relocation always has a destination). *)
  wear_level_period : int;
      (** Every Nth garbage collection is a wear-leveling sweep. *)
  wear_level_gap : int;
      (** A sweep targets the coldest block only when its PEC lags the
          hottest by more than this. *)
  read_retries : int;
      (** Maximum re-read attempts after a failed read before declaring
          [`Uncorrectable] (the retry ladder; 0 disables it). *)
  retry_rber_factor : float;
      (** Each retry rung senses at this fraction of the previous rung's
          effective RBER, modeling escalating read-threshold tuning and
          soft-decision decoding; in (0, 1]. *)
}

val default_config : config

val create :
  ?config:config ->
  ?registry:Telemetry.Registry.t ->
  chip:Flash.Chip.t ->
  rng:Sim.Rng.t ->
  policy:Policy.t ->
  logical_capacity:int ->
  unit ->
  t
(** Telemetry binds against [registry] (default:
    {!Telemetry.Registry.null}, i.e. inert). *)

val chip : t -> Flash.Chip.t
val policy : t -> Policy.t
val logical_capacity : t -> int

type write_error = [ `No_space ]
type read_error = [ `Unmapped | `Uncorrectable ]

val write : t -> logical:int -> payload:int -> (unit, write_error) result
(** Buffer a host write; flushes full fPages as the buffer fills.
    [`No_space] means garbage collection could not reclaim a destination:
    the device has run out of usable flash (the caller decides whether
    that means death or a capacity reduction). *)

val read : t -> logical:int -> (int, read_error) result
(** Read a logical oPage: the buffer first, then flash.  A failed read is
    retried up to [config.read_retries] times with the effective RBER
    attenuated by [config.retry_rber_factor] per rung (the retry ladder
    real controllers walk: threshold tuning, then soft-decision decode);
    [`Uncorrectable] is returned only once the ladder is exhausted.
    Failures are sampled from the policy's probability at each rung's
    effective RBER — rare below the retirement threshold, exactly the
    residual UBER a real drive exhibits. *)

(** {2 Bulk-aging write stream}

    The per-op path above costs a handful of calls, list cells and
    option boxes per write; multi-year fleet runs issue billions of
    writes whose individual outcomes are boring.  [write_stream] is the
    bit-exact fast path: one call accepts a whole run of uniform
    random writes, consuming exactly one [Sim.Rng.int rng window] draw
    per write — the same RNG stream, counters, mapping and physical
    layout the per-op loop would produce (pinned by the differential
    suite in [test/test_bulk_aging.ml]).  The segment ends early the
    moment anything interesting happens (an erase, a draw beyond the
    caller's live translation window, out of space) so the caller can
    re-derive state and continue. *)

type stream_stop =
  | Stream_budget  (** the requested number of writes was accepted *)
  | Stream_erased
      (** a block erase (GC / wear leveling / retirement) happened; the
          triggering write completed.  Device state may have shifted:
          re-derive the translation, run maintenance, call again. *)
  | Stream_out_of_window
      (** the draw (>= [limit]) was consumed but no write submitted:
          the per-op path's [`Out_of_range] — resize the window. *)
  | Stream_no_space of int
      (** the in-flight write (device LBA carried) failed with
          [`No_space]: it was counted as a host write and stays
          buffered, exactly as a failed {!write} would leave it. *)

val stream_capable : t -> bool
(** Whether the fast path may be used: false while a crash hook is
    armed (crash sites must fire per write, so fault-injection runs
    take the per-op path). *)

val write_stream :
  t ->
  rng:Sim.Rng.t ->
  window:int ->
  limit:int ->
  translate:(int -> int) ->
  payload_base:int ->
  budget:int ->
  int * stream_stop
(** [write_stream t ~rng ~window ~limit ~translate ~payload_base
    ~budget] accepts up to [budget] uniform writes: each draws a device
    LBA with [Sim.Rng.int rng window], rejects draws [>= limit]
    (ending the segment), maps the LBA through [translate] to an
    engine-logical index, and writes payload [payload_base + i] for the
    [i]th accepted write — matching a per-op loop that stamps each
    write with its running count.  [translate] must stay valid for the
    whole call; returns the number of writes accepted and why the
    segment ended.
    @raise Invalid_argument if a crash hook is armed. *)

val discard : t -> logical:int -> unit
(** Trim: drop any buffered copy and unmap the logical oPage. *)

val flush : t -> (unit, write_error) result
(** Force out all buffered writes, padding the final fPage if needed. *)

val relocate_page : t -> block:int -> page:int -> unit
(** Move every live oPage of one physical page into the write buffer (to
    be rewritten elsewhere) and unmap it from the page.  Used by
    Salamander's decommissioning to drain the most worn pages; the space
    itself is reclaimed when the block is later erased. *)

val gc_now : t -> bool
(** Run one garbage-collection pass; [false] if no victim was available. *)

(** {2 Introspection} *)

type block_class = Free | Open | Closed | Retired

val block_class : t -> int -> block_class
val free_blocks : t -> int
val retired_blocks : t -> int

val total_data_slots : t -> int
(** Device-wide data capacity in oPages under the current policy (free,
    open and closed blocks; retired blocks excluded).  This is the left
    side of the paper's Eq. 2. *)

val mapped_opages : t -> int

val mapped_in_range : t -> lo:int -> len:int -> int
(** Logical indices in [lo, lo+len) currently mapped to flash or pending
    in the buffer: the live data a minidisk decommissioning would lose. *)

val buffered_opages : t -> int

val host_writes : t -> int
(** oPages accepted from the host. *)

val relocated_opages : t -> int
(** oPages rewritten internally (GC + explicit relocation). *)

val gc_runs : t -> int
val padded_slots : t -> int
(** Data slots wasted by forced flushes of a partly-empty buffer. *)

val read_reclaims : t -> int
(** Pages whose live data was moved by read-reclaim (the scrub against
    read disturb and creeping wear). *)

val read_retries : t -> int
(** Re-read attempts made by the retry ladder (also exported as the
    [ftl_read_retries_total] counter). *)

val retry_successes : t -> int
(** Reads that failed at least one rung but succeeded before the ladder
    ran out. *)

val read_escalations : t -> int
(** Recovery-hook invocations (also [ftl_read_escalations_total]). *)

val escalation_successes : t -> int
(** Escalated reads the recovery hook rescued. *)

val escalations_suppressed : t -> int
(** Exhausted reads that skipped escalation because the backoff window
    was still open. *)

(** {2 Read-recovery escalation}

    When the retry ladder exhausts, the engine can hand the read to an
    external recovery path — diFS live repair reconstructs the oPage from
    replica or EC redundancy and rewrites it through the normal write
    path — instead of returning [`Uncorrectable] immediately.  The hook
    returns the reconstructed payload, or [None] when no healthy
    redundancy exists. *)

type recovery_config = {
  recovery_attempts : int;
      (** Hook invocations per exhausted read before giving up (>= 1). *)
  backoff_base : int;
      (** Host reads to wait after the first fully failed burst. *)
  backoff_cap : int;
      (** Ceiling of the exponential backoff window, in host reads. *)
}

val default_recovery : recovery_config

val set_recovery_hook :
  t -> ?config:recovery_config -> (logical:int -> int option) option -> unit
(** Install (or clear) the recovery hook.  On ladder exhaustion the hook
    is tried up to [recovery_attempts] times; a burst with no success
    opens an exponential backoff window ([backoff_base * 2^failures],
    capped at [backoff_cap]) counted on the engine's read clock — one
    tick per host read — during which exhausted reads degrade straight to
    [`Uncorrectable].  A later success closes the window.  Like the crash
    hook, the recovery hook survives {!crash_rebuild}. *)

(** {2 Crash injection}

    The fault-injection layer ([lib/faults]) arms a hook at the points
    where a power cut would interleave with the persistence protocol.
    Every site is placed so the non-volatile state (flash + OOB tags +
    trim journal + NV write buffer) still covers all acknowledged
    writes — so {!crash_rebuild} can always recover. *)

type crash_site =
  | Before_program  (** about to program an fPage (buffer not yet popped) *)
  | After_program  (** an fPage program just completed *)
  | Gc  (** a GC pass just picked its victim *)
  | Flush  (** an explicit flush is starting *)

exception Power_loss
(** Raised by crash hooks to simulate the power cut.  After it escapes,
    the engine value must be discarded and rebuilt with
    {!crash_rebuild}. *)

val set_crash_hook : t -> (crash_site -> unit) option -> unit
(** Install (or clear) the crash hook.  The hook is called synchronously
    at each {!crash_site}; raising {!Power_loss} from it simulates the
    cut.  The hook survives {!crash_rebuild}. *)

(** {2 Power-fail recovery}

    Real FTLs persist, alongside each physical page, a few bytes of
    out-of-band metadata — the logical address and a monotonically
    increasing sequence number — and journal trims; after a crash the
    mapping is rebuilt by scanning the flash and letting the highest
    sequence number win.  The engine models exactly that: OOB tags are
    recorded at program time (and vanish with the block's erase), trims
    go to a journal, and the write buffer is non-volatile (§3.2). *)

val crash_rebuild : t -> t
(** Simulate a power cycle: throw away every volatile structure and
    reconstruct the engine from the chip's contents, the OOB tags, the
    trim journal and the non-volatile write buffer.  The returned engine
    shares the chip (and its wear) with the old one, which must no longer
    be used.  Every acknowledged write is readable afterwards; every
    trimmed LBA stays trimmed. *)

val write_amplification : t -> float
(** Physical oPage programs divided by host oPage writes. *)

val live_entries : t -> (int * Location.t) list
(** All (logical, location) pairs currently mapped to flash (excludes
    buffered-only entries); for integrity checks in tests. *)

val locate : t -> logical:int -> Location.t option
(** Physical location of a logical oPage (ignoring the buffer); the
    performance experiments use this to count how many fPages an extent
    read touches. *)
