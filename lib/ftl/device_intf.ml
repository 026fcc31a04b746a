(** Common face of every simulated SSD, for workloads and fleet experiments
    that age heterogeneous devices side by side.

    The LBA space is flat and in oPage units; Salamander devices expose a
    richer per-mDisk API natively and satisfy this signature through an
    adapter that concatenates the LBA spaces of their live minidisks. *)

type write_error = [ `Dead | `No_space | `Out_of_range ]
type read_error = [ `Dead | `Unmapped | `Uncorrectable | `Out_of_range ]

(** Cumulative background-activity counters, so a latency model can diff
    them around a foreground op and charge the queueing delay the
    intervening GC / scrub / retry work caused. *)
type bg_stats = {
  gc_runs : int;
  relocated_opages : int;  (** GC + scrub/decommission relocations *)
  read_retries : int;  (** retry-ladder rungs walked *)
  read_reclaims : int;  (** pages scrubbed by read-reclaim *)
  live_repair_attempts : int;
      (** exhausted reads escalated to the recovery hook *)
  live_repairs : int;  (** escalated reads the hook rescued *)
}

(** Point-in-time media wear summary for fleet observability: worst and
    best per-block P/E counts, the worst pure-wear page RBER across the
    media, and the strongest available code's tolerance for context. *)
type wear_stats = {
  pec_max : int;
  pec_min : int;
  rber_worst : float;
  tolerable_rber : float;
}

(** Outcome of a bulk-aging write segment (see {!S.write_stream}). *)
type stream_status =
  | Stream_filled  (** the whole budget was accepted *)
  | Stream_resync
      (** a draw fell outside the device's current capacity (consumed,
          not written) — the per-op [`Out_of_range]; the caller should
          resize its window and continue *)
  | Stream_dead  (** the device died; no further writes *)
  | Stream_unsupported
      (** no fast path right now (e.g. a crash hook is armed); nothing
          was consumed — run the per-op loop instead *)

type stream_result = { accepted : int; status : stream_status }

module type S = sig
  type t

  val label : t -> string
  (** Human-readable device kind for reports. *)

  val write : t -> lba:int -> payload:int -> (unit, write_error) result

  val write_stream :
    t -> rng:Sim.Rng.t -> window:int -> payload_base:int -> budget:int ->
    stream_result
  (** Bulk-aging fast path: accept up to [budget] uniform random
      writes, each drawing its LBA with [Sim.Rng.int rng window] and
      carrying payload [payload_base + i] for the [i]th accepted write.
      Must be bit-exact with the per-op loop (one {!write} per draw,
      plus the device's usual post-write maintenance): same RNG draws
      consumed, same counters, same flash state.  [Stream_unsupported]
      promises nothing was consumed. *)

  val read : t -> lba:int -> (int, read_error) result

  val trim : t -> lba:int -> unit
  (** Discard an oPage (no-op on dead devices). *)

  val alive : t -> bool
  (** False once the device no longer accepts writes. *)

  val logical_capacity : t -> int
  (** Currently writable LBAs; shrinking devices reduce this over time. *)

  val initial_capacity : t -> int
  val host_writes : t -> int
  val write_amplification : t -> float

  val bg_stats : t -> bg_stats
  (** Snapshot of the device's cumulative background activity. *)

  val wear_stats : t -> wear_stats
  (** Wear summary by on-demand media scan (O(blocks + pages)); meant
      for end-of-run fleet reporting, not per-op hot paths. *)

  val set_recovery_hook :
    t -> ?config:Engine.recovery_config -> (lba:int -> int option) option -> unit
  (** Install (or clear) a read-recovery escalation hook, keyed by the
      device's flat LBA space (see {!Engine.set_recovery_hook} for the
      attempt/backoff semantics).  diFS live repair uses this to rescue
      reads whose retry ladder exhausted from replica redundancy. *)
end

(* The halves of [bg_stats] and [wear_stats] every device kind derives
   from its FTL engine the same way. *)
let engine_bg_stats engine =
  {
    gc_runs = Engine.gc_runs engine;
    relocated_opages = Engine.relocated_opages engine;
    read_retries = Engine.read_retries engine;
    read_reclaims = Engine.read_reclaims engine;
    live_repair_attempts = Engine.read_escalations engine;
    live_repairs = Engine.escalation_successes engine;
  }

let engine_wear_stats ~tolerable_rber engine =
  let w = Flash.Chip.wear (Engine.chip engine) in
  {
    pec_max = w.Flash.Chip.wear_pec_max;
    pec_min = w.Flash.Chip.wear_pec_min;
    rber_worst = w.Flash.Chip.wear_rber_worst;
    tolerable_rber;
  }

(* Health-monitor input: the highest RBER the device's strongest code
   corrects. *)
let set_tolerable_rber registry rber =
  Telemetry.Registry.Gauge.set
    (Telemetry.Registry.gauge registry
       ~help:"Highest RBER the device's strongest code corrects"
       "device_tolerable_rber")
    rber

type packed = Packed : (module S with type t = 'a) * 'a -> packed
(** Existential wrapper so fleets can mix device designs. *)

let label (Packed ((module D), d)) = D.label d
let write (Packed ((module D), d)) ~lba ~payload = D.write d ~lba ~payload

let write_stream (Packed ((module D), d)) ~rng ~window ~payload_base ~budget =
  D.write_stream d ~rng ~window ~payload_base ~budget
let read (Packed ((module D), d)) ~lba = D.read d ~lba
let trim (Packed ((module D), d)) ~lba = D.trim d ~lba
let alive (Packed ((module D), d)) = D.alive d
let logical_capacity (Packed ((module D), d)) = D.logical_capacity d
let initial_capacity (Packed ((module D), d)) = D.initial_capacity d
let host_writes (Packed ((module D), d)) = D.host_writes d
let write_amplification (Packed ((module D), d)) = D.write_amplification d
let bg_stats (Packed ((module D), d)) = D.bg_stats d
let wear_stats (Packed ((module D), d)) = D.wear_stats d

let set_recovery_hook (Packed ((module D), d)) ?config hook =
  D.set_recovery_hook d ?config hook

(* Write a run of entries through the flat interface, one [write] per
   entry, stopping at the first error and reporting how far it got.  It
   is a convenience loop for prefill, not a batched submission path:
   nothing is amortized per batch.  The traffic replayer writes per op
   and models batching only as a [submit_us] charge per batch. *)
let write_many p entries =
  let n = Array.length entries in
  let rec go i =
    if i >= n then (i, None)
    else
      let lba, payload = entries.(i) in
      match write p ~lba ~payload with
      | Ok () -> go (i + 1)
      | Error e -> (i, Some e)
  in
  go 0
