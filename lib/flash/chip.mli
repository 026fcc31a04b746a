(** Simulated NAND flash chip: the raw medium beneath every FTL.

    The chip stores one opaque int payload per oPage slot (the FTL uses
    these as fingerprints of logical content; the byte-level data path is
    exercised by the ECC library directly), programmed from and read into
    plain ints: [min_int] marks an ECC-reserved slot.  Each fPage can be programmed
    once between erases, erases are whole-block and increment the block's
    P/E cycle count, and every page carries a wear-independent strength
    multiplier so pages within one block age at different rates — the
    variance that motivates Salamander's page-granularity retirement.

    The chip itself enforces only physics: program-once, erase-before-
    reuse, wear accounting, and the RBER of every page.  Policy (ECC
    sufficiency, retirement, mapping) belongs to the layers above.

    The store is packed for fleet scale: per-block PEC words and
    cached no-read wear terms, one state word per fPage (programmed
    bit, has-a-fault bit and read-disturb count), unboxed per-fPage
    strengths and a flat per-slot payload array — no per-page records
    or option boxes — with injected faults in a sparse side table (they
    touch a handful of pages while a chip holds thousands) that only a
    page whose fault bit is set looks up.
    A 32x16x4 device's media state is ~20 KB instead of ~200 KB, which
    is what lets one process age a 100k-device fleet. *)

type t

type payload = int
(** Opaque per-oPage content fingerprint chosen by the FTL.
    [min_int] is reserved (it encodes an ECC-reserved slot in the
    packed payload array); {!program_ints} rejects it. *)

val create :
  ?registry:Telemetry.Registry.t ->
  rng:Sim.Rng.t ->
  geometry:Geometry.t ->
  model:Rber_model.t ->
  unit ->
  t
(** Per-page strengths are drawn from [rng] at creation; telemetry
    handles bind against [registry] (default: {!Telemetry.Registry.null},
    i.e. inert).  Besides the op counters and modeled-latency
    histograms, a live registry carries the wear gauges the health
    monitor samples: [flash_pec_max] / [flash_pec_min] (highest and
    lowest per-block P/E count) and [flash_rber_worst] (running max of
    post-erase page RBER) — all refreshed on erase and monotone over
    the chip's life. *)

val geometry : t -> Geometry.t
val model : t -> Rber_model.t

val program_ints :
  t -> block:int -> page:int -> payloads:int array -> count:int -> unit
(** Program a free fPage from a flat scratch array: slots
    [0 .. count-1] take [payloads.(i)], the remaining slots are
    ECC-reserved.  Allocation-free — the FTL's one program path.
    @raise Invalid_argument if out of range, if [count] is negative or
    exceeds [opages_per_fpage] or [payloads]'s length, if a payload is
    [min_int], or if the page is already programmed (program-once). *)

val read_slot_int : t -> block:int -> page:int -> slot:int -> int
(** Read one oPage slot: the payload (XORed with any injected
    {!Silent_corruption} mask), or [min_int] for an ECC-reserved slot.
    Counts one read, adds one to the page's read-disturb count and
    observes the modeled oPage read latency.
    @raise Invalid_argument on an erased page or bad indices. *)

val erase : t -> block:int -> unit
(** Erase a block: all its pages become free; its PEC increments. *)

val pec : t -> block:int -> int

val pec_min : t -> int
(** Lowest per-block P/E count, maintained incrementally (erase pays
    amortized O(1) instead of scanning every block). *)

type wear = { wear_pec_max : int; wear_pec_min : int; wear_rber_worst : float }

val wear : t -> wear
(** Current wear summary by on-demand scan — O(blocks + fPages), so the
    erase hot path keeps no running summary when telemetry is off.
    [wear_rber_worst] is the worst {e pure-wear} page RBER at current
    P/E counts (no read disturb, no injected faults), the same quantity
    the [flash_rber_worst] gauge tracks as a running max. *)

val strength : t -> block:int -> page:int -> float

val rber : t -> block:int -> page:int -> float
(** Current raw bit error rate of the page: program/erase wear plus
    accumulated read disturb since the block's last erase, plus any
    injected transient/sticky excess (see {!inject}). *)

val erased_wear : t -> block:int -> float
(** The {!Rber_model.wear} term every page of [block] shares while the
    block is freshly erased (its current PEC, no reads).  The chip
    caches it per block when it erases, so this costs no [Float.pow].
    Pass it to {!erased_rber} for each page. *)

val erased_rber : t -> wear:float -> block:int -> page:int -> float
(** [erased_rber t ~wear:(erased_wear t ~block) ~block ~page] is bit for
    bit {!rber} of the page, provided nothing has programmed, read or
    injected a fault into the page since its block's last erase (the
    erase cleared its faults) — the state an erase hook sees.  It costs
    no [Float.pow]. *)

val rber_after_next_erase : t -> block:int -> page:int -> float
(** The RBER the page will have once its block is erased one more time
    (an erase also clears the read disturb — and any injected faults);
    the retirement policies look ahead with this. *)

val reads_since_erase : t -> block:int -> page:int -> int
(** Reads the page absorbed since its block's last erase: the read
    disturb exposure counter. *)

val is_free : t -> block:int -> page:int -> bool

(** Cumulative operation counters, for write-amplification and endurance
    accounting. *)

val programs : t -> int
val reads : t -> int
val erases : t -> int

(** {2 Fault injection}

    The hook surface the deterministic chaos layer ([lib/faults]) drives.
    Faults damage page *content* or charge retention, so all three
    classes are cleared when the block is erased (the cells are
    rewritten).  Injections count into the
    [flash_faults_injected_total{class=...}] telemetry counter. *)

type fault =
  | Transient_rber of float
      (** One-shot extra raw bit error rate (e.g. a read-disturb spike or
          a marginal sense).  Raises {!rber} until the next
          {!take_transient} consumes it — the FTL's read path takes it
          exactly once, so a re-read (retry ladder) sees the page clean
          again. *)
  | Sticky_rber of float
      (** Latent extra RBER that persists across reads (charge leak,
          weak cell cluster): every read of the page sees the elevated
          rate until the block is erased. *)
  | Silent_corruption of int
      (** XOR mask applied to every payload read from the page without
          raising RBER: corruption below the ECC's radar.  Only
          content-verifying layers (the diFS scrubber) can catch it.
          Injecting the same mask twice cancels out. *)

val inject : t -> block:int -> page:int -> fault -> unit
(** @raise Invalid_argument on bad indices, negative RBER deltas, or a
    zero corruption mask. *)

val take_transient : t -> block:int -> page:int -> float
(** Consume (return and clear) the page's pending transient RBER excess.
    The FTL read path calls this after its first read attempt; 0. when
    nothing is pending. *)

val sticky_rber : t -> block:int -> page:int -> float
(** The page's current injected sticky RBER excess (0. when none). *)

val faults_injected : t -> int
(** Cumulative count of {!inject} calls across all fault classes. *)
