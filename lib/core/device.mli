(** The Salamander SSD (§3): an FTL that exposes minidisks, shrinks by
    decommissioning them as flash wears (ShrinkS), and optionally
    regenerates capacity by repurposing data oPages of tired pages as
    extra ECC (RegenS).

    Life cycle of a page under RegenS: it starts at tiredness L0; each
    block erase re-evaluates its raw bit-error rate against the level
    table; when the L0 code can no longer protect it, the page transitions
    to L1 (three data oPages + one repurposed for ECC), and so on until the
    configured [max_level], beyond which it is dead.  Every transition
    shrinks the device's physical data capacity; when Eq. 2 detects that
    the capacity (with over-provisioning headroom) no longer covers the
    exported LBAs, the device picks the emptiest minidisk, relocates data
    off the most worn pages, drops the victim's LBAs and notifies the host
    (ShrinkS).  Conversely, when tired-but-alive pages accumulate enough
    slack, RegenS mints a brand-new minidisk and announces it. *)

type mode = Shrink_s | Regen_s

type config = {
  mode : mode;
  mdisk_opages : int;  (** mSize in oPages; 256 = 1 MiB with 4 KiB oPages *)
  max_level : int;  (** highest usable tiredness level in RegenS
                        (default 1, the paper's recommendation) *)
  scrub_on_decommission : bool;
      (** §3.3's proactive retirement: on each decommissioning, relocate
          data off the mSize-worth of most worn fPages and advance their
          tiredness level (default true; disabling it leaves pages to
          transition only when natural wear crosses their threshold) *)
  decommission_grace : bool;
      (** §4.3's grace period (the paper's future work, implemented here):
          instead of dropping a victim minidisk immediately, announce
          [Mdisk_retiring] and keep its data readable until the host calls
          {!acknowledge_decommission}; an out-of-space emergency overrides
          the grace and reclaims immediately (default false) *)
}

val default_config : config
(** RegenS, 1 MiB minidisks, the paper's parameters.  Every device
    leaves 7 % of its oPages unexported as over-provisioning, shrinks
    when its physical data slots fall below 1.05x the exported LBAs
    (Eq. 2) and regenerates a minidisk only when they exceed 1.06x the
    LBAs plus one mSize. *)

type t

val create :
  ?config:config ->
  ?registry:Telemetry.Registry.t ->
  geometry:Flash.Geometry.t ->
  model:Flash.Rber_model.t ->
  rng:Sim.Rng.t ->
  unit ->
  t
(** Telemetry (device, chip and engine metrics plus trace events) binds
    against [registry]; omitting it falls back to
    {!Telemetry.Registry.null}, i.e. inert.
    @raise Invalid_argument if a minidisk does not fit the geometry. *)

(** {2 I/O at minidisk granularity} *)

type write_error = [ `Dead | `Unknown_mdisk | `No_space ]
type read_error = [ `Dead | `Unknown_mdisk | `Unmapped | `Uncorrectable ]

val write :
  t -> mdisk:int -> lba:int -> payload:int -> (unit, write_error) result
(** Write one oPage to a minidisk-relative LBA.
    @raise Invalid_argument if [lba] is outside the minidisk. *)

val read : t -> mdisk:int -> lba:int -> (int, read_error) result
(** Reads are also served from minidisks in their decommissioning grace
    period (state [Draining]). *)

val trim : t -> mdisk:int -> lba:int -> unit

(** The same three calls on a minidisk record the caller holds (one of
    this device's, e.g. from {!active_mdisks} or
    {!Minidisk.Registry.find} on {!registry}), with no lookup per oPage.
    Each accepts and rejects exactly what its id-keyed twin above does
    for the record's id, with the same error: the id-keyed calls are
    lookups that delegate here. *)

val write_mdisk :
  t -> Minidisk.t -> lba:int -> payload:int -> (unit, write_error) result

val read_mdisk : t -> Minidisk.t -> lba:int -> (int, read_error) result
val trim_mdisk : t -> Minidisk.t -> lba:int -> unit

val set_recovery_hook :
  t ->
  ?config:Ftl.Engine.recovery_config ->
  (mdisk:int -> lba:int -> int option) option ->
  unit
(** Install (or clear) a read-recovery escalation hook keyed by
    (minidisk, minidisk-relative LBA); see {!Ftl.Engine.set_recovery_hook}
    for the attempt/backoff semantics.  Escalations on minidisks that no
    longer exist (decommissioned mid-flight) degrade to [`Uncorrectable]
    without invoking the hook. *)

val acknowledge_decommission : t -> mdisk:int -> unit
(** Host acknowledgement that a [Mdisk_retiring] minidisk's data has been
    re-replicated: its LBAs are dropped, the space reclaimed, and
    [Mdisk_decommissioned] is emitted.  No-op for unknown or non-draining
    minidisks. *)

val flush : t -> unit
(** Drain the write buffer (padding the last fPage). *)

val poll_events : t -> Events.t list
(** Notifications since the last poll, oldest first. *)

(** {2 State} *)

val alive : t -> bool
val mode : t -> mode
val config : t -> config
val profile : t -> Tiredness.t
val engine : t -> Ftl.Engine.t
val limbo : t -> Limbo.t
val registry : t -> Minidisk.Registry.t

val active_mdisks : t -> Minidisk.t list
val active_opages : t -> int
(** Exported LBAs across live minidisks: |LBAs| of Eq. 2. *)

val total_data_opages : t -> int
(** Physical data slots under current tiredness levels. *)

val level_of_page : t -> block:int -> page:int -> int
val level_census : t -> int array
(** Page counts per level, index = level (a copy). *)

val decommissions : t -> int
val regenerations : t -> int
val host_writes : t -> int
val write_amplification : t -> float

val force_page_level : t -> block:int -> page:int -> level:int -> unit
(** Push a page to a higher tiredness level immediately, relocating any
    live data off it first — the same motion §3.3's proactive retirement
    performs, exposed so experiments can prepare a device with a chosen
    L1 population (Figs. 3c/3d).
    @raise Invalid_argument if [level] is not above the page's current
    level or exceeds the profile's dead level. *)

val retire_worn_pages : t -> budget:int -> unit
(** §3.3's proactive retirement, which every decommission runs when
    [scrub_on_decommission] is set: relocate the live data off the most
    worn live pages and move each up one level until [budget] data oPages
    (counted at each page's level before the move) have been retired.
    Pages go in descending RBER as sensed on entry, ties to the higher
    flat page index ([block * pages_per_block + page]). *)

(** {2 Flat-LBA adapter}

    Concatenates the live minidisks' LBA spaces so fleet experiments can
    drive Salamander devices through the common {!Ftl.Device_intf.S}
    signature.  The flat index of a given page moves when minidisks come
    and go; aging workloads don't care, but the diFS uses the native API
    instead. *)

module As_device : Ftl.Device_intf.S with type t = t

val pack : t -> Ftl.Device_intf.packed
