(** Shared experiment scale.

    The paper's analysis assumes datacenter drives (hundreds of GiB,
    ~3 000 P/E cycles).  Simulating that scale write-by-write is pointless;
    all the dynamics the figures plot are ratios, so the experiments run
    a scaled device — a few MiB of flash wearing out within tens of
    cycles — and EXPERIMENTS.md records the scaling.  The calibration in
    DESIGN.md keeps the level-to-level lifetime ratios identical to the
    full-scale device because the wear exponent, code rates and failure
    thresholds are unchanged. *)

val geometry : Flash.Geometry.t
(** 32 blocks x 16 fPages (8 MiB of 4 KiB oPages, 2048 slots). *)

val reference_geometry : Flash.Geometry.t
(** The paper's full-page geometry for analytic figures. *)

val model : Flash.Rber_model.t
(** Wear model calibrated so a median page exhausts the default code at
    60 cycles: the accelerated-aging anchor. *)

val target_pec : int

val mdisk_opages : int
(** 64 oPages = 256 KiB minidisks at experiment scale. *)

val salamander_config : mode:Salamander.Device.mode -> Salamander.Device.config

val fleet_devices : int
val fleet_seed : int

type kind = [ `Baseline | `Cvss | `Shrinks | `Regens ]
(** The four competing designs: the bricking baseline SSD, CVSS, and
    Salamander's ShrinkS and RegenS. *)

val salamander :
  ?registry:Telemetry.Registry.t ->
  ?model:Flash.Rber_model.t ->
  mode:Salamander.Device.mode ->
  rng:Sim.Rng.t ->
  unit ->
  Salamander.Device.t
(** A fresh Salamander device in [mode] on the shared scale
    ({!geometry}, {!salamander_config}), drawing from [rng]; [model]
    defaults to {!model}. *)

val device :
  ?registry:Telemetry.Registry.t ->
  ?model:Flash.Rber_model.t ->
  kind ->
  rng:Sim.Rng.t ->
  Ftl.Device_intf.packed * Ftl.Engine.t
(** A fresh device of [kind] on the shared scale, drawing from [rng],
    plus the FTL engine underneath it (the packed wrapper hides the
    concrete type; chaos cells and probes reach the chip and the
    engine's counters through it).  Telemetry binds to [registry]
    (default: the null registry, i.e. telemetry off); [model] defaults
    to {!model}. *)

val make_device :
  ?registry:Telemetry.Registry.t -> kind -> seed:int -> Ftl.Device_intf.packed
(** [device] from a fresh seed, without the engine. *)

val make_device_rng :
  ?registry:Telemetry.Registry.t ->
  kind ->
  rng:Sim.Rng.t ->
  Ftl.Device_intf.packed
(** [device] without the engine, drawing from a caller-owned stream —
    the building block for deterministic parallel fleets, where each
    device's stream is split off a root RNG in submission order. *)

val fill_cluster : Difs.Cluster.t -> devices:int -> percent:int -> int
(** Write chunks [0], [1], ... until they fill [percent] % of the raw
    flash of [devices] shared-scale devices (counting every share), and
    return the chunk count.  Write errors are ignored: a chunk that
    could not be placed stays absent. *)

val kind_label : kind -> string

val observation :
  id:string ->
  alive:bool ->
  Ftl.Device_intf.packed ->
  Obs.Fleet_report.observation
(** The device's end-of-run fleet-report observation: its wear and
    background-work statistics under [id], with the caller's verdict on
    whether it is [alive] (a fleet may count a device dead that its own
    state would still call alive). *)
