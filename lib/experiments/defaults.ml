let geometry = Flash.Geometry.create ~pages_per_block:16 ~blocks:32 ()
let reference_geometry = Flash.Geometry.create ~pages_per_block:64 ~blocks:64 ()
let target_pec = 60

let model =
  (* Anchor the wear curve so a median page exhausts the level-0 code at
     [target_pec] cycles; all level ratios follow from the code rates. *)
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  Flash.Rber_model.calibrate
    ~target_rber:
      (Salamander.Tiredness.info profile 0).Salamander.Tiredness.tolerable_rber
    ~target_pec ()

let mdisk_opages = 64

let salamander_config ~mode =
  { Salamander.Device.default_config with Salamander.Device.mode; mdisk_opages }

let fleet_devices = 24
let fleet_seed = 1789

type kind = [ `Baseline | `Cvss | `Shrinks | `Regens ]

let salamander ?registry ?(model = model) ~mode ~rng () =
  Salamander.Device.create ~config:(salamander_config ~mode) ?registry
    ~geometry ~model ~rng ()

let device ?registry ?(model = model) kind ~rng =
  match kind with
  | (`Baseline | `Cvss) as k ->
      let retirement =
        match k with
        | `Baseline -> Ftl.Conventional.Brick
        | `Cvss -> Ftl.Conventional.Shrink
      in
      let d =
        Ftl.Conventional.create ~retirement ?registry ~geometry ~model ~rng ()
      in
      ( Ftl.Device_intf.Packed ((module Ftl.Conventional), d),
        Ftl.Conventional.engine d )
  | (`Shrinks | `Regens) as k ->
      let mode =
        match k with
        | `Shrinks -> Salamander.Device.Shrink_s
        | `Regens -> Salamander.Device.Regen_s
      in
      let d = salamander ?registry ~model ~mode ~rng () in
      (Salamander.Device.pack d, Salamander.Device.engine d)

let make_device_rng ?registry kind ~rng = fst (device ?registry kind ~rng)

let make_device ?registry kind ~seed =
  make_device_rng ?registry kind ~rng:(Sim.Rng.create seed)

let fill_cluster cluster ~devices ~percent =
  let per_chunk =
    Difs.Cluster.share_opages cluster * Difs.Cluster.total_shares cluster
  in
  let chunks =
    devices * Flash.Geometry.total_opages geometry * percent / 100 / per_chunk
  in
  for id = 0 to chunks - 1 do
    ignore (Difs.Cluster.write_chunk cluster id)
  done;
  chunks

let kind_label = function
  | `Baseline -> "baseline"
  | `Cvss -> "cvss"
  | `Shrinks -> "shrinks"
  | `Regens -> "regens"

let observation ~id ~alive device =
  let w = Ftl.Device_intf.wear_stats device in
  let bg = Ftl.Device_intf.bg_stats device in
  {
    Obs.Fleet_report.id;
    pec_max = w.Ftl.Device_intf.pec_max;
    pec_min = w.Ftl.Device_intf.pec_min;
    rber_worst = w.Ftl.Device_intf.rber_worst;
    tolerable_rber = w.Ftl.Device_intf.tolerable_rber;
    retries = bg.Ftl.Device_intf.read_retries;
    escalations = bg.Ftl.Device_intf.live_repair_attempts;
    reclaims = bg.Ftl.Device_intf.read_reclaims;
    host_writes = Ftl.Device_intf.host_writes device;
    alive;
  }
