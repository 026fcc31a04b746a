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
      let d =
        Salamander.Device.create ~config:(salamander_config ~mode) ?registry
          ~geometry ~model ~rng ()
      in
      (Salamander.Device.pack d, Salamander.Device.engine d)

let make_device_rng ?registry kind ~rng = fst (device ?registry kind ~rng)

let make_device ?registry kind ~seed =
  make_device_rng ?registry kind ~rng:(Sim.Rng.create seed)

let kind_label = function
  | `Baseline -> "baseline"
  | `Cvss -> "cvss"
  | `Shrinks -> "shrinks"
  | `Regens -> "regens"
