type retirement = Brick | Shrink

let over_provisioning = 0.07
let brick_threshold = 0.025
let min_capacity_fraction = 0.5

type t = {
  retirement : retirement;
  tolerable_rber : float;
  engine : Engine.t;
  block_bad : bool array;
  mutable retired_blocks : int;
  mutable capacity : int;
  initial_capacity : int;
  mutable shrunk : int;
  mutable dead : bool;
}

let retire t ~block ~block_opages =
  t.block_bad.(block) <- true;
  t.retired_blocks <- t.retired_blocks + 1;
  match t.retirement with
  | Brick ->
      if
        float_of_int t.retired_blocks
        > brick_threshold *. float_of_int (Array.length t.block_bad)
      then t.dead <- true
  | Shrink ->
      (* Surrender a block's worth of LBAs from the top of the address
         space.  The host file system absorbs the loss from its free
         space; any data there is trimmed away here and the host
         re-creates it elsewhere (counted in [shrunk]). *)
      let new_capacity = Stdlib.max 0 (t.capacity - block_opages) in
      for lba = new_capacity to t.capacity - 1 do
        Engine.discard t.engine ~logical:lba;
        t.shrunk <- t.shrunk + 1
      done;
      t.capacity <- new_capacity;
      if
        float_of_int t.capacity
        < min_capacity_fraction *. float_of_int t.initial_capacity
      then t.dead <- true

let create ~retirement ?registry ~geometry ~model ~rng () =
  let ecc = Ecc_profile.of_geometry geometry in
  let chip =
    Flash.Chip.create ?registry ~rng:(Sim.Rng.split rng) ~geometry ~model ()
  in
  let block_bad = Array.make geometry.Flash.Geometry.blocks false in
  let opages = geometry.Flash.Geometry.opages_per_fpage in
  let policy =
    {
      Policy.data_slots =
        (fun ~block ~page:_ -> if block_bad.(block) then 0 else opages);
      read_fail_prob =
        (fun ~rber ~block:_ ~page:_ ->
          Ecc_profile.opage_read_fail_prob ecc ~rber);
      should_reclaim =
        (fun ~rber ~block:_ ~page:_ -> Ecc_profile.should_reclaim ecc ~rber);
      on_block_erased = (fun ~block:_ -> ());
    }
  in
  let initial_capacity =
    int_of_float
      (float_of_int (Flash.Geometry.total_opages geometry)
      *. (1. -. over_provisioning))
  in
  let engine =
    Engine.create ?registry ~chip ~rng:(Sim.Rng.split rng) ~policy
      ~logical_capacity:initial_capacity ()
  in
  (* Health-monitor input: one fixed code, no deeper levels to fall back
     to, so the correction ceiling is the level-0 tolerance. *)
  Option.iter
    (fun r -> Device_intf.set_tolerable_rber r ecc.Ecc_profile.tolerable_rber)
    registry;
  let t =
    {
      retirement;
      tolerable_rber = ecc.Ecc_profile.tolerable_rber;
      engine;
      block_bad;
      retired_blocks = 0;
      capacity = initial_capacity;
      initial_capacity;
      shrunk = 0;
      dead = false;
    }
  in
  (* Retirement: the moment the *weakest* page of a block would exceed
     the default code's tolerance after the erase it just received, the
     whole block is retired. *)
  let pages = geometry.Flash.Geometry.pages_per_block in
  let rec tired ~wear ~block page =
    page < pages
    && (Ecc_profile.page_is_tired ecc
          ~rber:(Flash.Chip.erased_rber chip ~wear ~block ~page)
       || tired ~wear ~block (page + 1))
  in
  policy.Policy.on_block_erased <-
    (fun ~block ->
      if
        (not t.block_bad.(block))
        && tired ~wear:(Flash.Chip.erased_wear chip ~block) ~block 0
      then
        retire t ~block ~block_opages:(pages * opages));
  t

let engine t = t.engine
let retired_blocks t = t.retired_blocks
let shrunk_opages t = t.shrunk

let label t =
  match t.retirement with Brick -> "baseline" | Shrink -> "cvss"

let write t ~lba ~payload =
  if t.dead then Error `Dead
  else if lba < 0 || lba >= t.capacity then Error `Out_of_range
  else
    match Engine.write t.engine ~logical:lba ~payload with
    | Ok () -> Ok () (* the drive may have died *during* this write;
                        callers observe that through [alive] *)
    | Error `No_space ->
        t.dead <- true;
        Error `No_space

(* Bulk segments between erases; flat LBAs are engine logicals, so the
   translation is the identity.  [t.capacity] is re-read at each segment
   start, so a mid-stream shrink (the erase hook fires inside the
   segment, which then ends with [Stream_erased]) tightens the limit
   before any further write — draws into the surrendered range come back
   as [Stream_resync], the per-op [`Out_of_range].  The budget test
   precedes the death test to match the per-op loop's order (its stop
   predicate runs before the alive check, so a device that dies on its
   quota's last write is not observed until next epoch). *)
let write_stream t ~rng ~window ~payload_base ~budget =
  if not (Engine.stream_capable t.engine) then
    { Device_intf.accepted = 0; status = Device_intf.Stream_unsupported }
  else
    let rec go accepted =
      if accepted >= budget then
        { Device_intf.accepted; status = Device_intf.Stream_filled }
      else if t.dead then
        { Device_intf.accepted; status = Device_intf.Stream_dead }
      else
        let n, stop =
          Engine.write_stream t.engine ~rng ~window ~limit:t.capacity
            ~translate:Fun.id ~payload_base:(payload_base + accepted)
            ~budget:(budget - accepted)
        in
        let accepted = accepted + n in
        match stop with
        | Engine.Stream_budget ->
            { Device_intf.accepted; status = Device_intf.Stream_filled }
        | Engine.Stream_out_of_window ->
            { Device_intf.accepted; status = Device_intf.Stream_resync }
        | Engine.Stream_erased -> go accepted
        | Engine.Stream_no_space _ ->
            t.dead <- true;
            { Device_intf.accepted; status = Device_intf.Stream_dead }
    in
    go 0

let read t ~lba =
  if lba < 0 || lba >= t.initial_capacity then Error `Out_of_range
  else
    (Engine.read t.engine ~logical:lba
      :> (int, Device_intf.read_error) result)

(* A bricked drive ignores trims; a dead shrinking drive still discards
   (its LBAs above the shrunk capacity resolve too, exactly like
   [read]). *)
let trim t ~lba =
  let ignored = t.dead && t.retirement = Brick in
  if (not ignored) && lba >= 0 && lba < t.initial_capacity then
    Engine.discard t.engine ~logical:lba

let alive t = not t.dead
let logical_capacity t = if t.dead then 0 else t.capacity
let initial_capacity t = t.initial_capacity
let host_writes t = Engine.host_writes t.engine
let write_amplification t = Engine.write_amplification t.engine
let bg_stats t = Device_intf.engine_bg_stats t.engine

let wear_stats t =
  Device_intf.engine_wear_stats ~tolerable_rber:t.tolerable_rber t.engine

let set_recovery_hook t ?config hook =
  (* flat LBAs map 1:1 onto engine logicals *)
  Engine.set_recovery_hook t.engine ?config
    (Option.map (fun f ~logical -> f ~lba:logical) hook)
