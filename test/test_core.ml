(* Tests for the Salamander core: the tiredness level table, limbo
   accounting (Eqs. 1 and 2), the minidisk registry, and the full device
   in both ShrinkS and RegenS modes, aged to death. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 ()
(* 512 oPage slots = 2 MiB of 4 KiB pages *)

let reference_geometry = Flash.Geometry.create ~pages_per_block:64 ~blocks:64 ()

let fast_model =
  Flash.Rber_model.calibrate ~target_rber:6e-3 ~target_pec:40 ()

let test_config =
  {
    Salamander.Device.default_config with
    Salamander.Device.mdisk_opages = 32 (* 128 KiB minidisks *);
  }

let shrink_test_config =
  { test_config with Salamander.Device.mode = Salamander.Device.Shrink_s }

module Tiredness_helpers = struct
  (* The paper's reference geometry (16 KiB fPage + 2 KiB spare) with
     RegenS limited to L1, as §4 recommends. *)
  let reference_profile () =
    Salamander.Tiredness.profile ~max_level:1 reference_geometry
end

(* --- Tiredness ----------------------------------------------------------- *)

let test_tiredness_level_table () =
  let profile = Tiredness_helpers.reference_profile () in
  let l0 = Salamander.Tiredness.info profile 0 in
  let l1 = Salamander.Tiredness.info profile 1 in
  checki "L0 slots" 4 l0.Salamander.Tiredness.data_slots;
  checki "L1 slots" 3 l1.Salamander.Tiredness.data_slots;
  (* Paper's reference code: 2 KiB chunks, 256 B spare, t = 136 at L0. *)
  (match l0.Salamander.Tiredness.tail with
  | Some { Ecc.Reliability.params = p; _ } ->
      checki "L0 capability" 136 p.Ecc.Code_params.capability
  | None -> Alcotest.fail "L0 has a code");
  checkb "L1 tolerates more errors" true
    (l1.Salamander.Tiredness.tolerable_rber
    > l0.Salamander.Tiredness.tolerable_rber);
  checkb "code rate drops with level" true
    (l1.Salamander.Tiredness.code_rate < l0.Salamander.Tiredness.code_rate);
  (* L0 code rate of the 16 KiB + 2 KiB geometry is 8/9. *)
  Alcotest.check (Alcotest.float 1e-6) "L0 code rate" (8. /. 9.)
    l0.Salamander.Tiredness.code_rate

let test_tiredness_dead_level () =
  let profile = Tiredness_helpers.reference_profile () in
  checki "dead level" 2 (Salamander.Tiredness.dead_level profile);
  let dead =
    Salamander.Tiredness.info profile (Salamander.Tiredness.dead_level profile)
  in
  checki "dead slots" 0 dead.Salamander.Tiredness.data_slots;
  checkb "dead has no code" true (dead.Salamander.Tiredness.tail = None)

let test_tiredness_level_for_rber () =
  let profile = Tiredness_helpers.reference_profile () in
  let l0_max =
    (Salamander.Tiredness.info profile 0).Salamander.Tiredness.tolerable_rber
  in
  let l1_max =
    (Salamander.Tiredness.info profile 1).Salamander.Tiredness.tolerable_rber
  in
  checki "tiny rber is L0" 0
    (Salamander.Tiredness.level_for_rber profile ~rber:1e-6);
  checki "just under L0 max" 0
    (Salamander.Tiredness.level_for_rber profile ~rber:(l0_max *. 0.99));
  checki "between thresholds is L1" 1
    (Salamander.Tiredness.level_for_rber profile ~rber:(l0_max *. 1.01));
  checki "beyond L1 is dead" 2
    (Salamander.Tiredness.level_for_rber profile ~rber:(l1_max *. 1.01))

let test_tiredness_lifetime_ratio_matches_paper () =
  (* The core of Fig. 2: with the calibrated wear model, moving from L0 to
     L1 should buy roughly the paper's ~50% extra lifetime (we accept
     1.3x to 1.8x). *)
  let profile = Tiredness_helpers.reference_profile () in
  let model =
    Flash.Rber_model.calibrate
      ~target_rber:
        (Salamander.Tiredness.info profile 0).Salamander.Tiredness.tolerable_rber
      ~target_pec:3000 ()
  in
  let pec_at level =
    Flash.Rber_model.pec_at model
      ~rber:
        (Salamander.Tiredness.info profile level)
          .Salamander.Tiredness.tolerable_rber
      ~strength:1.
  in
  let ratio = pec_at 1 /. pec_at 0 in
  checkb (Printf.sprintf "L1/L0 lifetime ratio %.2f in [1.3, 1.8]" ratio) true
    (ratio >= 1.3 && ratio <= 1.8)

let test_tiredness_max_level_bounds () =
  Alcotest.check_raises "max_level too big"
    (Invalid_argument "Tiredness.profile: max_level out of range") (fun () ->
      ignore (Salamander.Tiredness.profile ~max_level:4 reference_geometry))

(* --- Limbo ---------------------------------------------------------------- *)

let test_limbo_initial_census () =
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  let limbo = Salamander.Limbo.create profile in
  checki "all pages at L0" (Flash.Geometry.fpages geometry)
    (Salamander.Limbo.count limbo ~level:0);
  checki "Eq1 at L0" (Flash.Geometry.total_opages geometry)
    (Salamander.Limbo.valid_opages limbo ~level:0);
  checki "total capacity" (Flash.Geometry.total_opages geometry)
    (Salamander.Limbo.total_data_opages limbo)

let test_limbo_transitions () =
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  let limbo = Salamander.Limbo.create profile in
  Salamander.Limbo.transition limbo ~from_level:0 ~to_level:1;
  Salamander.Limbo.transition limbo ~from_level:0 ~to_level:1;
  Salamander.Limbo.transition limbo ~from_level:1 ~to_level:2;
  checki "L0 count" (Flash.Geometry.fpages geometry - 2)
    (Salamander.Limbo.count limbo ~level:0);
  checki "L1 count" 1 (Salamander.Limbo.count limbo ~level:1);
  checki "dead count" 1 (Salamander.Limbo.count limbo ~level:2);
  (* Eq 1: L1 page stores 3 oPages, dead stores 0. *)
  checki "Eq1 L1" 3 (Salamander.Limbo.valid_opages limbo ~level:1);
  checki "Eq1 dead" 0 (Salamander.Limbo.valid_opages limbo ~level:2);
  checki "total lost 5 opages" (Flash.Geometry.total_opages geometry - 5)
    (Salamander.Limbo.total_data_opages limbo)

let test_limbo_transition_empty_source () =
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  let limbo = Salamander.Limbo.create profile in
  Alcotest.check_raises "empty source"
    (Invalid_argument "Limbo.transition: no pages at source level") (fun () ->
      Salamander.Limbo.transition limbo ~from_level:1 ~to_level:2)

let test_limbo_capacity_deficit () =
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  let limbo = Salamander.Limbo.create profile in
  let total = Salamander.Limbo.total_data_opages limbo in
  checki "no deficit when below capacity" 0
    (Salamander.Limbo.capacity_deficit limbo ~lbas:(total - 10) ~headroom:1.0);
  checkb "deficit under headroom" true
    (Salamander.Limbo.capacity_deficit limbo ~lbas:total ~headroom:1.1 > 0)

(* --- Minidisk registry ----------------------------------------------------- *)

let test_registry_lifecycle () =
  let r =
    Salamander.Minidisk.Registry.create ~opages_per_mdisk:32 ~slots:4
      ~initial:0
  in
  let m0 =
    Option.get (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0)
  in
  let m1 =
    Option.get (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0)
  in
  checki "ids monotonic" 1 m1.Salamander.Minidisk.id;
  checki "active" 2 (Salamander.Minidisk.Registry.active_count r);
  checki "lbas" 64 (Salamander.Minidisk.Registry.active_opages r);
  ignore (Salamander.Minidisk.Registry.decommission r m0.Salamander.Minidisk.id);
  checki "active after decommission" 1
    (Salamander.Minidisk.Registry.active_count r);
  (* Slot reuse: a regenerated minidisk may take the freed slot but gets a
     fresh id. *)
  let m2 =
    Option.get (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:1)
  in
  checki "fresh id" 2 m2.Salamander.Minidisk.id;
  checki "reused slot" m0.Salamander.Minidisk.slot m2.Salamander.Minidisk.slot

let test_registry_slot_exhaustion () =
  let r =
    Salamander.Minidisk.Registry.create ~opages_per_mdisk:32 ~slots:2
      ~initial:0
  in
  ignore (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0);
  ignore (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0);
  checkb "exhausted" true
    (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0 = None)

let test_registry_double_decommission () =
  let r =
    Salamander.Minidisk.Registry.create ~opages_per_mdisk:32 ~slots:2
      ~initial:0
  in
  let m =
    Option.get (Salamander.Minidisk.Registry.create_mdisk r ~birth_level:0)
  in
  ignore (Salamander.Minidisk.Registry.decommission r m.Salamander.Minidisk.id);
  Alcotest.check_raises "double decommission"
    (Invalid_argument "Minidisk.Registry.decommission: already decommissioned")
    (fun () ->
      ignore
        (Salamander.Minidisk.Registry.decommission r m.Salamander.Minidisk.id))

(* --- Device: basic I/O ------------------------------------------------------ *)

let make_device ?(config = test_config) ?(seed = 42) ?(model = fast_model) () =
  Salamander.Device.create ~config ~geometry ~model
    ~rng:(Sim.Rng.create seed) ()

(* --- Translation view: differential against a fresh derivation ---------- *)

(* The per-op adapter, the bulk stream and both recovery hooks read one
   translation view the registry rebuilds on every mutation.  Random
   create / drain / decommission sequences run on a live device's
   registry; after each step the view must equal a derivation from
   [Registry.find] alone, and the device's translations must agree with
   it end to end.  One oPage per slot is written straight into the
   engine and its page made unreadable, so every read of it escalates
   into whichever recovery hook is installed and reports the address
   the hook saw. *)

type view_op = Create | Drain of int | Decommission of int

let view_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Create);
        (2, map (fun i -> Drain i) (int_bound 63));
        (3, map (fun i -> Decommission i) (int_bound 63));
      ])

let print_view_op = function
  | Create -> "create"
  | Drain i -> Printf.sprintf "drain %d" i
  | Decommission i -> Printf.sprintf "decommission %d" i

module Reg = Salamander.Minidisk.Registry

let prop_translation_view =
  QCheck.Test.make ~count:40 ~name:"translation view = fresh derivation"
    QCheck.(
      make
        Gen.(list_size (int_range 1 30) view_op_gen)
        ~print:(fun ops -> String.concat "; " (List.map print_view_op ops)))
    (fun ops ->
      let d = make_device () in
      let r = Salamander.Device.registry d in
      let engine = Salamander.Device.engine d in
      let per = Reg.opages_per_mdisk r in
      let slots = Array.length (Reg.view r).Reg.owner in
      let offset slot = (slot * 7) mod per in
      for slot = 0 to slots - 1 do
        let logical = (slot * per) + offset slot in
        match Ftl.Engine.write engine ~logical ~payload:logical with
        | Ok () -> ()
        | Error `No_space -> QCheck.Test.fail_report "prefill out of space"
      done;
      ignore (Ftl.Engine.flush engine);
      for slot = 0 to slots - 1 do
        let logical = (slot * per) + offset slot in
        match Ftl.Engine.locate engine ~logical with
        | Some { Ftl.Location.block; page; _ } ->
            Flash.Chip.inject (Ftl.Engine.chip engine) ~block ~page
              (Flash.Chip.Sticky_rber 1.0)
        | None -> QCheck.Test.fail_report "prefill not mapped"
      done;
      (* One attempt, one-read backoff: every escalation reaches the hook. *)
      let config =
        { Ftl.Engine.recovery_attempts = 1; backoff_base = 1; backoff_cap = 1 }
      in
      let flat_seen = ref None and mdisk_seen = ref None in
      let flat_hook ~lba =
        flat_seen := Some lba;
        Some lba
      in
      let mdisk_hook ~mdisk ~lba =
        mdisk_seen := Some (mdisk, lba);
        Some lba
      in
      let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt in
      (* The oracle: every minidisk ever created, in id order, by state. *)
      let with_state states =
        List.filter
          (fun m -> List.mem m.Salamander.Minidisk.state states)
          (List.filter_map (Reg.find r)
             (List.init (Reg.created_total r) Fun.id))
      in
      let check_step step =
        let active = with_state [ Salamander.Minidisk.Active ] in
        let draining = with_state [ Salamander.Minidisk.Draining ] in
        let owner slot =
          List.find_opt
            (fun m -> m.Salamander.Minidisk.slot = slot)
            (active @ draining)
        in
        let position slot =
          let rec go i = function
            | [] -> -1
            | m :: rest ->
                if m.Salamander.Minidisk.slot = slot then i else go (i + 1) rest
          in
          go 0 active
        in
        let v = Reg.view r in
        if Array.to_list v.Reg.active <> active then
          fail "step %d: view.active differs" step;
        if Reg.active r <> active || Reg.draining r <> draining then
          fail "step %d: active/draining lists differ" step;
        Array.iteri
          (fun i m ->
            if v.Reg.base.(i) <> m.Salamander.Minidisk.slot * per then
              fail "step %d: base.(%d)" step i)
          v.Reg.active;
        if Array.length v.Reg.base <> List.length active then
          fail "step %d: base length" step;
        for slot = 0 to slots - 1 do
          if v.Reg.position.(slot) <> position slot then
            fail "step %d: position.(%d)" step slot;
          match (v.Reg.owner.(slot), owner slot) with
          | None, None -> ()
          | Some a, Some b when a == b -> ()
          | _ -> fail "step %d: owner.(%d)" step slot
        done;
        (* Forward then reverse translation is the identity. *)
        for lba = 0 to (List.length active * per) - 1 do
          let logical = v.Reg.base.(lba / per) + (lba mod per) in
          let back =
            (v.Reg.position.(logical / per) * per) + (logical mod per)
          in
          if back <> lba then
            fail "step %d: lba %d -> %d -> %d" step lba logical back
        done;
        (* Device level, one faulted oPage per slot. *)
        for slot = 0 to slots - 1 do
          let logical = (slot * per) + offset slot in
          let read_engine () =
            flat_seen := None;
            mdisk_seen := None;
            Ftl.Engine.read engine ~logical
          in
          Salamander.Device.As_device.set_recovery_hook d ~config
            (Some flat_hook);
          (match position slot with
          | i when i >= 0 -> (
              (* Flat read of the active LBA: forward through the view,
                 escalate, reverse through the flat hook. *)
              let lba = (i * per) + offset slot in
              flat_seen := None;
              match Salamander.Device.As_device.read d ~lba with
              | Ok payload when payload = lba && !flat_seen = Some lba -> ()
              | _ -> fail "step %d: flat round trip of lba %d" step lba)
          | _ -> (
              match read_engine () with
              | Error `Uncorrectable when !flat_seen = None -> ()
              | _ -> fail "step %d: flat hook answered slot %d" step slot));
          Salamander.Device.set_recovery_hook d ~config (Some mdisk_hook);
          match (owner slot, read_engine ()) with
          | Some m, Ok _
            when !mdisk_seen = Some (m.Salamander.Minidisk.id, offset slot) ->
              ()
          | None, Error `Uncorrectable when !mdisk_seen = None -> ()
          | _ -> fail "step %d: per-mdisk hook at slot %d" step slot
        done
      in
      let nth_of list i =
        match list with
        | [] -> None
        | _ -> Some (List.nth list (i mod List.length list))
      in
      let step i op =
        (match op with
        | Create -> ignore (Reg.create_mdisk r ~birth_level:0)
        | Drain k -> (
            match nth_of (with_state [ Salamander.Minidisk.Active ]) k with
            | Some m -> ignore (Reg.begin_drain r m.Salamander.Minidisk.id)
            | None -> ())
        | Decommission k -> (
            match
              nth_of
                (with_state
                   [ Salamander.Minidisk.Active; Salamander.Minidisk.Draining ])
                k
            with
            | Some m -> ignore (Reg.decommission r m.Salamander.Minidisk.id)
            | None -> ()));
        check_step i
      in
      check_step (-1);
      List.iteri step ops;
      true)

let test_device_initial_layout () =
  let d = make_device () in
  (* 512 opages * 0.93 / 32 per mdisk = 14 minidisks *)
  checki "initial minidisks" 14
    (List.length (Salamander.Device.active_mdisks d));
  checki "exported lbas" (14 * 32) (Salamander.Device.active_opages d);
  checki "physical capacity" 512 (Salamander.Device.total_data_opages d);
  checkb "alive" true (Salamander.Device.alive d)

let test_device_write_read_roundtrip () =
  let d = make_device () in
  let mdisks = Salamander.Device.active_mdisks d in
  let first = (List.hd mdisks).Salamander.Minidisk.id in
  List.iter
    (fun lba ->
      match Salamander.Device.write d ~mdisk:first ~lba ~payload:(lba * 7) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed")
    (List.init 32 Fun.id);
  List.iter
    (fun lba ->
      match Salamander.Device.read d ~mdisk:first ~lba with
      | Ok payload -> checki "payload" (lba * 7) payload
      | Error _ -> Alcotest.fail "read failed")
    (List.init 32 Fun.id)

let test_device_mdisk_isolation () =
  let d = make_device () in
  let mdisks = Salamander.Device.active_mdisks d in
  let a = (List.nth mdisks 0).Salamander.Minidisk.id in
  let b = (List.nth mdisks 1).Salamander.Minidisk.id in
  ignore (Salamander.Device.write d ~mdisk:a ~lba:5 ~payload:111);
  ignore (Salamander.Device.write d ~mdisk:b ~lba:5 ~payload:222);
  (match Salamander.Device.read d ~mdisk:a ~lba:5 with
  | Ok p -> checki "mdisk a" 111 p
  | Error _ -> Alcotest.fail "read a");
  match Salamander.Device.read d ~mdisk:b ~lba:5 with
  | Ok p -> checki "mdisk b" 222 p
  | Error _ -> Alcotest.fail "read b"

let test_device_unknown_mdisk () =
  let d = make_device () in
  checkb "write to unknown" true
    (Salamander.Device.write d ~mdisk:999 ~lba:0 ~payload:0
    = Error `Unknown_mdisk);
  checkb "read from unknown" true
    (Salamander.Device.read d ~mdisk:999 ~lba:0 = Error `Unknown_mdisk)

let test_device_lba_bounds () =
  let d = make_device () in
  let first =
    (List.hd (Salamander.Device.active_mdisks d)).Salamander.Minidisk.id
  in
  Alcotest.check_raises "lba out of mdisk"
    (Invalid_argument "Minidisk: LBA outside minidisk") (fun () ->
      ignore (Salamander.Device.write d ~mdisk:first ~lba:32 ~payload:0))

let test_device_trim () =
  let d = make_device () in
  let first =
    (List.hd (Salamander.Device.active_mdisks d)).Salamander.Minidisk.id
  in
  ignore (Salamander.Device.write d ~mdisk:first ~lba:0 ~payload:5);
  Salamander.Device.trim d ~mdisk:first ~lba:0;
  checkb "unmapped after trim" true
    (Salamander.Device.read d ~mdisk:first ~lba:0 = Error `Unmapped)

let test_device_census_consistency () =
  let d = make_device () in
  let census = Salamander.Device.level_census d in
  let limbo = Salamander.Device.limbo d in
  Array.iteri
    (fun level count ->
      checki
        (Printf.sprintf "census level %d" level)
        count
        (Salamander.Limbo.count limbo ~level))
    census;
  (* Engine capacity accounting agrees with limbo accounting. *)
  checki "engine vs limbo capacity"
    (Salamander.Limbo.total_data_opages limbo)
    (Ftl.Engine.total_data_slots (Salamander.Device.engine d))

(* --- Device: aging ----------------------------------------------------------- *)

(* Drive random overwrites through the flat adapter until death. *)
let age_salamander ?(max_writes = 5_000_000) ?(utilization = 0.85) d =
  let rng = Sim.Rng.create 333 in
  let writes = ref 0 in
  (try
     while !writes < max_writes do
       if not (Salamander.Device.alive d) then raise Exit;
       let capacity = Salamander.Device.As_device.logical_capacity d in
       if capacity = 0 then raise Exit;
       let window =
         Stdlib.max 1 (int_of_float (float_of_int capacity *. utilization))
       in
       let lba = Sim.Rng.int rng window in
       (match Salamander.Device.As_device.write d ~lba ~payload:!writes with
       | Ok () -> incr writes
       | Error `Dead | Error `No_space -> raise Exit
       | Error `Out_of_range -> ())
     done
   with Exit -> ());
  !writes

let test_device_shrinks_ages_to_death () =
  let d = make_device ~config:shrink_test_config () in
  let writes = age_salamander d in
  checkb "died" true (not (Salamander.Device.alive d));
  checkb "lived a while" true (writes > 1000);
  checkb "decommissioned along the way" true
    (Salamander.Device.decommissions d > 1);
  checki "no regenerations in ShrinkS" 0 (Salamander.Device.regenerations d);
  (* Every minidisk is gone at the end. *)
  checki "no active minidisks" 0
    (List.length (Salamander.Device.active_mdisks d))

let test_device_shrinks_emits_events () =
  let d = make_device ~config:shrink_test_config () in
  ignore (age_salamander d);
  (* We did not poll during aging, so all events are still queued. *)
  let events = Salamander.Device.poll_events d in
  let decommissions =
    List.length
      (List.filter
         (function
           | Salamander.Events.Mdisk_decommissioned _ -> true | _ -> false)
         events)
  in
  let failed =
    List.exists (function Salamander.Events.Device_failed -> true | _ -> false)
      events
  in
  checki "decommission events match counter"
    (Salamander.Device.decommissions d)
    decommissions;
  checkb "device failure announced" true failed;
  checki "queue drained" 0 (List.length (Salamander.Device.poll_events d))

let test_device_regens_regenerates () =
  let d = make_device ~config:test_config () in
  ignore (age_salamander d);
  checkb "regenerated at least once" true
    (Salamander.Device.regenerations d > 0);
  (* Regenerated minidisks appear in the event stream with their level. *)
  let events = Salamander.Device.poll_events d in
  let created =
    List.filter_map
      (function
        | Salamander.Events.Mdisk_created { level; _ } -> Some level
        | _ -> None)
      events
  in
  checki "creation events match counter"
    (Salamander.Device.regenerations d)
    (List.length created);
  checkb "some created at L1" true (List.exists (fun l -> l >= 1) created)

let test_device_regens_outlives_shrinks () =
  (* The headline ordering: baseline < ShrinkS < RegenS in total writes
     absorbed before death, on identical wear physics. *)
  let lifetime config seeds =
    List.fold_left
      (fun acc seed -> acc + age_salamander (make_device ~config ~seed ()))
      0 seeds
  in
  let seeds = [ 1; 2; 3 ] in
  let shrink_life = lifetime shrink_test_config seeds in
  let regen_life = lifetime test_config seeds in
  checkb
    (Printf.sprintf "regen %d > shrink %d" regen_life shrink_life)
    true (regen_life > shrink_life)

let test_device_outlives_baseline () =
  let baseline_life =
    let rng = Sim.Rng.create 7 in
    let b = Ftl.Baseline_ssd.create ~geometry ~model:fast_model ~rng () in
    let packed = Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), b) in
    let rng = Sim.Rng.create 333 in
    let writes = ref 0 in
    (try
       while !writes < 5_000_000 do
         if not (Ftl.Device_intf.alive packed) then raise Exit;
         let capacity = Ftl.Device_intf.logical_capacity packed in
         let window =
           Stdlib.max 1 (int_of_float (float_of_int capacity *. 0.85))
         in
         match
           Ftl.Device_intf.write packed ~lba:(Sim.Rng.int rng window)
             ~payload:!writes
         with
         | Ok () -> incr writes
         | Error _ -> raise Exit
       done
     with Exit -> ());
    !writes
  in
  let shrink_life = age_salamander (make_device ~config:shrink_test_config ~seed:7 ()) in
  checkb
    (Printf.sprintf "shrinkS %d > baseline %d" shrink_life baseline_life)
    true (shrink_life > baseline_life)

let test_device_data_survives_decommissions () =
  (* Writes to minidisks that remain active must stay readable across
     other minidisks' decommissioning. *)
  let d = make_device ~config:shrink_test_config ~seed:5 () in
  let rng = Sim.Rng.create 99 in
  let shadow = Hashtbl.create 256 in
  let write_round i =
    List.iter
      (fun mdisk ->
        let id = mdisk.Salamander.Minidisk.id in
        let lba = Sim.Rng.int rng 32 in
        match Salamander.Device.write d ~mdisk:id ~lba ~payload:(i + lba) with
        | Ok () ->
            if
              (* the write may have triggered decommissions; only count it
                 if its minidisk survived *)
              List.exists
                (fun m -> m.Salamander.Minidisk.id = id)
                (Salamander.Device.active_mdisks d)
            then Hashtbl.replace shadow (id, lba) (i + lba)
            else Hashtbl.remove shadow (id, lba)
        | Error _ -> ())
      (Salamander.Device.active_mdisks d)
  in
  let i = ref 0 in
  while Salamander.Device.decommissions d < 3 && !i < 200_000 do
    write_round !i;
    incr i
  done;
  checkb "observed several decommissions" true
    (Salamander.Device.decommissions d >= 3);
  (* Remove shadow entries of minidisks that were decommissioned. *)
  let live_ids =
    List.map
      (fun m -> m.Salamander.Minidisk.id)
      (Salamander.Device.active_mdisks d)
  in
  Hashtbl.iter
    (fun (id, lba) expected ->
      if List.mem id live_ids then
        match Salamander.Device.read d ~mdisk:id ~lba with
        | Ok payload ->
            checki (Printf.sprintf "mdisk %d lba %d" id lba) expected payload
        | Error `Uncorrectable -> () (* legitimate rare media error *)
        | Error _ -> Alcotest.fail "read of live minidisk failed")
    shadow

let test_device_adapter_capacity_tracks_shrinkage () =
  let d = make_device ~config:shrink_test_config ~seed:11 () in
  let initial = Salamander.Device.As_device.logical_capacity d in
  checki "initial matches mdisks" (14 * 32) initial;
  ignore (age_salamander ~max_writes:5_000_000 d);
  checkb "capacity decreased monotonically to zero at death" true
    (Salamander.Device.As_device.logical_capacity d < initial)

(* Property: whatever sequence of writes/trims/reads a host issues, the
   device's three capacity accountings stay consistent:
   - the per-page level array matches the limbo census (Eq. 1 bookkeeping),
   - the engine's policy-derived capacity equals the limbo total,
   - exported LBAs never exceed physical data slots (Eq. 2 is enforced
     up to one pending maintenance round). *)
let prop_device_invariants =
  QCheck.Test.make ~count:20 ~name:"device accounting invariants"
    QCheck.(pair small_int (list (pair (int_range 0 13) (int_range 0 40))))
    (fun (seed, ops) ->
      let d = make_device ~config:test_config ~seed:(seed + 1000) () in
      List.iteri
        (fun i (mdisk_index, lba) ->
          let mdisks = Salamander.Device.active_mdisks d in
          if mdisks <> [] then begin
            let mdisk =
              (List.nth mdisks (mdisk_index mod List.length mdisks))
                .Salamander.Minidisk.id
            in
            let lba = lba mod 32 in
            match i mod 4 with
            | 0 | 1 | 2 ->
                ignore (Salamander.Device.write d ~mdisk ~lba ~payload:i)
            | _ -> Salamander.Device.trim d ~mdisk ~lba
          end)
        ops;
      let census = Salamander.Device.level_census d in
      let limbo = Salamander.Device.limbo d in
      let census_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun level count -> Salamander.Limbo.count limbo ~level = count)
             census)
      in
      let engine_ok =
        Ftl.Engine.total_data_slots (Salamander.Device.engine d)
        = Salamander.Limbo.total_data_opages limbo
      in
      let capacity_ok =
        (not (Salamander.Device.alive d))
        || Salamander.Device.active_opages d
           <= Salamander.Device.total_data_opages d
      in
      census_ok && engine_ok && capacity_ok)

(* --- Device: decommissioning grace period (§4.3) ---------------------------- *)

let grace_config =
  { shrink_test_config with Salamander.Device.decommission_grace = true }

let test_device_grace_keeps_data_readable () =
  let d = make_device ~config:grace_config ~seed:21 () in
  (* Write a marker into every minidisk, then age until one retires. *)
  let markers =
    List.map
      (fun m ->
        let id = m.Salamander.Minidisk.id in
        (match Salamander.Device.write d ~mdisk:id ~lba:0 ~payload:(1000 + id) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "marker write failed");
        id)
      (Salamander.Device.active_mdisks d)
  in
  let retiring () =
    List.filter_map
      (function
        | Salamander.Events.Mdisk_retiring { id; _ } -> Some id | _ -> None)
      (Salamander.Device.poll_events d)
  in
  (* Age by overwriting LBAs 1..24 of every minidisk (≈75% utilization so
     Eq. 2 fires before an out-of-space emergency), never touching the
     markers at LBA 0. *)
  let rng = Sim.Rng.create 22 in
  let found = ref [] in
  let rounds = ref 0 in
  while !found = [] && !rounds < 300_000 do
    incr rounds;
    List.iter
      (fun m ->
        ignore
          (Salamander.Device.write d ~mdisk:m.Salamander.Minidisk.id
             ~lba:(1 + Sim.Rng.int rng 24)
             ~payload:0))
      (Salamander.Device.active_mdisks d);
    found := retiring ()
  done;
  match !found with
  | [] -> Alcotest.fail "no minidisk retired"
  | id :: _ ->
      checkb "marker still readable during grace" true
        (List.mem id markers
        && (match Salamander.Device.read d ~mdisk:id ~lba:0 with
           | Ok p -> p = 1000 + id
           | Error _ -> false));
      (* writes to a draining minidisk are refused *)
      checkb "writes refused during grace" true
        (Salamander.Device.write d ~mdisk:id ~lba:0 ~payload:0
        = Error `Unknown_mdisk);
      (* acknowledging completes the retirement *)
      Salamander.Device.acknowledge_decommission d ~mdisk:id;
      checkb "unreadable after ack" true
        (Salamander.Device.read d ~mdisk:id ~lba:0 = Error `Unknown_mdisk);
      let decommissioned =
        List.exists
          (function
            | Salamander.Events.Mdisk_decommissioned { id = i; _ } -> i = id
            | _ -> false)
          (Salamander.Device.poll_events d)
      in
      checkb "Mdisk_decommissioned emitted on ack" true decommissioned

let test_device_grace_emergency_override () =
  (* Without any host acknowledgements, out-of-space emergencies must
     force-finish draining minidisks instead of deadlocking: the device
     keeps writing until no active minidisk remains.  (It may finish
     read-only, holding the last unacknowledged drains — alive but with
     zero writable capacity.) *)
  let d = make_device ~config:grace_config ~seed:23 () in
  let writes = age_salamander d in
  checkb "lived first" true (writes > 1000);
  checki "no writable capacity left" 0
    (Salamander.Device.active_opages d);
  (* Progress was only possible because emergencies reclaimed drained
     space along the way. *)
  checkb "emergencies completed some drains" true
    (List.exists
       (function
         | Salamander.Events.Mdisk_decommissioned _ -> true | _ -> false)
       (Salamander.Device.poll_events d))

(* --- Device: record-keyed I/O ------------------------------------------------ *)

(* The diFS holds minidisk records and calls [read_mdisk] / [write_mdisk]
   / [trim_mdisk]; hosts call the id-keyed [read] / [write] / [trim].
   Two twin RegenS devices with a grace period age in lockstep, one
   through records and one through ids, over every minidisk either has
   ever exposed: each call must give the same outcome with the same
   error constructor, and the run must visit every state a record can
   be in — Active, Draining, Decommissioned, a regenerated successor,
   and a dead device. *)

let show_write = function
  | Ok () -> "ok"
  | Error `Dead -> "dead"
  | Error `Unknown_mdisk -> "unknown_mdisk"
  | Error `No_space -> "no_space"

let show_read = function
  | Ok p -> Printf.sprintf "ok %d" p
  | Error `Dead -> "dead"
  | Error `Unknown_mdisk -> "unknown_mdisk"
  | Error `Unmapped -> "unmapped"
  | Error `Uncorrectable -> "uncorrectable"

let test_mdisk_record_io_matches_id_io () =
  let config =
    { test_config with Salamander.Device.decommission_grace = true }
  in
  let by_record = make_device ~config ~seed:37 () in
  let by_id = make_device ~config ~seed:37 () in
  let module D = Salamander.Device in
  let module M = Salamander.Minidisk in
  let records = ref (D.active_mdisks by_record) in
  let visited = Hashtbl.create 8 in
  let visit (m : M.t) =
    Hashtbl.replace visited
      (if not (D.alive by_record) then "dead"
       else
         match m.M.state with
         | M.Active when m.M.birth_level > 0 -> "regenerated"
         | M.Active -> "active"
         | M.Draining -> "draining"
         | M.Decommissioned -> "decommissioned")
      ()
  in
  (* What the state alone decides, before the call: a dead device
     refuses everything, a retired minidisk everything else, and only an
     Active one takes writes. *)
  let refusal (m : M.t) ~write =
    if not (D.alive by_record) then Some "dead"
    else
      match m.M.state with
      | M.Decommissioned -> Some "unknown_mdisk"
      | M.Draining when write -> Some "unknown_mdisk"
      | M.Draining | M.Active -> None
  in
  let check_refusal what refused outcome =
    match refused with
    | Some expected -> Alcotest.(check string) what expected outcome
    | None ->
        checkb (what ^ " served") false
          (outcome = "dead" || outcome = "unknown_mdisk")
  in
  let same_io (m : M.t) ~lba ~payload =
    visit m;
    let mdisk = m.M.id in
    let what = Printf.sprintf "write md%d/%d" mdisk lba in
    let before = refusal m ~write:true in
    let outcome = show_write (D.write_mdisk by_record m ~lba ~payload) in
    Alcotest.(check string)
      what
      (show_write (D.write by_id ~mdisk ~lba ~payload))
      outcome;
    Option.iter (fun e -> Alcotest.(check string) what e outcome) before;
    let what = Printf.sprintf "read md%d/%d" mdisk lba in
    let before = refusal m ~write:false in
    let outcome = show_read (D.read_mdisk by_record m ~lba) in
    Alcotest.(check string) what (show_read (D.read by_id ~mdisk ~lba)) outcome;
    check_refusal what before outcome;
    if payload mod 7 = 0 then begin
      D.trim by_id ~mdisk ~lba;
      D.trim_mdisk by_record m ~lba;
      Alcotest.(check string)
        (Printf.sprintf "read after trim md%d/%d" mdisk lba)
        (show_read (D.read by_id ~mdisk ~lba))
        (show_read (D.read_mdisk by_record m ~lba))
    end
  in
  let rng = Sim.Rng.create 38 in
  let pending_acks = ref [] in
  let ops = ref 0 in
  while D.alive by_record && !ops < 2_000_000 do
    incr ops;
    let all = !records in
    let m = List.nth all (Sim.Rng.int rng (List.length all)) in
    (* LBAs 0..23 of 32: ~75 % utilization, so Eq. 2 retires minidisks
       before an out-of-space emergency does *)
    same_io m ~lba:(Sim.Rng.int rng 24) ~payload:!ops;
    let events = D.poll_events by_record in
    checkb "same events" true (events = D.poll_events by_id);
    List.iter
      (function
        | Salamander.Events.Mdisk_created { id; _ } ->
            let m = Option.get (M.Registry.find (D.registry by_record) id) in
            records := !records @ [ m ]
        | Salamander.Events.Mdisk_retiring { id; _ } ->
            pending_acks := (id, !ops + 200) :: !pending_acks
        | _ -> ())
      events;
    (* acknowledge each drain a while after it starts, so the draining
       record takes I/O first *)
    let due, later = List.partition (fun (_, at) -> at <= !ops) !pending_acks in
    pending_acks := later;
    List.iter
      (fun (mdisk, _) ->
        D.acknowledge_decommission by_record ~mdisk;
        D.acknowledge_decommission by_id ~mdisk)
      due
  done;
  checkb "device died" false (D.alive by_record);
  checkb "twin died" false (D.alive by_id);
  List.iter (fun m -> same_io m ~lba:0 ~payload:0) !records;
  List.iter
    (fun state ->
      checkb ("visited " ^ state) true (Hashtbl.mem visited state))
    [ "active"; "draining"; "decommissioned"; "regenerated"; "dead" ]

(* --- Events.Queue ------------------------------------------------------------ *)

let event_testable =
  Alcotest.testable Salamander.Events.pp (fun a b -> a = b)

let test_events_queue_fifo_order () =
  let q = Salamander.Events.Queue.create () in
  let events =
    [
      Salamander.Events.Mdisk_retiring { id = 1; opages = 32 };
      Salamander.Events.Mdisk_decommissioned { id = 1; lost_opages = 32 };
      Salamander.Events.Mdisk_created { id = 2; opages = 16; level = 1 };
      Salamander.Events.Device_failed;
    ]
  in
  List.iter (Salamander.Events.Queue.push q) events;
  checki "pending counts pushes" 4 (Salamander.Events.Queue.pending q);
  Alcotest.(check (list event_testable))
    "drain is oldest-first" events
    (Salamander.Events.Queue.drain q)

let test_events_queue_drain_empties () =
  let q = Salamander.Events.Queue.create () in
  Alcotest.(check (list event_testable))
    "fresh queue drains empty" []
    (Salamander.Events.Queue.drain q);
  Salamander.Events.Queue.push q Salamander.Events.Device_failed;
  ignore (Salamander.Events.Queue.drain q);
  checki "drain leaves queue empty" 0 (Salamander.Events.Queue.pending q);
  Alcotest.(check (list event_testable))
    "second drain empty" []
    (Salamander.Events.Queue.drain q);
  (* The queue keeps working after a drain. *)
  Salamander.Events.Queue.push q
    (Salamander.Events.Mdisk_created { id = 7; opages = 8; level = 0 });
  checki "push after drain" 1 (Salamander.Events.Queue.pending q)

let test_events_queue_interleaved () =
  let q = Salamander.Events.Queue.create () in
  let ev i = Salamander.Events.Mdisk_retiring { id = i; opages = i } in
  Salamander.Events.Queue.push q (ev 0);
  Salamander.Events.Queue.push q (ev 1);
  Alcotest.(check (list event_testable)) "first batch" [ ev 0; ev 1 ]
    (Salamander.Events.Queue.drain q);
  Salamander.Events.Queue.push q (ev 2);
  Alcotest.(check (list event_testable))
    "later pushes don't resurface drained events" [ ev 2 ]
    (Salamander.Events.Queue.drain q)

(* --- Proactive retirement order ------------------------------------------ *)

(* A RegenS device from the default factory after [writes] host writes:
   fresh, every page senses the model's floor RBER, so the order is all
   ties; 30k writes age it through its first decommissions, so RBERs are
   distinct and levels mixed. *)
let aged_regens ~writes () =
  let d =
    Salamander.Device.create
      ~config:
        (Experiments.Defaults.salamander_config ~mode:Salamander.Device.Regen_s)
      ~geometry:Experiments.Defaults.geometry ~model:Experiments.Defaults.model
      ~rng:(Sim.Rng.create 2027) ()
  in
  let device = Salamander.Device.pack d in
  let pattern =
    Workload.Pattern.uniform
      ~window:(Ftl.Device_intf.logical_capacity device * 85 / 100)
      ~read_fraction:0.
  in
  ignore
    (Workload.Aging.run_epoch ~rng:(Sim.Rng.create 5) ~pattern ~device
       ~quota:writes ());
  d

let page_levels d =
  let g = Experiments.Defaults.geometry in
  Array.init (Flash.Geometry.fpages g) (fun index ->
      let ppb = g.Flash.Geometry.pages_per_block in
      Salamander.Device.level_of_page d ~block:(index / ppb)
        ~page:(index mod ppb))

(* The former retirement order: every live page's (rber, block, page),
   consed block-major and stably sorted by descending RBER; the pages
   retired are its prefix until [budget] data oPages are counted. *)
let list_retirement d ~budget =
  let g = Experiments.Defaults.geometry in
  let chip = Ftl.Engine.chip (Salamander.Device.engine d) in
  let profile = Salamander.Device.profile d in
  let levels = page_levels d in
  let ppb = g.Flash.Geometry.pages_per_block in
  let candidates = ref [] in
  for block = 0 to g.Flash.Geometry.blocks - 1 do
    for page = 0 to ppb - 1 do
      if levels.((block * ppb) + page) < Salamander.Tiredness.dead_level profile
      then
        candidates :=
          (Flash.Chip.rber chip ~block ~page, block, page) :: !candidates
    done
  done;
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) !candidates
  in
  let retired = ref 0 in
  List.filter_map
    (fun (_, block, page) ->
      if !retired >= budget then None
      else begin
        let index = (block * ppb) + page in
        retired :=
          !retired + Salamander.Tiredness.data_slots profile levels.(index);
        Some index
      end)
    sorted

(* The order shows through budgets: one oPage past the first j pages'
   worth retires exactly the first j + 1, on a fresh twin each; the full
   budget ends at the same levels as the list version. *)
let check_retirement_order ~what make =
  let profile = Salamander.Device.profile (make ()) in
  let before = page_levels (make ()) in
  let budget = Experiments.Defaults.mdisk_opages in
  let expected = list_retirement (make ()) ~budget in
  checkb (what ^ ": retirement takes several pages") true
    (List.length expected > 4);
  let levels_after retired =
    Array.mapi
      (fun index level -> if List.mem index retired then level + 1 else level)
      before
  in
  let spent = ref 0 in
  List.iteri
    (fun j index ->
      let d = make () in
      Salamander.Device.retire_worn_pages d ~budget:(!spent + 1);
      let prefix = List.filteri (fun i _ -> i <= j) expected in
      if page_levels d <> levels_after prefix then
        Alcotest.failf
          "%s: budget %d retired other than the list order's first %d" what
          (!spent + 1) (j + 1);
      spent := !spent + Salamander.Tiredness.data_slots profile before.(index))
    expected;
  let d = make () in
  Salamander.Device.retire_worn_pages d ~budget;
  checkb (what ^ ": same levels after the full budget") true
    (page_levels d = levels_after expected)

let test_retire_worn_pages_matches_list_order () =
  let fresh = aged_regens ~writes:0 in
  let steady = aged_regens ~writes:30_000 in
  let rbers d =
    let chip = Ftl.Engine.chip (Salamander.Device.engine d) in
    let g = Experiments.Defaults.geometry in
    List.init (Flash.Geometry.fpages g) (fun index ->
        let ppb = g.Flash.Geometry.pages_per_block in
        Flash.Chip.rber chip ~block:(index / ppb) ~page:(index mod ppb))
  in
  checki "fresh: one RBER, all ties" 1
    (List.length (List.sort_uniq Float.compare (rbers (fresh ()))));
  let levels = page_levels (steady ()) in
  checkb "steady: pages at L0 and L1" true
    (Array.mem 0 levels && Array.mem 1 levels);
  check_retirement_order ~what:"fresh" fresh;
  check_retirement_order ~what:"steady" steady

let suite =
  [
    ("tiredness level table", `Quick, test_tiredness_level_table);
    ("tiredness dead level", `Quick, test_tiredness_dead_level);
    ("tiredness level_for_rber", `Quick, test_tiredness_level_for_rber);
    ("tiredness lifetime ratio (Fig 2)", `Quick,
     test_tiredness_lifetime_ratio_matches_paper);
    ("tiredness max level bounds", `Quick, test_tiredness_max_level_bounds);
    ("limbo initial census", `Quick, test_limbo_initial_census);
    ("limbo transitions (Eq 1)", `Quick, test_limbo_transitions);
    ("limbo empty source", `Quick, test_limbo_transition_empty_source);
    ("limbo capacity deficit (Eq 2)", `Quick, test_limbo_capacity_deficit);
    ("registry lifecycle", `Quick, test_registry_lifecycle);
    ("registry slot exhaustion", `Quick, test_registry_slot_exhaustion);
    ("registry double decommission", `Quick, test_registry_double_decommission);
    ("device initial layout", `Quick, test_device_initial_layout);
    ("device write/read roundtrip", `Quick, test_device_write_read_roundtrip);
    ("device mdisk isolation", `Quick, test_device_mdisk_isolation);
    ("device unknown mdisk", `Quick, test_device_unknown_mdisk);
    ("device lba bounds", `Quick, test_device_lba_bounds);
    ("device trim", `Quick, test_device_trim);
    ("device census consistency", `Quick, test_device_census_consistency);
    ("device ShrinkS ages to death", `Slow, test_device_shrinks_ages_to_death);
    ("device ShrinkS emits events", `Slow, test_device_shrinks_emits_events);
    ("device RegenS regenerates", `Slow, test_device_regens_regenerates);
    ("device RegenS outlives ShrinkS", `Slow,
     test_device_regens_outlives_shrinks);
    ("device ShrinkS outlives baseline", `Slow, test_device_outlives_baseline);
    ("device data survives decommissions", `Slow,
     test_device_data_survives_decommissions);
    ("device adapter capacity", `Slow, test_device_adapter_capacity_tracks_shrinkage);
    ("device grace keeps data readable", `Slow,
     test_device_grace_keeps_data_readable);
    ("device grace emergency override", `Slow,
     test_device_grace_emergency_override);
    ("mdisk record I/O matches id I/O", `Slow,
     test_mdisk_record_io_matches_id_io);
    ("retire worn pages matches list order", `Quick,
     test_retire_worn_pages_matches_list_order);
    ("events queue fifo order", `Quick, test_events_queue_fifo_order);
    ("events queue drain empties", `Quick, test_events_queue_drain_empties);
    ("events queue interleaved", `Quick, test_events_queue_interleaved);
    QCheck_alcotest.to_alcotest prop_device_invariants;
    QCheck_alcotest.to_alcotest prop_translation_view;
  ]
