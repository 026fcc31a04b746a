(* Tests for the fault-injection engine: plan grammar, injector
   determinism, chip-level fault semantics, and the verdict checker's
   ability to actually catch violations. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 ()

let gentle_model =
  Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()

(* --- Plan ----------------------------------------------------------------- *)

let test_plan_roundtrip () =
  List.iter
    (fun (name, plan) ->
      match Faults.Plan.parse (Faults.Plan.to_string plan) with
      | Ok reparsed ->
          checkb
            (Printf.sprintf "preset %s roundtrips" name)
            true (reparsed = plan)
      | Error msg -> Alcotest.failf "preset %s: %s" name msg)
    Faults.Plan.presets

let test_plan_parse_spec_list () =
  match Faults.Plan.parse "transient=0.1@0.2,corr@40:3,crash@90" with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
      checkb "parsed spec list" true
        (plan
        = [
            Faults.Plan.Transient_flips { per_step = 0.1; extra_rber = 0.2 };
            Faults.Plan.Correlated_failure { at_step = 40; blocks = 3 };
            Faults.Plan.Power_loss { at_step = 90 };
          ])

let test_plan_rejects_garbage () =
  List.iter
    (fun s ->
      match Faults.Plan.parse s with
      | Ok _ -> Alcotest.failf "parse accepted %S" s
      | Error _ -> ())
    [ ""; "bogus"; "transient=2"; "sticky=-0.1"; "corr@-1:3"; "corr@10:0";
      "crash@"; "transient=0.1,junk" ]

(* --- Injector ------------------------------------------------------------- *)

let collect_actions seed steps =
  let inj =
    Faults.Injector.create ~rng:(Sim.Rng.create seed)
      (List.assoc "default" Faults.Plan.presets)
  in
  let actions = ref [] in
  for step = 0 to steps - 1 do
    actions := Faults.Injector.step inj ~geometry ~step :: !actions
  done;
  (List.rev !actions, Faults.Injector.injected inj, Faults.Injector.total inj)

let test_injector_deterministic () =
  let a1, census1, total1 = collect_actions 5 900 in
  let a2, census2, total2 = collect_actions 5 900 in
  checkb "same actions" true (a1 = a2);
  checkb "same census" true (census1 = census2);
  checki "same total" total1 total2;
  let a3, _, _ = collect_actions 6 900 in
  checkb "different seed diverges" true (a1 <> a3)

let test_injector_census_counts_actions () =
  let actions, census, total = collect_actions 9 900 in
  checki "census sums to total" total
    (List.fold_left (fun acc (_, n) -> acc + n) 0 census);
  let flat = List.concat actions in
  (* The default plan schedules one kill and one crash inside 900 steps. *)
  checki "one kill" 1
    (List.length
       (List.filter
          (function Faults.Injector.Kill_device _ -> true | _ -> false)
          flat));
  checki "one crash" 1
    (List.length
       (List.filter
          (function Faults.Injector.Power_cut -> true | _ -> false)
          flat));
  List.iter
    (function
      | Faults.Injector.Inject { block; page; _ } ->
          checkb "block in range" true (block >= 0 && block < 16);
          checkb "page in range" true (page >= 0 && page < 8)
      | _ -> ())
    flat

(* --- Chip fault semantics -------------------------------------------------- *)

let make_chip seed =
  Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry ~model:gentle_model ()

let test_chip_transient_consumed_once () =
  let chip = make_chip 3 in
  let base = Flash.Chip.rber chip ~block:1 ~page:2 in
  Flash.Chip.inject chip ~block:1 ~page:2 (Flash.Chip.Transient_rber 0.25);
  checkb "rber raised" true (Flash.Chip.rber chip ~block:1 ~page:2 > base +. 0.2);
  Alcotest.(check (float 1e-9))
    "take returns the spike" 0.25
    (Flash.Chip.take_transient chip ~block:1 ~page:2);
  Alcotest.(check (float 1e-9))
    "second take sees nothing" 0.
    (Flash.Chip.take_transient chip ~block:1 ~page:2);
  Alcotest.(check (float 1e-9)) "rber back to base" base
    (Flash.Chip.rber chip ~block:1 ~page:2)

let test_chip_sticky_until_erase () =
  let chip = make_chip 4 in
  let base = Flash.Chip.rber chip ~block:2 ~page:0 in
  Flash.Chip.inject chip ~block:2 ~page:0 (Flash.Chip.Sticky_rber 0.5);
  ignore (Flash.Chip.take_transient chip ~block:2 ~page:0);
  checkb "sticky survives take_transient" true
    (Flash.Chip.rber chip ~block:2 ~page:0 > base +. 0.4);
  Alcotest.(check (float 1e-9))
    "sticky_rber reads it" 0.5
    (Flash.Chip.sticky_rber chip ~block:2 ~page:0);
  Flash.Chip.erase chip ~block:2;
  Alcotest.(check (float 1e-9))
    "erase clears it" 0.
    (Flash.Chip.sticky_rber chip ~block:2 ~page:0)

let test_chip_silent_corruption_xor () =
  let chip = make_chip 5 in
  Flash.Chip.program_ints chip ~block:0 ~page:0 ~payloads:[| 10; 20; 30; 40 |]
    ~count:4;
  Flash.Chip.inject chip ~block:0 ~page:0 (Flash.Chip.Silent_corruption 0xFF);
  checki "payload flipped" (10 lxor 0xFF)
    (Flash.Chip.read_slot_int chip ~block:0 ~page:0 ~slot:0);
  (* XOR is an involution: the same mask twice cancels out. *)
  Flash.Chip.inject chip ~block:0 ~page:0 (Flash.Chip.Silent_corruption 0xFF);
  checki "mask cancelled" 20
    (Flash.Chip.read_slot_int chip ~block:0 ~page:0 ~slot:1);
  checki "injections counted" 2 (Flash.Chip.faults_injected chip)

let test_chip_inject_validates () =
  let chip = make_chip 6 in
  Alcotest.check_raises "negative rber rejected"
    (Invalid_argument "Chip.inject: negative transient rber") (fun () ->
      Flash.Chip.inject chip ~block:0 ~page:0 (Flash.Chip.Transient_rber (-1.)));
  Alcotest.check_raises "zero mask rejected"
    (Invalid_argument "Chip.inject: zero corruption mask") (fun () ->
      Flash.Chip.inject chip ~block:0 ~page:0 (Flash.Chip.Silent_corruption 0))

(* --- Verdict -------------------------------------------------------------- *)

let make_engine seed =
  let chip = make_chip seed in
  let policy = Ftl.Policy.always_fresh ~opages_per_fpage:4 in
  Ftl.Engine.create ~chip
    ~rng:(Sim.Rng.create (seed + 1))
    ~policy ~logical_capacity:128 ()

let test_verdict_passes_clean_engine () =
  let engine = make_engine 7 in
  let acked = Hashtbl.create 16 and trimmed = Hashtbl.create 16 in
  for logical = 0 to 40 do
    match Ftl.Engine.write engine ~logical ~payload:(logical * 7) with
    | Ok () -> Hashtbl.replace acked logical (logical * 7)
    | Error `No_space -> Alcotest.fail "no space"
  done;
  Ftl.Engine.discard engine ~logical:3;
  Hashtbl.remove acked 3;
  Hashtbl.replace trimmed 3 ();
  let verdict = Faults.Verdict.check_engine ~engine ~acked ~trimmed in
  checkb
    (Format.asprintf "clean engine passes: %a" Faults.Verdict.pp verdict)
    true
    (Faults.Verdict.all_ok verdict)

let test_verdict_catches_lost_write () =
  let engine = make_engine 8 in
  let acked = Hashtbl.create 4 and trimmed = Hashtbl.create 4 in
  (* Claim an ack the engine never saw: the checker must flag the loss. *)
  Hashtbl.replace acked 5 55;
  checkb "lost write caught" false
    (Faults.Verdict.all_ok (Faults.Verdict.check_engine ~engine ~acked ~trimmed))

let test_verdict_catches_resurrection () =
  let engine = make_engine 9 in
  let acked = Hashtbl.create 4 and trimmed = Hashtbl.create 4 in
  (match Ftl.Engine.write engine ~logical:2 ~payload:9 with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "no space");
  (* Pretend LBA 2 was trimmed: its mapping must read as a resurrection. *)
  Hashtbl.replace trimmed 2 ();
  checkb "resurrection caught" false
    (Faults.Verdict.all_ok (Faults.Verdict.check_engine ~engine ~acked ~trimmed))

let test_monotone_tracker () =
  let m = Faults.Verdict.Monotone.create () in
  checki "no observations, no checks" 0
    (List.length (Faults.Verdict.Monotone.checks m));
  List.iter
    (fun v -> Faults.Verdict.Monotone.observe m ~name:"up" v)
    [ 0; 1; 1; 5 ];
  List.iter
    (fun v -> Faults.Verdict.Monotone.observe m ~name:"down" v)
    [ 3; 2; 2; 4; 1 ];
  match Faults.Verdict.Monotone.checks m with
  | [ down; up ] ->
      checkb "sorted by name" true
        (down.Faults.Verdict.name = "down monotone"
        && up.Faults.Verdict.name = "up monotone");
      checkb "non-decreasing passes" true up.Faults.Verdict.ok;
      checkb "decrease caught" false down.Faults.Verdict.ok;
      checkb "first drop reported" true
        (let detail = down.Faults.Verdict.detail in
         (* two drops: 3 -> 2 and 4 -> 1; the first is named *)
         String.length detail > 0
         && detail = "2 decreases, first 3 -> 2")
  | checks -> Alcotest.failf "expected 2 checks, got %d" (List.length checks)

let suite =
  [
    ("plan presets roundtrip", `Quick, test_plan_roundtrip);
    ("plan parses spec lists", `Quick, test_plan_parse_spec_list);
    ("plan rejects garbage", `Quick, test_plan_rejects_garbage);
    ("injector deterministic", `Quick, test_injector_deterministic);
    ("injector census counts", `Quick, test_injector_census_counts_actions);
    ("chip transient consumed once", `Quick, test_chip_transient_consumed_once);
    ("chip sticky until erase", `Quick, test_chip_sticky_until_erase);
    ("chip silent corruption xor", `Quick, test_chip_silent_corruption_xor);
    ("chip inject validates", `Quick, test_chip_inject_validates);
    ("verdict passes clean engine", `Quick, test_verdict_passes_clean_engine);
    ("verdict catches lost write", `Quick, test_verdict_catches_lost_write);
    ("verdict catches resurrection", `Quick, test_verdict_catches_resurrection);
    ("monotone tracker", `Quick, test_monotone_tracker);
  ]
