(* Tests for the flash substrate: geometry arithmetic, the RBER wear
   model, the chip simulator's physics rules, and the latency model. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf epsilon = Alcotest.check (Alcotest.float epsilon)

let small_geometry =
  Flash.Geometry.create ~pages_per_block:8 ~blocks:4 ()

(* --- Geometry ---------------------------------------------------------- *)

let test_geometry_defaults () =
  let g = small_geometry in
  checki "opage bytes" 4096 g.Flash.Geometry.opage_bytes;
  checki "opages per fpage" 4 g.Flash.Geometry.opages_per_fpage;
  checki "spare" 2048 g.Flash.Geometry.spare_bytes;
  checki "fpage data bytes" 16384 (Flash.Geometry.fpage_data_bytes g);
  checki "fpages" 32 (Flash.Geometry.fpages g);
  checki "total opages" 128 (Flash.Geometry.total_opages g);
  checki "physical bytes" (32 * 16384) (Flash.Geometry.physical_data_bytes g);
  checki "codewords per fpage" 8 (Flash.Geometry.codewords_per_fpage g)

let test_geometry_invalid () =
  Alcotest.check_raises "zero blocks"
    (Invalid_argument "Geometry.create: blocks must be > 0") (fun () ->
      ignore (Flash.Geometry.create ~pages_per_block:4 ~blocks:0 ()))

(* --- RBER model -------------------------------------------------------- *)

let test_rber_monotone_in_pec () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:3000 ()
  in
  let previous = ref 0. in
  List.iter
    (fun pec ->
      let r = Flash.Rber_model.rber model ~pec ~strength:1. in
      checkb (Printf.sprintf "rber grows at pec %d" pec) true (r >= !previous);
      previous := r)
    [ 0; 100; 500; 1000; 2000; 3000; 5000 ]

let test_rber_calibration_point () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:3000 ()
  in
  checkf 1e-12 "hits the target" 3e-3
    (Flash.Rber_model.rber model ~pec:3000 ~strength:1.)

let test_rber_inverse () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:3000 ()
  in
  List.iter
    (fun pec ->
      let r = Flash.Rber_model.rber model ~pec ~strength:1.3 in
      let recovered = Flash.Rber_model.pec_at model ~rber:r ~strength:1.3 in
      checkf 0.5 (Printf.sprintf "inverse at pec %d" pec) (float_of_int pec)
        recovered)
    [ 500; 1500; 3000; 6000 ]

let test_rber_strength_scales () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:3000 ()
  in
  let weak = Flash.Rber_model.rber model ~pec:2000 ~strength:2. in
  let strong = Flash.Rber_model.rber model ~pec:2000 ~strength:0.5 in
  checkb "weak pages err more" true (weak > strong)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [rber] is defined through [wear] and [of_wear]; both must reproduce the
   closed form it had before the split, bit for bit. *)
let prop_rber_split_bit_exact =
  QCheck.Test.make ~count:500 ~name:"rber = of_wear (wear ...) bit for bit"
    QCheck.(
      quad (int_range 1 100_000) (int_range 0 200_000) (int_range 0 1_000_000)
        (pair (float_range (-4.) 3.) (float_range 0. 1e-5)))
    (fun (target_pec, pec, reads, (log_strength, disturb)) ->
      let model =
        Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec
          ~read_disturb_per_read:disturb ()
      in
      let strength = Float.exp log_strength in
      let closed_form =
        1e-6
        +. strength
           *. ((model.Flash.Rber_model.coefficient
               *. Float.pow
                    (float_of_int pec /. model.Flash.Rber_model.pec_scale)
                    3.5)
              +. (model.Flash.Rber_model.read_disturb_per_read
                 *. float_of_int reads))
      in
      let rber = Flash.Rber_model.rber ~reads model ~pec ~strength in
      let split =
        Flash.Rber_model.of_wear model
          ~wear:(Flash.Rber_model.wear model ~pec ~reads)
          ~strength
      in
      same_bits closed_form rber && same_bits rber split)

let test_rber_strength_distribution () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:3000 ()
  in
  let rng = Sim.Rng.create 5 in
  let mean, stddev =
    Test_sim.mean_stddev 10_000 (fun () ->
        log (Flash.Rber_model.sample_strength model rng))
  in
  (* Lognormal with mu=0: log has mean 0, stddev = sigma. *)
  checkf 0.02 "median 1" 0. mean;
  checkf 0.02 "sigma" Flash.Rber_model.strength_sigma stddev

(* --- Chip --------------------------------------------------------------- *)

let make_chip ?(seed = 1) () =
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:100 ()
  in
  Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry:small_geometry ~model
    ()

(* Program [data] into the page's first slots; the rest are reserved. *)
let program chip ~block ~page data =
  Flash.Chip.program_ints chip ~block ~page ~payloads:data
    ~count:(Array.length data)

(* Every slot of a programmed page ([min_int] = reserved). *)
let read_page chip ~block ~page =
  Array.init small_geometry.Flash.Geometry.opages_per_fpage (fun slot ->
      Flash.Chip.read_slot_int chip ~block ~page ~slot)

let test_chip_program_read_roundtrip () =
  let chip = make_chip () in
  (* [count] cuts the scratch array: the trailing 99 is never stored. *)
  Flash.Chip.program_ints chip ~block:0 ~page:3
    ~payloads:[| 11; 22; 44; 99 |] ~count:3;
  Alcotest.(check (array int))
    "slots back" [| 11; 22; 44; min_int |]
    (read_page chip ~block:0 ~page:3);
  checki "slot read" 44 (Flash.Chip.read_slot_int chip ~block:0 ~page:3 ~slot:2);
  checki "ecc slot reads min_int" min_int
    (Flash.Chip.read_slot_int chip ~block:0 ~page:3 ~slot:3);
  Alcotest.check_raises "count beyond the page"
    (Invalid_argument "Chip.program_ints: count out of range") (fun () ->
      Flash.Chip.program_ints chip ~block:0 ~page:4
        ~payloads:[| 1; 2; 3; 4; 5 |] ~count:5);
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Chip.read_slot_int: slot out of range") (fun () ->
      ignore (Flash.Chip.read_slot_int chip ~block:0 ~page:3 ~slot:4))

let test_chip_program_once () =
  let chip = make_chip () in
  let contents = [| 1; 2; 3; 4 |] in
  program chip ~block:1 ~page:0 contents;
  Alcotest.check_raises "double program"
    (Invalid_argument "Chip.program_ints: page already programmed (erase first)")
    (fun () -> program chip ~block:1 ~page:0 contents)

let test_chip_erase_frees_and_wears () =
  let chip = make_chip () in
  let contents = [| 1; 2; 3; 4 |] in
  program chip ~block:2 ~page:5 contents;
  checki "pec 0" 0 (Flash.Chip.pec chip ~block:2);
  Flash.Chip.erase chip ~block:2;
  checki "pec 1" 1 (Flash.Chip.pec chip ~block:2);
  checkb "page free again" true (Flash.Chip.is_free chip ~block:2 ~page:5);
  (* reprogram allowed *)
  program chip ~block:2 ~page:5 contents

let test_chip_pec_min_incremental () =
  (* The incrementally maintained fleet minimum must equal a brute-force
     recount after every erase, under a skewed random erase pattern. *)
  let rng = Sim.Rng.create 31 in
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1000 ()
  in
  let chip = Flash.Chip.create ~rng ~geometry:small_geometry ~model () in
  let blocks = small_geometry.Flash.Geometry.blocks in
  checki "fresh min" 0 (Flash.Chip.pec_min chip);
  for step = 1 to 500 do
    (* squaring skews toward low blocks so some blocks lag far behind *)
    let r = Sim.Rng.int rng (blocks * blocks) in
    let block = r * r / (blocks * blocks * blocks) mod blocks in
    Flash.Chip.erase chip ~block;
    let brute = ref max_int in
    for b = 0 to blocks - 1 do
      brute := Stdlib.min !brute (Flash.Chip.pec chip ~block:b)
    done;
    checki (Printf.sprintf "pec_min at step %d" step) !brute
      (Flash.Chip.pec_min chip)
  done

let test_chip_rber_tracks_wear () =
  let chip = make_chip () in
  let before = Flash.Chip.rber chip ~block:0 ~page:0 in
  for _ = 1 to 50 do
    Flash.Chip.erase chip ~block:0
  done;
  let after = Flash.Chip.rber chip ~block:0 ~page:0 in
  checkb "wear raises rber" true (after > before);
  checkf 1e-15 "lookahead equals rber at pec+1"
    (Flash.Rber_model.rber (Flash.Chip.model chip) ~pec:51
       ~strength:(Flash.Chip.strength chip ~block:0 ~page:0))
    (Flash.Chip.rber_after_next_erase chip ~block:0 ~page:0)

let test_chip_page_variance () =
  let chip = make_chip () in
  (* Two different pages should essentially never share a strength. *)
  let s1 = Flash.Chip.strength chip ~block:0 ~page:0 in
  let s2 = Flash.Chip.strength chip ~block:0 ~page:1 in
  checkb "distinct strengths" true (s1 <> s2)

let test_chip_counters () =
  let chip = make_chip () in
  program chip ~block:0 ~page:0 [| 1 |];
  ignore (Flash.Chip.read_slot_int chip ~block:0 ~page:0 ~slot:0);
  Flash.Chip.erase chip ~block:0;
  checki "programs" 1 (Flash.Chip.programs chip);
  checki "reads" 1 (Flash.Chip.reads chip);
  checki "erases" 1 (Flash.Chip.erases chip)

let test_chip_bounds () =
  let chip = make_chip () in
  Alcotest.check_raises "block range" (Invalid_argument "Chip: block out of range")
    (fun () -> ignore (Flash.Chip.pec chip ~block:99));
  Alcotest.check_raises "page range" (Invalid_argument "Chip: page out of range")
    (fun () -> ignore (Flash.Chip.rber chip ~block:0 ~page:99))

(* --- Read disturb -------------------------------------------------------- *)

let disturb_model =
  Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:100
    ~read_disturb_per_read:1e-5 ()

let test_read_disturb_accumulates () =
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 2) ~geometry:small_geometry
      ~model:disturb_model ()
  in
  program chip ~block:0 ~page:0 [| 1; 2; 3; 4 |];
  let before = Flash.Chip.rber chip ~block:0 ~page:0 in
  for _ = 1 to 1000 do
    ignore (Flash.Chip.read_slot_int chip ~block:0 ~page:0 ~slot:0)
  done;
  checki "reads counted" 1000 (Flash.Chip.reads_since_erase chip ~block:0 ~page:0);
  let after = Flash.Chip.rber chip ~block:0 ~page:0 in
  checkb "disturb raised rber" true (after > before);
  (* disturb scales with the page strength times the coefficient *)
  let strength = Flash.Chip.strength chip ~block:0 ~page:0 in
  checkf 1e-12 "disturb magnitude" (strength *. 1e-5 *. 1000.) (after -. before)

let test_read_disturb_cleared_by_erase () =
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 3) ~geometry:small_geometry
      ~model:disturb_model ()
  in
  program chip ~block:1 ~page:0 [| 1 |];
  for _ = 1 to 500 do
    ignore (Flash.Chip.read_slot_int chip ~block:1 ~page:0 ~slot:0)
  done;
  Flash.Chip.erase chip ~block:1;
  checki "counter reset" 0 (Flash.Chip.reads_since_erase chip ~block:1 ~page:0);
  (* lookahead rber never includes disturb *)
  checkf 1e-15 "lookahead is wear-only"
    (Flash.Rber_model.rber (Flash.Chip.model chip) ~pec:2
       ~strength:(Flash.Chip.strength chip ~block:1 ~page:0))
    (Flash.Chip.rber_after_next_erase chip ~block:1 ~page:0)

(* An erase hook reads every page of the block it just erased through
   [erased_rber] with one shared [erased_wear]; that must be [rber] bit
   for bit, whatever the other blocks' reads, programs and faults, and
   whatever faults the erased block carried before its erase. *)
let prop_erased_rber_bit_exact =
  QCheck.Test.make ~count:60 ~name:"erased_rber = rber after an erase"
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 60) (int_range 0 999)))
    (fun (seed, ops) ->
      let chip =
        Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry:small_geometry
          ~model:disturb_model ()
      in
      let blocks = small_geometry.Flash.Geometry.blocks in
      let pages = small_geometry.Flash.Geometry.pages_per_block in
      List.for_all
        (fun op ->
          let block = op mod blocks and page = op / blocks mod pages in
          (* churn every block: programs, reads and faults *)
          for b = 0 to blocks - 1 do
            if Flash.Chip.is_free chip ~block:b ~page then
              program chip ~block:b ~page [| op + 1 |];
            for _ = 0 to op mod 5 do
              ignore (Flash.Chip.read_slot_int chip ~block:b ~page ~slot:0)
            done;
            (match op mod 3 with
            | 0 -> Flash.Chip.inject chip ~block:b ~page (Flash.Chip.Transient_rber 1e-4)
            | 1 -> Flash.Chip.inject chip ~block:b ~page (Flash.Chip.Sticky_rber 2e-4)
            | _ ->
                Flash.Chip.inject chip ~block:b ~page
                  (Flash.Chip.Silent_corruption (op + 1)))
          done;
          Flash.Chip.erase chip ~block;
          let wear = Flash.Chip.erased_wear chip ~block in
          List.for_all
            (fun page ->
              same_bits
                (Flash.Chip.rber chip ~block ~page)
                (Flash.Chip.erased_rber chip ~wear ~block ~page))
            (List.init pages Fun.id))
        ops)

(* --- packed representation edge cases ----------------------------------- *)

let test_chip_reserved_payload_rejected () =
  (* The packed payload array reserves [min_int] as its None sentinel, so
     programming it must be refused before any slot is written. *)
  let chip = make_chip () in
  Alcotest.check_raises "min_int payload"
    (Invalid_argument "Chip.program_ints: payload min_int is reserved")
    (fun () -> program chip ~block:0 ~page:0 [| min_int |]);
  checkb "page still free after rejection" true
    (Flash.Chip.is_free chip ~block:0 ~page:0);
  (* Extreme but legal payloads survive the packed roundtrip. *)
  program chip ~block:0 ~page:1 [| max_int; min_int + 1; 0 |];
  checki "max_int roundtrips" max_int
    (Flash.Chip.read_slot_int chip ~block:0 ~page:1 ~slot:0);
  checki "min_int+1 roundtrips" (min_int + 1)
    (Flash.Chip.read_slot_int chip ~block:0 ~page:1 ~slot:1)

let test_chip_stale_payloads_hidden_after_erase () =
  (* Erase flips the programmed bit but leaves old payload words in place;
     the page must read as free, and a re-program must fully replace
     them. *)
  let chip = make_chip () in
  program chip ~block:1 ~page:2 [| 7; 8; 9 |];
  Flash.Chip.erase chip ~block:1;
  checkb "erased page is free" true (Flash.Chip.is_free chip ~block:1 ~page:2);
  Alcotest.check_raises "slot read on erased page rejected"
    (Invalid_argument "Chip.read_slot_int: page is erased") (fun () ->
      ignore (Flash.Chip.read_slot_int chip ~block:1 ~page:2 ~slot:0));
  program chip ~block:1 ~page:2 [| 5 |];
  Alcotest.(check (array int))
    "old slots fully replaced" [| 5; min_int; min_int; min_int |]
    (read_page chip ~block:1 ~page:2)

let test_chip_faults_cleared_by_erase () =
  (* Injected faults live in a sparse side table keyed by flat page index;
     erasing the block must drop the whole cell, not just one field. *)
  let chip = make_chip () in
  program chip ~block:3 ~page:0 [| 1 |];
  Flash.Chip.inject chip ~block:3 ~page:0 (Flash.Chip.Transient_rber 0.1);
  Flash.Chip.inject chip ~block:3 ~page:0 (Flash.Chip.Sticky_rber 0.2);
  Flash.Chip.inject chip ~block:3 ~page:0 (Flash.Chip.Silent_corruption 0b101);
  checki "three injections counted" 3 (Flash.Chip.faults_injected chip);
  checkf 1e-12 "sticky visible" 0.2
    (Flash.Chip.sticky_rber chip ~block:3 ~page:0);
  checki "corruption flips payload bits" 4
    (Flash.Chip.read_slot_int chip ~block:3 ~page:0 ~slot:0);
  checki "reserved slot stays reserved under corruption" min_int
    (Flash.Chip.read_slot_int chip ~block:3 ~page:0 ~slot:1);
  Flash.Chip.erase chip ~block:3;
  checkf 1e-12 "sticky gone after erase" 0.
    (Flash.Chip.sticky_rber chip ~block:3 ~page:0);
  checkf 1e-12 "transient gone after erase" 0.
    (Flash.Chip.take_transient chip ~block:3 ~page:0);
  program chip ~block:3 ~page:0 [| 1 |];
  checki "corruption gone after erase" 1
    (Flash.Chip.read_slot_int chip ~block:3 ~page:0 ~slot:0);
  checki "injection counter survives erase" 3
    (Flash.Chip.faults_injected chip)

(* --- chip vs. a plain reference model --------------------------------------- *)

(* The chip finds a page's faults through a per-fPage bit and its wear
   through a per-block cache.  The reference below keeps neither: every
   fPage's reads, programmed flag and payloads in plain arrays, every
   fault cell in a [Hashtbl] that is never pruned, and the RBER from
   [Rber_model.rber] at the block's P/E count.  Random programs, reads,
   injections (all three classes), transient takes and erases must leave
   both agreeing on every page, bit for bit. *)

type chip_op =
  | Op_program of int * int * int  (* block, page, payload seed *)
  | Op_read of int * int * int  (* block, page, slot *)
  | Op_inject of int * int * int * int  (* block, page, class, magnitude *)
  | Op_take of int * int
  | Op_erase of int

let pp_chip_op = function
  | Op_program (b, p, v) -> Printf.sprintf "program %d/%d #%d" b p v
  | Op_read (b, p, s) -> Printf.sprintf "read %d/%d.%d" b p s
  | Op_inject (b, p, c, m) -> Printf.sprintf "inject %d/%d class %d x%d" b p c m
  | Op_take (b, p) -> Printf.sprintf "take %d/%d" b p
  | Op_erase b -> Printf.sprintf "erase %d" b

let chip_op_gen =
  let open QCheck.Gen in
  let blocks = small_geometry.Flash.Geometry.blocks in
  let pages = small_geometry.Flash.Geometry.pages_per_block in
  let opages = small_geometry.Flash.Geometry.opages_per_fpage in
  let block = int_bound (blocks - 1) and page = int_bound (pages - 1) in
  frequency
    [
      (4, map3 (fun b p v -> Op_program (b, p, v)) block page (int_bound 999));
      ( 6,
        map3
          (fun b p s -> Op_read (b, p, s))
          block page
          (int_bound (opages - 1)) );
      ( 4,
        map3
          (fun (b, p) c m -> Op_inject (b, p, c, m))
          (pair block page) (int_bound 2) (int_bound 3) );
      (2, map2 (fun b p -> Op_take (b, p)) block page);
      (1, map (fun b -> Op_erase b) block);
    ]

type ref_fault = {
  mutable r_transient : float;
  mutable r_sticky : float;
  mutable r_corrupt : int;
}

let prop_chip_matches_reference =
  QCheck.Test.make ~count:200 ~name:"chip = plain reference model, bit for bit"
    QCheck.(
      pair small_int
        (make
           ~print:(fun ops -> String.concat "; " (List.map pp_chip_op ops))
           Gen.(list_size (int_range 1 300) chip_op_gen)))
    (fun (seed, ops) ->
      let g = small_geometry in
      let ppb = g.Flash.Geometry.pages_per_block in
      let opages = g.Flash.Geometry.opages_per_fpage in
      let fpages = Flash.Geometry.fpages g in
      let chip =
        Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry:g
          ~model:disturb_model ()
      in
      let pecs = Array.make g.Flash.Geometry.blocks 0 in
      let programmed = Array.make fpages false in
      let reads = Array.make fpages 0 in
      let payloads = Array.make (fpages * opages) min_int in
      let faults = Hashtbl.create 8 in
      let cell fp =
        match Hashtbl.find_opt faults fp with
        | Some c -> c
        | None ->
            let c = { r_transient = 0.; r_sticky = 0.; r_corrupt = 0 } in
            Hashtbl.replace faults fp c;
            c
      in
      let agrees ~block ~page =
        let fp = (block * ppb) + page in
        let c = cell fp in
        let expected_rber =
          Flash.Rber_model.rber ~reads:reads.(fp) disturb_model
            ~pec:pecs.(block)
            ~strength:(Flash.Chip.strength chip ~block ~page)
          +. c.r_transient +. c.r_sticky
        in
        same_bits (Flash.Chip.rber chip ~block ~page) expected_rber
        && same_bits (Flash.Chip.sticky_rber chip ~block ~page) c.r_sticky
        && Flash.Chip.reads_since_erase chip ~block ~page = reads.(fp)
        && Flash.Chip.is_free chip ~block ~page = not programmed.(fp)
      in
      let step = function
        | Op_program (block, page, v) ->
            let fp = (block * ppb) + page in
            if programmed.(fp) then true
            else begin
              let count = 1 + (v mod opages) in
              let data = Array.init count (fun i -> (v * 7) + i) in
              program chip ~block ~page data;
              programmed.(fp) <- true;
              for i = 0 to opages - 1 do
                payloads.((fp * opages) + i) <-
                  (if i < count then data.(i) else min_int)
              done;
              true
            end
        | Op_read (block, page, slot) ->
            let fp = (block * ppb) + page in
            if not programmed.(fp) then true
            else begin
              reads.(fp) <- reads.(fp) + 1;
              let stored = payloads.((fp * opages) + slot) in
              let expected =
                if stored = min_int then min_int
                else stored lxor (cell fp).r_corrupt
              in
              Flash.Chip.read_slot_int chip ~block ~page ~slot = expected
            end
        | Op_inject (block, page, cls, m) ->
            let c = cell ((block * ppb) + page) in
            (match cls with
            | 0 ->
                let extra = float_of_int m *. 1e-4 in
                Flash.Chip.inject chip ~block ~page
                  (Flash.Chip.Transient_rber extra);
                c.r_transient <- c.r_transient +. extra
            | 1 ->
                let extra = float_of_int m *. 3e-4 in
                Flash.Chip.inject chip ~block ~page
                  (Flash.Chip.Sticky_rber extra);
                c.r_sticky <- c.r_sticky +. extra
            | _ ->
                (* a mask injected twice cancels, clearing the page *)
                let mask = 1 lsl m in
                Flash.Chip.inject chip ~block ~page
                  (Flash.Chip.Silent_corruption mask);
                c.r_corrupt <- c.r_corrupt lxor mask);
            true
        | Op_take (block, page) ->
            let c = cell ((block * ppb) + page) in
            let expected = c.r_transient in
            c.r_transient <- 0.;
            same_bits (Flash.Chip.take_transient chip ~block ~page) expected
        | Op_erase block ->
            Flash.Chip.erase chip ~block;
            pecs.(block) <- pecs.(block) + 1;
            for fp = block * ppb to ((block + 1) * ppb) - 1 do
              programmed.(fp) <- false;
              reads.(fp) <- 0;
              Hashtbl.remove faults fp
            done;
            same_bits
              (Flash.Chip.erased_wear chip ~block)
              (Flash.Rber_model.wear disturb_model ~pec:pecs.(block) ~reads:0)
      in
      let everywhere () =
        List.for_all
          (fun fp -> agrees ~block:(fp / ppb) ~page:(fp mod ppb))
          (List.init fpages Fun.id)
      in
      List.for_all (fun op -> step op && everywhere ()) ops)

let test_read_disturb_off_by_default () =
  let model = Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:100 () in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 4) ~geometry:small_geometry ~model ()
  in
  program chip ~block:0 ~page:0 [| 1 |];
  let before = Flash.Chip.rber chip ~block:0 ~page:0 in
  for _ = 1 to 1000 do
    ignore (Flash.Chip.read_slot_int chip ~block:0 ~page:0 ~slot:0)
  done;
  checkf 0. "no disturb by default" before (Flash.Chip.rber chip ~block:0 ~page:0)

(* --- Latency ------------------------------------------------------------ *)

let test_latency_retries_grow_with_margin () =
  checki "fresh page no retries" 0 (Flash.Latency.expected_retries ~margin:0.1);
  checki "half margin" 1 (Flash.Latency.expected_retries ~margin:0.7);
  checki "near threshold" 1 (Flash.Latency.expected_retries ~margin:0.99);
  checkb "beyond threshold retries more" true
    (Flash.Latency.expected_retries ~margin:1.4 >= 2);
  checki "capped" 4 (Flash.Latency.expected_retries ~margin:99.)

let test_latency_read_composition () =
  let l = Flash.Latency.default in
  let base =
    Flash.Latency.fpage_read_us l ~data_kib:16. ~raw_errors:0. ~retries:0
  in
  let retried =
    Flash.Latency.fpage_read_us l ~data_kib:16. ~raw_errors:0. ~retries:2
  in
  checkf 1e-9 "two retries add 2x retry_us" (2. *. l.Flash.Latency.retry_us)
    (retried -. base);
  let small =
    Flash.Latency.fpage_read_us l ~data_kib:4. ~raw_errors:0. ~retries:0
  in
  checkb "less data transfers faster" true (small < base)

(* --- Service (queueing) --------------------------------------------------- *)

let service_fixture () =
  let engine = Sim.Engine.create () in
  let service =
    Flash.Service.create ~engine
      { Flash.Service.default_config with Flash.Service.channels = 2;
        dies_per_channel = 2 }
  in
  (engine, service)

let page ~die ~sense ~transfer =
  { Flash.Service.die_hint = die; sense_us = sense; transfer_us = transfer }

let test_service_single_page_latency () =
  let engine, service = service_fixture () in
  let observed = ref nan in
  Flash.Service.submit service
    ~pages:[ page ~die:0 ~sense:60. ~transfer:4. ]
    ~on_complete:(fun ~latency_us -> observed := latency_us);
  Sim.Engine.run engine;
  checkf 1e-9 "sense + transfer" 64. !observed

let test_service_same_die_serializes () =
  let engine, service = service_fixture () in
  let observed = ref nan in
  (* two pages on one die: second sense waits for the first *)
  Flash.Service.submit service
    ~pages:[ page ~die:0 ~sense:60. ~transfer:4.;
             page ~die:0 ~sense:60. ~transfer:4. ]
    ~on_complete:(fun ~latency_us -> observed := latency_us);
  Sim.Engine.run engine;
  checkf 1e-9 "serialized senses" 124. !observed

let test_service_different_dies_overlap () =
  let engine, service = service_fixture () in
  let observed = ref nan in
  (* dies 0 and 2 sit on different channels: full overlap *)
  Flash.Service.submit service
    ~pages:[ page ~die:0 ~sense:60. ~transfer:4.;
             page ~die:2 ~sense:60. ~transfer:4. ]
    ~on_complete:(fun ~latency_us -> observed := latency_us);
  Sim.Engine.run engine;
  checkf 1e-9 "parallel senses" 64. !observed

let test_service_channel_contention () =
  let engine, service = service_fixture () in
  let observed = ref nan in
  (* dies 0 and 1 share channel 0: senses overlap, transfers serialize *)
  Flash.Service.submit service
    ~pages:[ page ~die:0 ~sense:60. ~transfer:4.;
             page ~die:1 ~sense:60. ~transfer:4. ]
    ~on_complete:(fun ~latency_us -> observed := latency_us);
  Sim.Engine.run engine;
  checkf 1e-9 "transfers share the channel" 68. !observed

let test_service_closed_loop_throughput () =
  (* With 4 dies and QD 4, four independent single-page requests complete
     in one sense time each, fully overlapped. *)
  let engine, service = service_fixture () in
  let completed = ref 0 in
  for die = 0 to 3 do
    Flash.Service.submit service
      ~pages:[ page ~die ~sense:60. ~transfer:1. ]
      ~on_complete:(fun ~latency_us:_ -> incr completed)
  done;
  Sim.Engine.run engine;
  checki "all done" 4 !completed;
  (* dies on channel 0 finish at 61 and 62; clock ends at the last one *)
  checkb "overlapped" true (Sim.Engine.now engine < 70.);
  checkb "die was busy" true (Flash.Service.busy_fraction service ~die:0 > 0.5)

let test_service_empty_request () =
  let _, service = service_fixture () in
  Alcotest.check_raises "empty" (Invalid_argument "Service.submit: empty request")
    (fun () ->
      Flash.Service.submit service ~pages:[]
        ~on_complete:(fun ~latency_us:_ -> ()))

let suite =
  [
    ("geometry defaults", `Quick, test_geometry_defaults);
    ("geometry invalid", `Quick, test_geometry_invalid);
    ("rber monotone in pec", `Quick, test_rber_monotone_in_pec);
    ("rber calibration point", `Quick, test_rber_calibration_point);
    ("rber inverse", `Quick, test_rber_inverse);
    ("rber strength scales", `Quick, test_rber_strength_scales);
    ("rber strength distribution", `Slow, test_rber_strength_distribution);
    QCheck_alcotest.to_alcotest prop_rber_split_bit_exact;
    ("chip program/read roundtrip", `Quick, test_chip_program_read_roundtrip);
    ("chip program once", `Quick, test_chip_program_once);
    ("chip erase frees and wears", `Quick, test_chip_erase_frees_and_wears);
    ("chip pec_min incremental", `Quick, test_chip_pec_min_incremental);
    ("chip rber tracks wear", `Quick, test_chip_rber_tracks_wear);
    ("chip page variance", `Quick, test_chip_page_variance);
    ("chip counters", `Quick, test_chip_counters);
    ("chip bounds", `Quick, test_chip_bounds);
    ("read disturb accumulates", `Quick, test_read_disturb_accumulates);
    ("read disturb cleared by erase", `Quick, test_read_disturb_cleared_by_erase);
    ("read disturb off by default", `Quick, test_read_disturb_off_by_default);
    QCheck_alcotest.to_alcotest prop_erased_rber_bit_exact;
    QCheck_alcotest.to_alcotest prop_chip_matches_reference;
    ("chip reserved payload rejected", `Quick,
     test_chip_reserved_payload_rejected);
    ("chip stale payloads hidden after erase", `Quick,
     test_chip_stale_payloads_hidden_after_erase);
    ("chip faults cleared by erase", `Quick, test_chip_faults_cleared_by_erase);
    ("latency retries grow", `Quick, test_latency_retries_grow_with_margin);
    ("latency read composition", `Quick, test_latency_read_composition);
    ("service single page latency", `Quick, test_service_single_page_latency);
    ("service same die serializes", `Quick, test_service_same_die_serializes);
    ("service different dies overlap", `Quick,
     test_service_different_dies_overlap);
    ("service channel contention", `Quick, test_service_channel_contention);
    ("service closed loop", `Quick, test_service_closed_loop_throughput);
    ("service empty request", `Quick, test_service_empty_request);
  ]
