(* Tests for the FTL layer: mapping invariants, the write buffer, the
   engine's read-your-writes behaviour under GC pressure, and the
   baseline/CVSS devices' end-of-life behaviour. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 ()
(* 16 blocks x 8 fPages x 4 oPages = 512 oPage slots *)

let gentle_model =
  (* Effectively wear-free across a test's horizon. *)
  Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()

let fast_model =
  (* Pages tire after a few dozen cycles: accelerated aging for
     end-of-life tests. *)
  Flash.Rber_model.calibrate ~target_rber:6e-3 ~target_pec:40 ()

(* --- Mapping ------------------------------------------------------------ *)

module Mapping_exposed = struct
  let create () = Ftl.Mapping.create ~geometry ~logical_opages:64

  let flat { Ftl.Location.block; page; slot } =
    (((block * geometry.Flash.Geometry.pages_per_block) + page)
     * geometry.Flash.Geometry.opages_per_fpage)
    + slot

  let bind m ~logical loc = Ftl.Mapping.bind_flat m ~logical (flat loc)

  (* Reverse direction: the logical live in a slot, read through the
     page walk GC relocation uses. *)
  let owner m { Ftl.Location.block; page; slot } =
    List.assoc_opt slot (Ftl.Mapping.live_slots_in_page m ~block ~page)
end

let test_mapping_bind_find () =
  let m = Mapping_exposed.create () in
  let loc = { Ftl.Location.block = 1; page = 2; slot = 3 } in
  Mapping_exposed.bind m ~logical:7 loc;
  (match Ftl.Mapping.find m 7 with
  | Some l -> checkb "found" true (Ftl.Location.equal l loc)
  | None -> Alcotest.fail "mapping lost");
  checki "flat lookup" (Mapping_exposed.flat loc) (Ftl.Mapping.find_flat m 7);
  checki "unmapped flat lookup" (-1) (Ftl.Mapping.find_flat m 8);
  Alcotest.(check (option int)) "reverse" (Some 7) (Mapping_exposed.owner m loc);
  checki "mapped count" 1 (Ftl.Mapping.mapped_count m);
  checki "valid in block" 1 (Ftl.Mapping.valid_in_block m ~block:1)

let test_mapping_rebind_invalidates_old () =
  let m = Mapping_exposed.create () in
  let old_loc = { Ftl.Location.block = 0; page = 0; slot = 0 } in
  let new_loc = { Ftl.Location.block = 1; page = 1; slot = 1 } in
  Mapping_exposed.bind m ~logical:3 old_loc;
  Mapping_exposed.bind m ~logical:3 new_loc;
  Alcotest.(check (option int)) "old slot stale" None (Mapping_exposed.owner m old_loc);
  checki "old block emptied" 0 (Ftl.Mapping.valid_in_block m ~block:0);
  checki "still one mapping" 1 (Ftl.Mapping.mapped_count m)

let test_mapping_slot_stealing () =
  let m = Mapping_exposed.create () in
  let loc = { Ftl.Location.block = 2; page = 3; slot = 1 } in
  Mapping_exposed.bind m ~logical:10 loc;
  Mapping_exposed.bind m ~logical:11 loc;
  (* stealing the slot unmaps the previous owner *)
  Alcotest.(check (option int)) "new owner" (Some 11) (Mapping_exposed.owner m loc);
  checkb "old logical unmapped" true (Ftl.Mapping.find m 10 = None);
  checki "one mapping" 1 (Ftl.Mapping.mapped_count m)

let test_mapping_unbind () =
  let m = Mapping_exposed.create () in
  let loc = { Ftl.Location.block = 0; page = 1; slot = 2 } in
  Mapping_exposed.bind m ~logical:5 loc;
  Ftl.Mapping.unbind_logical m 5;
  checkb "gone" true (Ftl.Mapping.find m 5 = None);
  Alcotest.(check (option int)) "slot stale" None (Mapping_exposed.owner m loc);
  checki "none mapped" 0 (Ftl.Mapping.mapped_count m);
  (* double unbind is a no-op *)
  Ftl.Mapping.unbind_logical m 5

(* Property: after arbitrary bind/unbind sequences forward and reverse
   directions agree and the per-block valid counters are exact. *)
let prop_mapping_consistency =
  QCheck.Test.make ~count:100 ~name:"mapping forward/reverse consistency"
    QCheck.(list (pair (int_range 0 63) (triple (int_range 0 15) (int_range 0 7) (int_range 0 3))))
    (fun ops ->
      let m = Mapping_exposed.create () in
      List.iter
        (fun (logical, (block, page, slot)) ->
          if logical mod 7 = 0 then Ftl.Mapping.unbind_logical m logical
          else Mapping_exposed.bind m ~logical { Ftl.Location.block; page; slot })
        ops;
      (* forward -> reverse agreement *)
      let consistent = ref true in
      let count = ref 0 in
      for logical = 0 to 63 do
        match Ftl.Mapping.find m logical with
        | None -> ()
        | Some loc ->
            incr count;
            if Mapping_exposed.owner m loc <> Some logical then consistent := false
      done;
      (* reverse -> forward agreement *)
      for block = 0 to 15 do
        Ftl.Mapping.iter_block m ~block (fun ~page ~slot ~logical ->
            if
              Ftl.Mapping.find_flat m logical
              <> Mapping_exposed.flat { Ftl.Location.block; page; slot }
            then consistent := false)
      done;
      (* counters *)
      let by_block = Array.make 16 0 in
      for logical = 0 to 63 do
        match Ftl.Mapping.find m logical with
        | Some { Ftl.Location.block; _ } ->
            by_block.(block) <- by_block.(block) + 1
        | None -> ()
      done;
      let counters_ok = ref true in
      Array.iteri
        (fun block expected ->
          if Ftl.Mapping.valid_in_block m ~block <> expected then
            counters_ok := false)
        by_block;
      !consistent && !counters_ok
      && Ftl.Mapping.mapped_count m = !count)

(* --- Write buffer ------------------------------------------------------- *)

let test_buffer_dedupe () =
  let b = Ftl.Write_buffer.create () in
  Ftl.Write_buffer.put b ~logical:1 ~payload:10;
  Ftl.Write_buffer.put b ~logical:1 ~payload:20;
  checki "one entry" 1 (Ftl.Write_buffer.length b);
  Alcotest.(check (option int)) "latest payload" (Some 20)
    (Ftl.Write_buffer.payload_of b 1)

(* [pop_into] as a [(logical, payload)] list, through fresh scratch
   arrays the size of the request. *)
let pop b n =
  let logicals = Array.make n 0 and payloads = Array.make n 0 in
  let k = Ftl.Write_buffer.pop_into b ~logicals ~payloads n in
  List.init k (fun i -> (logicals.(i), payloads.(i)))

let test_buffer_pop_order () =
  let b = Ftl.Write_buffer.create () in
  Ftl.Write_buffer.put b ~logical:1 ~payload:10;
  Ftl.Write_buffer.put b ~logical:2 ~payload:20;
  Ftl.Write_buffer.put b ~logical:3 ~payload:30;
  Alcotest.(check (list (pair int int)))
    "first two in order"
    [ (1, 10); (2, 20) ]
    (pop b 2);
  checki "one left" 1 (Ftl.Write_buffer.length b)

let test_buffer_drop_then_rewrite () =
  let b = Ftl.Write_buffer.create () in
  Ftl.Write_buffer.put b ~logical:1 ~payload:10;
  Ftl.Write_buffer.drop b 1;
  checkb "empty" true (Ftl.Write_buffer.is_empty b);
  Ftl.Write_buffer.put b ~logical:1 ~payload:30;
  Alcotest.(check (list (pair int int))) "stale entry skipped" [ (1, 30) ]
    (pop b 5);
  checkb "drained" true (Ftl.Write_buffer.is_empty b)

(* --- Engine -------------------------------------------------------------- *)

(* --- incremental accounting structures --------------------------------- *)

let test_intheap_sorted_pops () =
  let h = Ftl.Intheap.create () in
  let rng = Sim.Rng.create 77 in
  let pushed = List.init 500 (fun _ -> Sim.Rng.int rng 10_000) in
  List.iter (Ftl.Intheap.push h) pushed;
  let rec drain acc =
    match Ftl.Intheap.pop h with
    | None -> List.rev acc
    | Some v -> drain (v :: acc)
  in
  let popped = drain [] in
  Alcotest.(check (list int))
    "pops come out sorted" (List.sort compare pushed) popped;
  checkb "empty after drain" true (Ftl.Intheap.is_empty h)

(* The engine's cached per-block capacities, maintained total and
   free-block heap must agree with a brute-force recount at any point
   of a churny life that includes level bumps (capacity shrinking at erase
   time, like the Salamander policy does). *)
let test_incremental_accounting_matches_brute_force () =
  let pages = geometry.Flash.Geometry.pages_per_block in
  let blocks = geometry.Flash.Geometry.blocks in
  let levels = Array.make (blocks * pages) 0 in
  let page_index ~block ~page = (block * pages) + page in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 71) ~geometry ~model:gentle_model ()
  in
  let policy =
    {
      Ftl.Policy.data_slots =
        (fun ~block ~page -> Stdlib.max 0 (4 - levels.(page_index ~block ~page)));
      read_fail_prob = (fun ~rber:_ ~block:_ ~page:_ -> 0.);
      should_reclaim = (fun ~rber:_ ~block:_ ~page:_ -> false);
      on_block_erased = (fun ~block:_ -> ());
    }
  in
  let engine =
    Ftl.Engine.create ~chip ~rng:(Sim.Rng.create 72) ~policy
      ~logical_capacity:300 ()
  in
  (* Erase-time tiredness: every third cycle of a block bumps all its
     pages one level, shrinking its capacity — the mutation pattern the
     capacity cache must track through its dirty set. *)
  policy.Ftl.Policy.on_block_erased <-
    (fun ~block ->
      if Flash.Chip.pec chip ~block mod 3 = 0 then
        for page = 0 to pages - 1 do
          let i = page_index ~block ~page in
          if levels.(i) < 4 then levels.(i) <- levels.(i) + 1
        done);
  let rng = Sim.Rng.create 73 in
  let cross_check step =
    let brute_total = ref 0 in
    let brute_free = ref 0 in
    for block = 0 to blocks - 1 do
      (match Ftl.Engine.block_class engine block with
      | Ftl.Engine.Retired -> ()
      | _ ->
          for page = 0 to pages - 1 do
            brute_total := !brute_total + policy.Ftl.Policy.data_slots ~block ~page
          done);
      if Ftl.Engine.block_class engine block = Ftl.Engine.Free then
        incr brute_free
    done;
    checki
      (Printf.sprintf "total_data_slots matches brute force at step %d" step)
      !brute_total
      (Ftl.Engine.total_data_slots engine);
    checki
      (Printf.sprintf "free_blocks matches classes at step %d" step)
      !brute_free
      (Ftl.Engine.free_blocks engine)
  in
  for step = 1 to 3000 do
    let lba = Sim.Rng.int rng 300 in
    (match Ftl.Engine.write engine ~logical:lba ~payload:step with
    | Ok () -> ()
    | Error `No_space -> ());
    if step mod 7 = 0 then
      Ftl.Engine.discard engine ~logical:(Sim.Rng.int rng 300);
    if step mod 200 = 0 then cross_check step
  done;
  cross_check 3001

(* --- GC victim picks against the fold-based scans ---------------------- *)

(* The victim picks as the engine wrote them when it kept a set of Closed
   blocks: folds over that set in ascending order, keeping the first of
   equal candidates, and a second scan for the highest non-Retired PEC.
   The engine's one-pass picks must return the same block on every
   step. *)
let oracle_gc_victim ~closed ~valid ~capacity =
  List.fold_left
    (fun best block ->
      let v = valid.(block) in
      if v >= capacity.(block) then best
      else
        match best with
        | Some (_, best_valid) when best_valid <= v -> best
        | _ -> Some (block, v))
    None closed
  |> Option.map fst

let oracle_wear_level_victim ~closed ~classes ~pec ~gap =
  let coldest =
    List.fold_left
      (fun best block ->
        let p = pec.(block) in
        match best with
        | Some (_, best_pec) when best_pec <= p -> best
        | _ -> Some (block, p))
      None closed
  in
  match coldest with
  | None -> None
  | Some (block, p) ->
      let max_pec = ref 0 in
      Array.iteri
        (fun b cls ->
          if cls <> Ftl.Engine.Retired then max_pec := Stdlib.max !max_pec pec.(b))
        classes;
      if !max_pec - p > gap then Some block else None

(* Steps on which the histories reached each state the picks must get
   right; every one must be reached at least once. *)
let victim_coverage =
  [| ("tied fewest-valid candidates", ref 0);
     ("closed block with valid = capacity", ref 0);
     ("retired block", ref 0);
     ("wear-level victim", ref 0);
     ("no wear-level victim despite closed blocks", ref 0) |]

let reached i = incr (snd victim_coverage.(i))

let prop_victim_picks_match_scans =
  QCheck.Test.make ~count:30 ~name:"victim picks match the fold-based scans"
    QCheck.(
      quad small_int (int_range 0 12) (int_range 200 380) (int_range 0 3))
    (fun (seed, gap, logical, bump_odds) ->
      let pages = geometry.Flash.Geometry.pages_per_block in
      let blocks = geometry.Flash.Geometry.blocks in
      let levels = Array.make (blocks * pages) 0 in
      let data_slots ~block ~page =
        Stdlib.max 0 (4 - levels.((block * pages) + page))
      in
      let chip =
        Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry
          ~model:gentle_model ()
      in
      let policy =
        {
          Ftl.Policy.data_slots;
          read_fail_prob = (fun ~rber:_ ~block:_ ~page:_ -> 0.);
          should_reclaim = (fun ~rber:_ ~block:_ ~page:_ -> false);
          on_block_erased = (fun ~block:_ -> ());
        }
      in
      let config =
        {
          Ftl.Engine.default_config with
          wear_level_gap = gap;
          wear_level_period = 1 + (seed mod 16);
        }
      in
      let engine =
        Ftl.Engine.create ~config ~chip ~rng:(Sim.Rng.create (seed + 1))
          ~policy ~logical_capacity:logical ()
      in
      let rng = Sim.Rng.create (seed + 2) in
      (* Erase-time tiredness on a random share of erases: capacities
         shrink, some pages die, and whole blocks retire. *)
      policy.Ftl.Policy.on_block_erased <-
        (fun ~block ->
          if Sim.Rng.int rng (1 + bump_odds) = 0 then
            for page = 0 to pages - 1 do
              let i = (block * pages) + page in
              if levels.(i) < 4 && Sim.Rng.bool rng then
                levels.(i) <- levels.(i) + 1
            done);
      let check () =
        let classes = Array.init blocks (Ftl.Engine.block_class engine) in
        let closed =
          List.filter
            (fun b -> classes.(b) = Ftl.Engine.Closed)
            (List.init blocks Fun.id)
        in
        let valid = Array.make blocks 0 in
        List.iter
          (fun (_, { Ftl.Location.block; _ }) ->
            valid.(block) <- valid.(block) + 1)
          (Ftl.Engine.live_entries engine);
        let capacity =
          Array.init blocks (fun block ->
              List.fold_left
                (fun acc page -> acc + data_slots ~block ~page)
                0 (List.init pages Fun.id))
        in
        let pec = Array.init blocks (fun block -> Flash.Chip.pec chip ~block) in
        let eligible = List.filter (fun b -> valid.(b) < capacity.(b)) closed in
        (match List.sort compare (List.map (fun b -> valid.(b)) eligible) with
        | a :: b :: _ when a = b -> reached 0
        | _ -> ());
        if List.length eligible < List.length closed then reached 1;
        if Array.exists (fun c -> c = Ftl.Engine.Retired) classes then reached 2;
        let expected_wear = oracle_wear_level_victim ~closed ~classes ~pec ~gap in
        (match (expected_wear, closed) with
        | Some _, _ -> reached 3
        | None, _ :: _ -> reached 4
        | None, [] -> ());
        Ftl.Engine.gc_victim engine = oracle_gc_victim ~closed ~valid ~capacity
        && Ftl.Engine.wear_level_victim engine = expected_wear
      in
      let hot = Stdlib.max 1 (logical / 8) in
      let rec run step =
        step > 1200
        || begin
             (match Sim.Rng.int rng 8 with
             | 0 -> Ftl.Engine.discard engine ~logical:(Sim.Rng.int rng logical)
             | 1 -> ignore (Ftl.Engine.flush engine)
             | 2 ->
                 (* a cold sequential burst fills blocks with live data *)
                 let base = Sim.Rng.int rng logical in
                 for i = 0 to 31 do
                   ignore
                     (Ftl.Engine.write engine
                        ~logical:((base + i) mod logical)
                        ~payload:step)
                 done
             | _ ->
                 (* a hot set takes most writes, so PECs drift apart *)
                 let target =
                   if Sim.Rng.int rng 4 = 0 then Sim.Rng.int rng logical
                   else Sim.Rng.int rng hot
                 in
                 ignore (Ftl.Engine.write engine ~logical:target ~payload:step));
             check () && run (step + 1)
           end
      in
      check () && run 1)

let test_victim_picks_match_scans () =
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    prop_victim_picks_match_scans;
  Array.iter
    (fun (state, steps) ->
      if !steps = 0 then Alcotest.failf "no history reached: %s" state)
    victim_coverage

let make_engine ?(seed = 1) ?(logical = 256) ?(model = gentle_model) () =
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry ~model ()
  in
  let policy = Ftl.Policy.always_fresh ~opages_per_fpage:4 in
  Ftl.Engine.create ~chip ~rng:(Sim.Rng.create (seed + 1)) ~policy
    ~logical_capacity:logical ()

let test_engine_read_your_writes () =
  let engine = make_engine () in
  for logical = 0 to 99 do
    match Ftl.Engine.write engine ~logical ~payload:(logical * 3) with
    | Ok () -> ()
    | Error `No_space -> Alcotest.fail "unexpected no space"
  done;
  for logical = 0 to 99 do
    match Ftl.Engine.read engine ~logical with
    | Ok payload -> checki "payload" (logical * 3) payload
    | Error _ -> Alcotest.fail "read failed"
  done

let test_engine_unmapped_read () =
  let engine = make_engine () in
  (match Ftl.Engine.read engine ~logical:5 with
  | Error `Unmapped -> ()
  | _ -> Alcotest.fail "expected unmapped");
  Alcotest.check_raises "out of range"
    (Invalid_argument "Engine.read: logical index out of range") (fun () ->
      ignore (Ftl.Engine.read engine ~logical:9999))

let test_engine_overwrite () =
  let engine = make_engine () in
  for round = 1 to 5 do
    for logical = 0 to 49 do
      match Ftl.Engine.write engine ~logical ~payload:((round * 1000) + logical) with
      | Ok () -> ()
      | Error `No_space -> Alcotest.fail "no space"
    done
  done;
  for logical = 0 to 49 do
    match Ftl.Engine.read engine ~logical with
    | Ok payload -> checki "latest round" (5000 + logical) payload
    | Error _ -> Alcotest.fail "read failed"
  done

let test_engine_gc_sustains_overwrites () =
  (* 512 physical slots, 256 logical: heavy overwriting forces many GC
     cycles; data must survive all of them. *)
  let engine = make_engine ~logical:256 () in
  let rng = Sim.Rng.create 77 in
  let shadow = Hashtbl.create 256 in
  for i = 1 to 20_000 do
    let logical = Sim.Rng.int rng 256 in
    (match Ftl.Engine.write engine ~logical ~payload:i with
    | Ok () -> Hashtbl.replace shadow logical i
    | Error `No_space -> Alcotest.fail "no space under 50% utilization");
    ()
  done;
  checkb "GC actually ran" true (Ftl.Engine.gc_runs engine > 0);
  Hashtbl.iter
    (fun logical expected ->
      match Ftl.Engine.read engine ~logical with
      | Ok payload ->
          checki (Printf.sprintf "logical %d" logical) expected payload
      | Error _ -> Alcotest.fail "read failed after GC")
    shadow;
  checkb "write amplification sane" true
    (Ftl.Engine.write_amplification engine >= 0.9)

let test_engine_no_space_when_full () =
  (* Logical space equals physical: after filling everything and
     overwriting, GC cannot reclaim and the engine must say so. *)
  let engine = make_engine ~logical:512 () in
  let result = ref (Ok ()) in
  (try
     for round = 0 to 3 do
       for logical = 0 to 511 do
         match Ftl.Engine.write engine ~logical ~payload:round with
         | Ok () -> ()
         | Error `No_space ->
             result := Error `No_space;
             raise Exit
       done
     done
   with Exit -> ());
  checkb "eventually out of space" true (!result = Error `No_space)

let test_engine_discard_frees_space () =
  let engine = make_engine ~logical:512 () in
  for logical = 0 to 400 do
    match Ftl.Engine.write engine ~logical ~payload:1 with
    | Ok () -> ()
    | Error `No_space -> Alcotest.fail "filling failed"
  done;
  for logical = 0 to 400 do
    Ftl.Engine.discard engine ~logical
  done;
  checkb "discarded unmapped" true
    (Ftl.Engine.read engine ~logical:100 = Error `Unmapped);
  (* All space is reclaimable now; writes keep succeeding. *)
  for logical = 0 to 400 do
    match Ftl.Engine.write engine ~logical ~payload:2 with
    | Ok () -> ()
    | Error `No_space -> Alcotest.fail "space not reclaimed after discard"
  done

let test_engine_flush_makes_buffer_durable () =
  let engine = make_engine () in
  (match Ftl.Engine.write engine ~logical:0 ~payload:42 with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "no space");
  checkb "pending in buffer" true (Ftl.Engine.buffered_opages engine > 0);
  (match Ftl.Engine.flush engine with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "flush failed");
  checki "buffer drained" 0 (Ftl.Engine.buffered_opages engine);
  checkb "mapped to flash" true (Ftl.Engine.mapped_opages engine > 0)

let test_engine_relocate_page () =
  let engine = make_engine () in
  for logical = 0 to 7 do
    ignore (Ftl.Engine.write engine ~logical ~payload:(100 + logical))
  done;
  (match Ftl.Engine.flush engine with Ok () -> () | Error _ -> ());
  (* Find a live location and relocate its whole page. *)
  match Ftl.Engine.live_entries engine with
  | [] -> Alcotest.fail "nothing mapped"
  | (logical, { Ftl.Location.block; page; _ }) :: _ ->
      Ftl.Engine.relocate_page engine ~block ~page;
      (* Data still readable (from buffer), and after a flush it lives
         elsewhere. *)
      (match Ftl.Engine.read engine ~logical with
      | Ok payload -> checki "payload preserved" (100 + logical) payload
      | Error _ -> Alcotest.fail "read after relocate");
      (match Ftl.Engine.flush engine with Ok () -> () | Error _ -> ());
      (match List.assoc_opt logical (Ftl.Engine.live_entries engine) with
      | Some new_loc ->
          checkb "moved off the page" true
            (not (new_loc.Ftl.Location.block = block && new_loc.Ftl.Location.page = page))
      | None -> Alcotest.fail "mapping lost after relocation")

let test_engine_mapped_in_range () =
  let engine = make_engine () in
  for logical = 10 to 19 do
    ignore (Ftl.Engine.write engine ~logical ~payload:0)
  done;
  checki "range count includes buffered" 10
    (Ftl.Engine.mapped_in_range engine ~lo:10 ~len:10);
  checki "empty range" 0 (Ftl.Engine.mapped_in_range engine ~lo:100 ~len:10)

let test_engine_read_reclaim () =
  (* A model with strong read disturb and a policy that reclaims at a
     fixed threshold: hammering reads on one oPage must eventually move
     its page's data elsewhere, without corrupting it. *)
  let disturb_model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000
      ~read_disturb_per_read:1e-5 ()
  in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 31) ~geometry ~model:disturb_model ()
  in
  let policy =
    {
      (Ftl.Policy.always_fresh ~opages_per_fpage:4) with
      Ftl.Policy.should_reclaim = (fun ~rber ~block:_ ~page:_ -> rber > 2e-3);
    }
  in
  let engine =
    Ftl.Engine.create ~chip ~rng:(Sim.Rng.create 32) ~policy
      ~logical_capacity:64 ()
  in
  for logical = 0 to 7 do
    ignore (Ftl.Engine.write engine ~logical ~payload:(500 + logical))
  done;
  (match Ftl.Engine.flush engine with Ok () -> () | Error _ -> ());
  let original = Option.get (Ftl.Engine.locate engine ~logical:0) in
  let moved = ref false in
  let i = ref 0 in
  while (not !moved) && !i < 2_000 do
    incr i;
    (match Ftl.Engine.read engine ~logical:0 with
    | Ok p -> checki "payload stable under reclaim" 500 p
    | Error _ -> Alcotest.fail "read failed");
    ignore (Ftl.Engine.flush engine);
    match Ftl.Engine.locate engine ~logical:0 with
    | Some loc when not (Ftl.Location.equal loc original) -> moved := true
    | _ -> ()
  done;
  checkb "reclaim moved the data" true !moved;
  checkb "reclaim counted" true (Ftl.Engine.read_reclaims engine > 0)

(* --- power-fail recovery --------------------------------------------------- *)

let test_crash_rebuild_preserves_data () =
  let engine = make_engine ~seed:51 ~logical:200 () in
  let shadow = Hashtbl.create 64 in
  let rng = Sim.Rng.create 52 in
  (* churn enough to force GC and overwrites *)
  for i = 1 to 5_000 do
    let logical = Sim.Rng.int rng 200 in
    match Ftl.Engine.write engine ~logical ~payload:i with
    | Ok () -> Hashtbl.replace shadow logical i
    | Error `No_space -> Alcotest.fail "no space"
  done;
  (* some trims, including of buffered entries *)
  for logical = 0 to 30 do
    Ftl.Engine.discard engine ~logical;
    Hashtbl.remove shadow logical
  done;
  let rebuilt = Ftl.Engine.crash_rebuild engine in
  Hashtbl.iter
    (fun logical expected ->
      match Ftl.Engine.read rebuilt ~logical with
      | Ok payload ->
          checki (Printf.sprintf "logical %d after crash" logical) expected
            payload
      | Error _ -> Alcotest.fail "read failed after crash")
    shadow;
  for logical = 0 to 30 do
    checkb "trim survived the crash" true
      (Ftl.Engine.read rebuilt ~logical = Error `Unmapped)
  done;
  (* the rebuilt engine keeps working: more writes and GC *)
  for i = 1 to 2_000 do
    let logical = Sim.Rng.int rng 200 in
    match Ftl.Engine.write rebuilt ~logical ~payload:(100_000 + i) with
    | Ok () -> Hashtbl.replace shadow logical (100_000 + i)
    | Error `No_space -> Alcotest.fail "no space after rebuild"
  done;
  Hashtbl.iter
    (fun logical expected ->
      match Ftl.Engine.read rebuilt ~logical with
      | Ok payload -> checki "post-rebuild write" expected payload
      | Error _ -> Alcotest.fail "read failed post rebuild")
    shadow

let test_crash_rebuild_trim_then_rewrite () =
  let engine = make_engine ~seed:53 () in
  ignore (Ftl.Engine.write engine ~logical:7 ~payload:1);
  (match Ftl.Engine.flush engine with Ok () -> () | Error _ -> ());
  Ftl.Engine.discard engine ~logical:7;
  ignore (Ftl.Engine.write engine ~logical:7 ~payload:2);
  (match Ftl.Engine.flush engine with Ok () -> () | Error _ -> ());
  let rebuilt = Ftl.Engine.crash_rebuild engine in
  (* the rewrite postdates the trim: it must win *)
  checkb "rewrite after trim survives" true
    (Ftl.Engine.read rebuilt ~logical:7 = Ok 2)

(* Property: crash at an arbitrary point in a random workload loses no
   acknowledged data and resurrects no trimmed LBA. *)
let prop_crash_rebuild =
  QCheck.Test.make ~count:25 ~name:"crash rebuild equals pre-crash state"
    QCheck.(pair small_int (list (pair (int_range 0 99) (int_range 0 3))))
    (fun (seed, ops) ->
      let engine = make_engine ~seed:(seed + 60) ~logical:100 () in
      let shadow = Hashtbl.create 32 in
      List.iteri
        (fun i (logical, op) ->
          if op = 3 then begin
            Ftl.Engine.discard engine ~logical;
            Hashtbl.remove shadow logical
          end
          else
            match Ftl.Engine.write engine ~logical ~payload:i with
            | Ok () -> Hashtbl.replace shadow logical i
            | Error `No_space -> ())
        ops;
      let rebuilt = Ftl.Engine.crash_rebuild engine in
      let ok = ref true in
      for logical = 0 to 99 do
        let expected = Hashtbl.find_opt shadow logical in
        let got =
          match Ftl.Engine.read rebuilt ~logical with
          | Ok payload -> Some payload
          | Error _ -> None
        in
        if expected <> got then ok := false
      done;
      !ok)

(* Property: random mixed workloads never lose acknowledged data. *)
let prop_engine_read_your_writes =
  QCheck.Test.make ~count:30 ~name:"engine read-your-writes under random ops"
    QCheck.(pair small_int (list (pair (int_range 0 199) (int_range 0 2))))
    (fun (seed, ops) ->
      let engine = make_engine ~seed:(seed + 2) ~logical:200 () in
      let shadow = Hashtbl.create 64 in
      let ok = ref true in
      List.iteri
        (fun i (logical, op) ->
          match op with
          | 0 | 1 -> (
              match Ftl.Engine.write engine ~logical ~payload:i with
              | Ok () -> Hashtbl.replace shadow logical i
              | Error `No_space -> ())
          | _ ->
              Ftl.Engine.discard engine ~logical;
              Hashtbl.remove shadow logical)
        ops;
      Hashtbl.iter
        (fun logical expected ->
          match Ftl.Engine.read engine ~logical with
          | Ok payload -> if payload <> expected then ok := false
          | Error _ -> ok := false)
        shadow;
      (* And everything not written reads unmapped. *)
      for logical = 0 to 199 do
        if not (Hashtbl.mem shadow logical) then
          match Ftl.Engine.read engine ~logical with
          | Error `Unmapped -> ()
          | _ -> ok := false
      done;
      !ok)

(* --- Baseline SSD --------------------------------------------------------- *)

let age_device_until_death ?(max_writes = 3_000_000) device write_fraction =
  (* Random overwrites across [write_fraction] of the capacity until the
     device dies; returns total accepted host writes. *)
  let rng = Sim.Rng.create 1234 in
  let writes = ref 0 in
  (try
     while !writes < max_writes do
       if not (Ftl.Device_intf.alive device) then raise Exit;
       let capacity = Ftl.Device_intf.logical_capacity device in
       let window =
         Stdlib.max 1
           (int_of_float (float_of_int capacity *. write_fraction))
       in
       let lba = Sim.Rng.int rng window in
       (match Ftl.Device_intf.write device ~lba ~payload:!writes with
       | Ok () -> incr writes
       | Error `Dead | Error `No_space -> raise Exit
       | Error `Out_of_range -> ())
     done
   with Exit -> ());
  !writes

let test_baseline_ages_and_bricks () =
  let rng = Sim.Rng.create 9 in
  let device =
    Ftl.Baseline_ssd.create ~geometry ~model:fast_model ~rng ()
  in
  let packed =
    Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), device)
  in
  let writes = age_device_until_death packed 0.9 in
  checkb "died of wear" true (not (Ftl.Baseline_ssd.alive device));
  checkb "survived a meaningful life" true (writes > 1000);
  checkb "bad blocks at or beyond threshold" true
    (float_of_int (Ftl.Baseline_ssd.retired_blocks device)
     /. float_of_int geometry.Flash.Geometry.blocks
    >= 0.025);
  (* Read-only after death: reads still work. *)
  let readable = ref false in
  for lba = 0 to Ftl.Baseline_ssd.initial_capacity device - 1 do
    if not !readable then
      match Ftl.Baseline_ssd.read device ~lba with
      | Ok _ -> readable := true
      | Error _ -> ()
  done;
  checkb "still readable after brick" true !readable

let test_baseline_capacity_constant_until_death () =
  let rng = Sim.Rng.create 10 in
  let device = Ftl.Baseline_ssd.create ~geometry ~model:fast_model ~rng () in
  let initial = Ftl.Baseline_ssd.logical_capacity device in
  checki "93% of physical" (int_of_float (512. *. 0.93)) initial;
  let packed = Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), device) in
  ignore (age_device_until_death packed 0.9);
  checki "capacity drops to zero at death" 0
    (Ftl.Baseline_ssd.logical_capacity device)

(* The one host-visible difference between the two retirement kinds
   once a drive is dead: a bricked baseline ignores a trim and keeps
   serving the data, a dead CVSS drive still discards it. *)
let test_dead_trim_by_retirement () =
  let trim_after_death (type a) (module D : Ftl.Device_intf.S with type t = a)
      (device : a) =
    let packed = Ftl.Device_intf.Packed ((module D), device) in
    ignore (age_device_until_death packed 0.45);
    checkb "dead" false (D.alive device);
    let rec mapped lba =
      if lba >= D.initial_capacity device then Alcotest.fail "no mapped LBA"
      else
        match D.read device ~lba with
        | Ok payload -> (lba, payload)
        | Error _ -> mapped (lba + 1)
    in
    let lba, payload = mapped 0 in
    D.trim device ~lba;
    (payload, D.read device ~lba)
  in
  let baseline =
    Ftl.Baseline_ssd.create ~geometry ~model:fast_model
      ~rng:(Sim.Rng.create 31) ()
  in
  let payload, after = trim_after_death (module Ftl.Baseline_ssd) baseline in
  checkb "bricked baseline ignores the trim" true (after = Ok payload);
  let cvss =
    Ftl.Cvss.create ~geometry ~model:fast_model ~rng:(Sim.Rng.create 31) ()
  in
  let _, after = trim_after_death (module Ftl.Cvss) cvss in
  checkb "dead cvss discards" true (after = Error `Unmapped)

(* --- CVSS ------------------------------------------------------------------ *)

let test_cvss_shrinks_then_dies () =
  let rng = Sim.Rng.create 11 in
  let device = Ftl.Cvss.create ~geometry ~model:fast_model ~rng () in
  let packed = Ftl.Device_intf.Packed ((module Ftl.Cvss), device) in
  let writes = age_device_until_death packed 0.45 in
  checkb "eventually dies" true (not (Ftl.Cvss.alive device));
  checkb "shrank before dying" true (Ftl.Cvss.retired_blocks device > 0);
  checkb "shrunk opages recorded" true (Ftl.Cvss.shrunk_opages device >= 0);
  checkb "lived" true (writes > 1000);
  (* Died by the min-capacity rule: capacity fell below half. *)
  checkb "capacity below floor at death" true
    (Ftl.Cvss.logical_capacity device = 0)

let test_cvss_outlives_baseline () =
  (* Same flash physics, same write stream: CVSS should absorb more total
     writes than the baseline because it keeps going after the baseline's
     2.5% threshold. *)
  let make_baseline seed =
    let rng = Sim.Rng.create seed in
    let d = Ftl.Baseline_ssd.create ~geometry ~model:fast_model ~rng () in
    Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d)
  in
  let make_cvss seed =
    let rng = Sim.Rng.create seed in
    let d = Ftl.Cvss.create ~geometry ~model:fast_model ~rng () in
    Ftl.Device_intf.Packed ((module Ftl.Cvss), d)
  in
  let lifetime make =
    let total = ref 0 in
    List.iter
      (fun seed -> total := !total + age_device_until_death (make seed) 0.45)
      [ 21; 22; 23 ];
    !total
  in
  let baseline_life = lifetime make_baseline in
  let cvss_life = lifetime make_cvss in
  checkb
    (Printf.sprintf "cvss %d > baseline %d writes" cvss_life baseline_life)
    true (cvss_life > baseline_life)

(* --- Read-retry ladder ---------------------------------------------------- *)

let make_ladder_engine ?(config = Ftl.Engine.default_config) ?rng
    ~read_fail_prob seed =
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry ~model:gentle_model
      ()
  in
  let policy =
    { (Ftl.Policy.always_fresh ~opages_per_fpage:4) with
      Ftl.Policy.read_fail_prob = read_fail_prob }
  in
  let rng =
    match rng with Some rng -> rng | None -> Sim.Rng.create (seed + 1)
  in
  Ftl.Engine.create ~config ~chip ~rng ~policy ~logical_capacity:64 ()

let test_retry_ladder_bounded () =
  (* A permanently failing page walks exactly [read_retries] rungs, and
     only then surfaces `Uncorrectable`. *)
  List.iter
    (fun retries ->
      let config = { Ftl.Engine.default_config with read_retries = retries } in
      let engine =
        make_ladder_engine ~config
          ~read_fail_prob:(fun ~rber:_ ~block:_ ~page:_ -> 1.)
          80
      in
      (match Ftl.Engine.write engine ~logical:0 ~payload:1 with
      | Ok () -> ()
      | Error `No_space -> Alcotest.fail "no space");
      ignore (Ftl.Engine.flush engine);
      (match Ftl.Engine.read engine ~logical:0 with
      | Error `Uncorrectable -> ()
      | Ok _ -> Alcotest.fail "read should have failed"
      | Error `Unmapped -> Alcotest.fail "mapping lost");
      checki
        (Printf.sprintf "exactly %d rungs walked" retries)
        retries
        (Ftl.Engine.read_retries engine);
      checki "no phantom successes" 0 (Ftl.Engine.retry_successes engine))
    [ 0; 3; 7 ]

let test_retry_ladder_absorbs_transient () =
  (* Fail only while the sensed RBER carries an injected transient spike:
     rung 0 consumes the spike, so one retry recovers the payload. *)
  let engine =
    make_ladder_engine
      ~read_fail_prob:(fun ~rber ~block:_ ~page:_ ->
        if rber > 0.5 then 1. else 0.)
      81
  in
  (match Ftl.Engine.write engine ~logical:7 ~payload:42 with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "no space");
  ignore (Ftl.Engine.flush engine);
  let chip = Ftl.Engine.chip engine in
  let g = Flash.Chip.geometry chip in
  for block = 0 to g.Flash.Geometry.blocks - 1 do
    for page = 0 to g.Flash.Geometry.pages_per_block - 1 do
      Flash.Chip.inject chip ~block ~page (Flash.Chip.Transient_rber 1.)
    done
  done;
  (match Ftl.Engine.read engine ~logical:7 with
  | Ok payload -> checki "payload recovered" 42 payload
  | Error _ -> Alcotest.fail "ladder failed to absorb the spike");
  checki "one retry" 1 (Ftl.Engine.read_retries engine);
  checki "one rescue" 1 (Ftl.Engine.retry_successes engine)

let test_retry_ladder_deterministic () =
  let run () =
    let engine =
      make_ladder_engine
        ~read_fail_prob:(fun ~rber:_ ~block:_ ~page:_ -> 0.3)
        83
    in
    for logical = 0 to 49 do
      ignore (Ftl.Engine.write engine ~logical ~payload:logical)
    done;
    ignore (Ftl.Engine.flush engine);
    let results =
      List.init 200 (fun i -> Ftl.Engine.read engine ~logical:(i mod 50))
    in
    (results, Ftl.Engine.read_retries engine,
     Ftl.Engine.retry_successes engine)
  in
  let r1, n1, s1 = run () in
  let r2, n2, s2 = run () in
  checkb "same read outcomes" true (r1 = r2);
  checki "same retry count" n1 n2;
  checki "same rescue count" s1 s2;
  checkb "ladder actually exercised" true (n1 > 0 && s1 > 0)

(* The exact-0 / exact-1 thresholds are invisible to the engine: two
   engines on one seed, one whose policy evaluates [page_fail_prob] and one
   [tail_prob], read alike.  Each page's rung-0 RBER is pinned to a target
   around the thresholds (the ladder then halves it per rung), so reads
   land at or below [zero_upto], inside the band and at or above
   [one_from], walk the ladder and escalate to a hook that rescues only
   some LBAs. *)
let test_tail_prob_engine_differential () =
  let tail = (Ftl.Ecc_profile.of_geometry geometry).Ftl.Ecc_profile.tail in
  let zero = tail.Ecc.Reliability.zero_upto
  and one = tail.Ecc.Reliability.one_from in
  let targets =
    [| zero /. 2.; zero; Float.succ zero; sqrt (zero *. one);
       Float.pred one; one; 2. *. one; 16. *. one |]
  in
  let below = ref 0 and inside = ref 0 and above = ref 0 in
  let run eval =
    let rng = Sim.Rng.create 90 in
    let chip = ref None in
    let engine =
      make_ladder_engine ~rng
        ~read_fail_prob:(fun ~rber ~block ~page ->
          (* [rber] is the chip's rate times 0.5^rung, so this ratio is
             exact and the target keeps the ladder's halving. *)
          let sensed = Flash.Chip.rber (Option.get !chip) ~block ~page in
          let rber =
            targets.(((block * geometry.Flash.Geometry.pages_per_block) + page)
                     mod Array.length targets)
            *. (rber /. sensed)
          in
          incr
            (if rber <= zero then below else if rber >= one then above
             else inside);
          eval ~rber)
        89
    in
    chip := Some (Ftl.Engine.chip engine);
    Ftl.Engine.set_recovery_hook engine
      (Some (fun ~logical -> if logical mod 3 = 0 then None else Some logical));
    for logical = 0 to 63 do
      ignore (Ftl.Engine.write engine ~logical ~payload:logical)
    done;
    ignore (Ftl.Engine.flush engine);
    let results =
      List.init 600 (fun i -> Ftl.Engine.read engine ~logical:(i mod 64))
    in
    ( results,
      [ Ftl.Engine.read_retries engine; Ftl.Engine.retry_successes engine;
        Ftl.Engine.read_escalations engine;
        Ftl.Engine.escalation_successes engine ],
      rng )
  in
  let exact, exact_counts, exact_rng =
    run (Ecc.Reliability.page_fail_prob tail.Ecc.Reliability.params
           ~codewords:tail.Ecc.Reliability.codewords)
  in
  let fast, fast_counts, fast_rng = run (Ecc.Reliability.tail_prob tail) in
  checkb "same read results" true (exact = fast);
  Alcotest.(check (list int)) "same retries, rescues and escalations"
    exact_counts fast_counts;
  checkb "same RNG position" true (Sim.Rng.equal exact_rng fast_rng);
  checkb "reads below, inside and above the band" true
    (!below > 0 && !inside > 0 && !above > 0);
  match exact_counts with
  | [ retries; rescues; escalations; _ ] ->
      checkb "ladder and escalation exercised" true
        (retries > 0 && rescues > 0 && escalations > 0)
  | _ -> assert false

(* --- Read-recovery escalation ---------------------------------------------- *)

(* An engine whose every flash read fails ECC: the only way a read
   returns data is through the recovery hook. *)
let make_failing_engine ?(seed = 700) ?config () =
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create seed) ~geometry ~model:gentle_model
      ()
  in
  let policy =
    {
      (Ftl.Policy.always_fresh ~opages_per_fpage:4) with
      Ftl.Policy.read_fail_prob = (fun ~rber:_ ~block:_ ~page:_ -> 1.);
    }
  in
  Ftl.Engine.create ?config ~chip
    ~rng:(Sim.Rng.create (seed + 1))
    ~policy ~logical_capacity:64 ()

let prop_zero_retries_escalates_immediately =
  QCheck.Test.make ~count:30
    ~name:"read_retries=0 disables the ladder: first ECC failure escalates"
    QCheck.(pair small_int (list (int_range 0 49)))
    (fun (seed, lbas) ->
      let config = { Ftl.Engine.default_config with read_retries = 0 } in
      let rescued = make_failing_engine ~seed:(seed + 700) ~config () in
      Ftl.Engine.set_recovery_hook rescued
        (Some (fun ~logical -> Some (logical * 31)));
      let bare = make_failing_engine ~seed:(seed + 700) ~config () in
      List.iter
        (fun lba ->
          match
            ( Ftl.Engine.write rescued ~logical:lba ~payload:lba,
              Ftl.Engine.write bare ~logical:lba ~payload:lba )
          with
          | Ok (), Ok () -> ()
          | _ -> QCheck.Test.fail_report "write failed")
        lbas;
      ignore (Ftl.Engine.flush rescued);
      ignore (Ftl.Engine.flush bare);
      List.iter
        (fun lba ->
          (match Ftl.Engine.read rescued ~logical:lba with
          | Ok v when v = lba * 31 -> ()
          | _ -> QCheck.Test.fail_report "hooked read not rescued");
          match Ftl.Engine.read bare ~logical:lba with
          | Error `Uncorrectable -> ()
          | _ -> QCheck.Test.fail_report "bare read should be uncorrectable")
        lbas;
      let reads = List.length lbas in
      (* The ladder never ran: no retry counters moved on either engine,
         and every failed read escalated exactly once (first hook attempt
         rescues, resetting the backoff each time). *)
      Ftl.Engine.read_retries rescued = 0
      && Ftl.Engine.retry_successes rescued = 0
      && Ftl.Engine.read_retries bare = 0
      && Ftl.Engine.read_escalations rescued = reads
      && Ftl.Engine.escalation_successes rescued = reads
      && Ftl.Engine.escalations_suppressed rescued = 0
      && Ftl.Engine.read_escalations bare = 0)

let test_escalation_backoff_budget () =
  let engine =
    make_failing_engine
      ~config:{ Ftl.Engine.default_config with read_retries = 0 }
      ()
  in
  let hook_ok = ref false in
  Ftl.Engine.set_recovery_hook engine
    ~config:
      { Ftl.Engine.recovery_attempts = 2; backoff_base = 4; backoff_cap = 8 }
    (Some (fun ~logical -> if !hook_ok then Some (logical + 100) else None));
  (match Ftl.Engine.write engine ~logical:3 ~payload:9 with
  | Ok () -> ()
  | Error `No_space -> Alcotest.fail "no space");
  ignore (Ftl.Engine.flush engine);
  let read () = Ftl.Engine.read engine ~logical:3 in
  (* Read clock 1: a burst of both attempts fails and opens a 4-read
     backoff window. *)
  (match read () with
  | Error `Uncorrectable -> ()
  | _ -> Alcotest.fail "expected uncorrectable");
  checki "first burst spends both attempts" 2
    (Ftl.Engine.read_escalations engine);
  checki "nothing suppressed yet" 0 (Ftl.Engine.escalations_suppressed engine);
  (* Clocks 2-4 land inside the window: suppressed, no hook calls. *)
  for _ = 1 to 3 do
    ignore (read ())
  done;
  checki "window suppresses escalation" 3
    (Ftl.Engine.escalations_suppressed engine);
  checki "no attempts inside the window" 2
    (Ftl.Engine.read_escalations engine);
  (* Clock 5 = retry_at: a fresh burst, and the window doubles (to the
     cap) — clocks 6..12 stay suppressed. *)
  ignore (read ());
  checki "second burst after backoff" 4 (Ftl.Engine.read_escalations engine);
  for _ = 1 to 7 do
    ignore (read ())
  done;
  checki "doubled window suppresses" 10
    (Ftl.Engine.escalations_suppressed engine);
  (* Clock 13: the hook now answers — success resets the budget, so the
     next failure escalates immediately instead of waiting. *)
  hook_ok := true;
  (match read () with
  | Ok v -> checki "rescued payload" 103 v
  | Error _ -> Alcotest.fail "expected rescue");
  checki "success counted" 1 (Ftl.Engine.escalation_successes engine);
  hook_ok := false;
  ignore (read ());
  checki "budget reset by success" 7 (Ftl.Engine.read_escalations engine);
  checki "no new suppression after reset" 10
    (Ftl.Engine.escalations_suppressed engine)

(* --- Adversarial crash timing --------------------------------------------- *)

let prop_crash_adversarial_timing =
  QCheck.Test.make ~count:30
    ~name:"crashes at every site never lose acked writes or resurrect trims"
    QCheck.(
      triple small_int (int_range 1 6)
        (list (pair (int_range 0 49) (int_range 0 4))))
    (fun (seed, crash_period, ops) ->
      let engine = ref (make_engine ~seed:(seed + 300) ~logical:50 ()) in
      (* Cut power at every [crash_period]-th crash site the engine
         crosses (the hook survives crash_rebuild, so cuts keep coming
         through recovery-heavy histories). *)
      let sites = ref 0 in
      Ftl.Engine.set_crash_hook !engine
        (Some
           (fun _site ->
             incr sites;
             if !sites mod crash_period = 0 then raise Ftl.Engine.Power_loss));
      let acked = Hashtbl.create 32 in
      let trimmed = Hashtbl.create 16 in
      let rebuild () = engine := Ftl.Engine.crash_rebuild !engine in
      List.iteri
        (fun i (logical, op) ->
          if op = 4 then begin
            (try Ftl.Engine.discard !engine ~logical
             with Ftl.Engine.Power_loss -> rebuild ());
            Hashtbl.remove acked logical;
            Hashtbl.replace trimmed logical ()
          end
          else
            let payload = i + 1 in
            match Ftl.Engine.write !engine ~logical ~payload with
            | Ok () ->
                Hashtbl.replace acked logical payload;
                Hashtbl.remove trimmed logical;
                (* also crash right on the ack boundary sometimes *)
                if op = 3 then rebuild ()
            | Error `No_space -> ()
            | exception Ftl.Engine.Power_loss ->
                rebuild ();
                Faults.Verdict.reconcile_torn_write ~engine:!engine ~acked
                  ~trimmed ~logical ~payload)
        ops;
      Faults.Verdict.all_ok
        (Faults.Verdict.check_engine ~engine:!engine ~acked ~trimmed))

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  [
    ("mapping bind/find", `Quick, test_mapping_bind_find);
    ("mapping rebind invalidates", `Quick, test_mapping_rebind_invalidates_old);
    ("mapping slot stealing", `Quick, test_mapping_slot_stealing);
    ("mapping unbind", `Quick, test_mapping_unbind);
    qc prop_mapping_consistency;
    ("buffer dedupe", `Quick, test_buffer_dedupe);
    ("buffer pop order", `Quick, test_buffer_pop_order);
    ("buffer drop then rewrite", `Quick, test_buffer_drop_then_rewrite);
    ("intheap sorted pops", `Quick, test_intheap_sorted_pops);
    ("incremental accounting brute force", `Slow,
     test_incremental_accounting_matches_brute_force);
    ("victim picks match the fold-based scans", `Slow,
     test_victim_picks_match_scans);
    ("engine read-your-writes", `Quick, test_engine_read_your_writes);
    ("engine unmapped read", `Quick, test_engine_unmapped_read);
    ("engine overwrite", `Quick, test_engine_overwrite);
    ("engine GC sustains overwrites", `Slow, test_engine_gc_sustains_overwrites);
    ("engine no space when full", `Quick, test_engine_no_space_when_full);
    ("engine discard frees space", `Quick, test_engine_discard_frees_space);
    ("engine flush durability", `Quick, test_engine_flush_makes_buffer_durable);
    ("engine relocate page", `Quick, test_engine_relocate_page);
    ("engine mapped_in_range", `Quick, test_engine_mapped_in_range);
    ("engine read reclaim", `Quick, test_engine_read_reclaim);
    ("crash rebuild preserves data", `Quick, test_crash_rebuild_preserves_data);
    ("crash rebuild trim then rewrite", `Quick,
     test_crash_rebuild_trim_then_rewrite);
    qc prop_crash_rebuild;
    qc prop_engine_read_your_writes;
    ("retry ladder bounded", `Quick, test_retry_ladder_bounded);
    ("retry ladder absorbs transient", `Quick,
     test_retry_ladder_absorbs_transient);
    ("retry ladder deterministic", `Quick, test_retry_ladder_deterministic);
    ("tail_prob engine differential", `Quick,
     test_tail_prob_engine_differential);
    qc prop_zero_retries_escalates_immediately;
    ("escalation backoff budget", `Quick, test_escalation_backoff_budget);
    qc prop_crash_adversarial_timing;
    ("baseline ages and bricks", `Slow, test_baseline_ages_and_bricks);
    ("baseline capacity until death", `Slow,
     test_baseline_capacity_constant_until_death);
    ("cvss shrinks then dies", `Slow, test_cvss_shrinks_then_dies);
    ("cvss outlives baseline", `Slow, test_cvss_outlives_baseline);
    ("dead drive trim by retirement", `Slow, test_dead_trim_by_retirement);
  ]
