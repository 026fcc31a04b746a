(* chaos_campaign: the robustness headline — the default fault plan over
   the device, cluster and live-recovery arenas, every verdict checked.
   diFS replication, scrub and live repair, the injector, crash_rebuild
   and the verdicts all run on the per-op path (crash hooks disable the
   bulk stream).  Steps stay in the regime where clusters are alive. *)

type config = {
  steps : int;  (** injector steps per cell *)
  seeds : int;  (** campaigns per run (each is six cells) *)
  ladder_calls : int;  (** calls per ladder rung, scaled by its cost *)
}

let full = { steps = 5000; seeds = 4; ladder_calls = 200 }
let smoke = { steps = 200; seeds = 1; ladder_calls = 4 }
let cells_per_campaign = 6

(* [Chaos.run] uses [seed] and [seed + 1]: campaign seeds step by two. *)
let campaign_seeds ~cfg ~seed = List.init cfg.seeds (fun i -> (seed * 100) + (2 * i))

let run_campaign ?ctx ~steps seed =
  Harness.with_report (fun fmt -> Experiments.Chaos.run ?ctx ~seed ~steps fmt)

(* A cell failed when its section of the report carries a failed check. *)
let failed_cells report =
  let failed = ref 0 and in_cell = ref false and cell_failed = ref false in
  let close () = if !in_cell && !cell_failed then incr failed in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"arena " line then begin
        close ();
        in_cell := true;
        cell_failed := false
      end
      else if String.starts_with ~prefix:"[FAIL]" line then cell_failed := true)
    (String.split_on_char '\n' report);
  close ();
  !failed

(* --- counters from a live registry ------------------------------------- *)

let counter_sums registry =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Telemetry.Registry.sample) ->
      match s.Telemetry.Registry.value with
      | Telemetry.Registry.Counter n ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt tbl s.name) in
          Hashtbl.replace tbl s.name (prev + n)
      | _ -> ())
    (Telemetry.Registry.snapshot registry);
  fun name -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl name))

(* --- ladder rungs --------------------------------------------------------

   diFS and FTL operations timed on clusters and engines built at the
   arenas' shape: six RegenS members at 30% raw utilization, and the
   device arena's 16x8 engine at 40% logical capacity. *)

let geometry = Experiments.Defaults.geometry
let members = 6

let arena_cluster rep =
  let root = Sim.Rng.create (31337 + rep) in
  let cluster = Difs.Cluster.create () in
  let devices =
    Array.init members (fun i ->
        let d =
          Salamander.Device.create
            ~config:
              (Experiments.Defaults.salamander_config
                 ~mode:Salamander.Device.Regen_s)
            ~geometry ~model:Experiments.Defaults.model ~rng:(Sim.Rng.split root)
            ()
        in
        ignore (Difs.Cluster.add_device cluster ~node:i (Difs.Cluster.Salamander d));
        d)
  in
  let chunks =
    members * Flash.Geometry.total_opages geometry * 30 / 100
    / (Difs.Cluster.share_opages cluster * Difs.Cluster.total_shares cluster)
  in
  (cluster, devices, chunks)

let populated rep =
  let cluster, devices, chunks = arena_cluster rep in
  for id = 0 to chunks - 1 do
    ignore (Difs.Cluster.write_chunk cluster id)
  done;
  (cluster, devices, chunks)

let us_per ~calls ~prepare f = Harness.ns_per ~prepare (fun env -> f env calls) /. 1e3

let rung_write_chunk cfg =
  us_per ~calls:cfg.ladder_calls ~prepare:arena_cluster (fun (cluster, _, chunks) reps ->
      (* population, then rewrites until [reps] calls *)
      for i = 0 to reps - 1 do
        ignore (Difs.Cluster.write_chunk cluster (i mod chunks))
      done;
      reps)

let scrub_slice = 16

let rung_scrub_slice cfg =
  us_per ~calls:(cfg.ladder_calls / 4) ~prepare:populated (fun (cluster, _, _) reps ->
      for _ = 1 to reps do
        ignore (Difs.Cluster.scrub ~limit:scrub_slice cluster)
      done;
      reps)

(* Addresses some chunk's share owns: the first oPage of every share
   slot of every member's minidisks, kept when a repair succeeds. *)
let owned_addresses cluster devices =
  let per_share = Difs.Cluster.share_opages cluster in
  let owned = ref [] in
  Array.iteri
    (fun device d ->
      List.iter
        (fun (m : Salamander.Minidisk.t) ->
          let lba = ref 0 in
          while !lba < m.Salamander.Minidisk.opages do
            let mdisk = m.Salamander.Minidisk.id in
            if Difs.Cluster.recover_opage ~mdisk cluster ~device ~lba:!lba <> None
            then owned := (device, mdisk, !lba) :: !owned;
            lba := !lba + per_share
          done)
        (Salamander.Device.active_mdisks d))
    devices;
  Array.of_list (List.rev !owned)

let rung_recover_opage cfg =
  us_per ~calls:(cfg.ladder_calls * 10)
    ~prepare:(fun rep ->
      let cluster, devices, _ = populated rep in
      (cluster, owned_addresses cluster devices))
    (fun (cluster, owned) reps ->
      if Array.length owned = 0 then 0
      else begin
        for i = 0 to reps - 1 do
          let device, mdisk, lba = owned.(i mod Array.length owned) in
          ignore (Difs.Cluster.recover_opage ~mdisk cluster ~device ~lba)
        done;
        reps
      end)

let arena_engine rep =
  let geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 () in
  let root = Sim.Rng.create (2718 + rep) in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.split root) ~geometry
      ~model:Experiments.Defaults.model ()
  in
  let ecc = Ftl.Ecc_profile.of_geometry geometry in
  let policy =
    {
      (Ftl.Policy.always_fresh
         ~opages_per_fpage:geometry.Flash.Geometry.opages_per_fpage)
      with
      Ftl.Policy.read_fail_prob =
        (fun ~rber ~block:_ ~page:_ -> Ftl.Ecc_profile.opage_read_fail_prob ecc ~rber);
      should_reclaim =
        (fun ~rber ~block:_ ~page:_ -> Ftl.Ecc_profile.should_reclaim ecc ~rber);
    }
  in
  let capacity = Flash.Geometry.total_opages geometry * 2 / 5 in
  let engine =
    Ftl.Engine.create ~chip ~rng:(Sim.Rng.split root) ~policy
      ~logical_capacity:capacity ()
  in
  let ops = Sim.Rng.split root in
  (* the device arena's op mix, 70% writes / 10% trims, over 4x capacity *)
  for _ = 1 to 4 * capacity do
    let logical = Sim.Rng.int ops capacity in
    if Sim.Rng.int ops 10 = 9 then Ftl.Engine.discard engine ~logical
    else ignore (Ftl.Engine.write engine ~logical ~payload:(Sim.Rng.int ops 1_000_000))
  done;
  ref engine

let rung_crash_rebuild cfg =
  us_per ~calls:cfg.ladder_calls ~prepare:arena_engine (fun engine reps ->
      for _ = 1 to reps do
        engine := Ftl.Engine.crash_rebuild !engine
      done;
      reps)
  /. 1e3

(* --- the workload ------------------------------------------------------- *)

let k_campaign = Spans.kind ~layer:"experiments" "experiments.chaos"

let make ?(cfg = full) ~seed () =
  let seeds = campaign_seeds ~cfg ~seed in
  let setup () =
    (* Arena construction and population: a zero-step campaign builds
       and fills every cell, repairs, scrubs and checks it. *)
    List.iter (fun s -> ignore (run_campaign ~steps:0 s)) seeds
  in
  let last = ref [] in
  let repeat () =
    let runs = List.map (run_campaign ~steps:cfg.steps) seeds in
    last := runs;
    let failed =
      List.fold_left
        (fun acc (ok, report) ->
          acc + Stdlib.max (failed_cells report) (if ok then 0 else 1))
        0 runs
    in
    {
      Harness.ops = cfg.steps * cells_per_campaign * List.length seeds;
      units = cells_per_campaign * List.length seeds;
      failed;
      digest = Harness.digest_of_string (String.concat "" (List.map snd runs));
    }
  in
  let checks () =
    [
      ( "chaos.every_verdict_pass",
        !last <> [] && List.for_all (fun (ok, _) -> ok) !last );
    ]
  in
  let traced () =
    Spans.reset ();
    let registry = Telemetry.Registry.create () in
    let ctx = Experiments.Ctx.make ~registry () in
    let runs, wall_s =
      Spans.time (fun () ->
          List.map
            (fun s ->
              Spans.span k_campaign (fun () -> run_campaign ~ctx ~steps:cfg.steps s))
            seeds)
    in
    let c = counter_sums registry in
    let ratio a b = if b = 0. then 0. else a /. b in
    let opf = float_of_int geometry.Flash.Geometry.opages_per_fpage in
    let metrics =
      [
        ("difs.scrub_repairs", c "difs_scrub_repairs_total");
        ("difs.rebuilt_shares", c "difs_rebuilt_shares_total");
        ("difs.live_repair_attempts", c "difs_live_repair_attempts_total");
        ( "difs.repair_success_ratio",
          ratio (c "difs_live_repair_successes_total")
            (c "difs_live_repair_attempts_total") );
        ("ftl.read_retries", c "ftl_read_retries_total");
        ("ftl.read_escalations", c "ftl_read_escalations_total");
        ("flash.faults_injected", c "flash_faults_injected_total");
        ("ftl.gc_runs", c "ftl_gc_runs_total");
        ("ftl.relocated_opages", c "ftl_relocated_opages_total");
        ( "ftl.write_amplification",
          ratio (opf *. c "flash_programs_total") (c "ftl_host_writes_total") );
        ("difs.write_chunk_us", rung_write_chunk cfg);
        ("difs.scrub_slice_us", rung_scrub_slice cfg);
        ("difs.recover_opage_us", rung_recover_opage cfg);
        ("ftl.crash_rebuild_ms", rung_crash_rebuild cfg);
      ]
    in
    {
      Harness.metrics;
      layers = Harness.layer_table [ Harness.self_of k_campaign ];
      wall_s;
      checks =
        [ ("chaos.traced_reports_match_untraced", runs = !last) ];
    }
  in
  {
    Harness.name = "chaos_campaign";
    seeds;
    setup;
    repeat;
    checks;
    traced;
    teardown = ignore;
  }
