(* The fault classes are split between the arenas by which layer owns
   the matching tolerance mechanism; see chaos.mli. *)
let device_plan plan =
  List.filter
    (function
      | Faults.Plan.Silent_corruption _ | Faults.Plan.Device_death _ -> false
      | _ -> true)
    plan

let cluster_plan plan =
  List.filter (function Faults.Plan.Power_loss _ -> false | _ -> true) plan

let pp_injected fmt inj =
  List.iter
    (fun (cls, n) -> Format.fprintf fmt " %s=%d" cls n)
    (Faults.Injector.injected inj)

(* Monitor plumbing shared by both arenas: one epoch = one injector
   step.  Sampling is a no-op without a monitor. *)
let sample_step mon registry step =
  match mon with
  | Some m when Monitor.Engine.due m ~tick:step ->
      Monitor.Engine.sample m ~time:(float_of_int step) registry
  | _ -> ()

let sample_final mon registry steps =
  Option.iter
    (fun m -> Monitor.Engine.sample m ~time:(float_of_int steps) registry)
    mon

(* --- device arena -------------------------------------------------------- *)

let device_geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 ()

let run_device_arena ~registry ?mon ?obs ~plan ~seed ~steps fmt =
  let root = Sim.Rng.create seed in
  let inj_rng = Sim.Rng.split root in
  let chip_rng = Sim.Rng.split root in
  let engine_rng = Sim.Rng.split root in
  let op_rng = Sim.Rng.split root in
  let geometry = device_geometry in
  let chip =
    Flash.Chip.create ~registry ~rng:chip_rng ~geometry ~model:Defaults.model
      ()
  in
  let ecc = Ftl.Ecc_profile.of_geometry geometry in
  let policy =
    {
      (Ftl.Policy.always_fresh
         ~opages_per_fpage:geometry.Flash.Geometry.opages_per_fpage)
      with
      Ftl.Policy.read_fail_prob =
        (fun ~rber ~block:_ ~page:_ ->
          Ftl.Ecc_profile.opage_read_fail_prob ecc ~rber);
      Ftl.Policy.should_reclaim =
        (fun ~rber ~block:_ ~page:_ -> Ftl.Ecc_profile.should_reclaim ecc ~rber);
    }
  in
  let capacity = Flash.Geometry.total_opages geometry * 2 / 5 in
  let engine =
    ref
      (Ftl.Engine.create ~registry ~chip ~rng:engine_rng ~policy
         ~logical_capacity:capacity ())
  in
  (* A power cut fires at the next crash site the engine crosses after
     the injector schedules it. *)
  let crash_armed = ref false in
  Ftl.Engine.set_crash_hook !engine
    (Some
       (fun _site ->
         if !crash_armed then begin
           crash_armed := false;
           raise Ftl.Engine.Power_loss
         end));
  let inj = Faults.Injector.create ~rng:inj_rng (device_plan plan) in
  let acked = Hashtbl.create 512 in
  let trimmed = Hashtbl.create 64 in
  let crashes = ref 0 in
  let with_crash f =
    try f ()
    with Ftl.Engine.Power_loss ->
      incr crashes;
      engine := Ftl.Engine.crash_rebuild !engine
  in
  Telemetry.Trace.with_span
    ?sink:(Option.bind mon Monitor.Engine.sink)
    ~args:[ ("arena", "device"); ("seed", string_of_int seed) ]
    "chaos:cell"
    (fun () ->
      for step = 0 to steps - 1 do
        List.iter
          (function
            | Faults.Injector.Inject { block; page; fault } ->
                Flash.Chip.inject chip ~block ~page fault
            | Faults.Injector.Power_cut -> crash_armed := true
            | Faults.Injector.Kill_device _ -> ())
          (Faults.Injector.step inj ~geometry ~step);
        let lba = Sim.Rng.int op_rng capacity in
        (match Sim.Rng.int op_rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> (
            let payload = Sim.Rng.int op_rng 1_000_000 in
            match Ftl.Engine.write !engine ~logical:lba ~payload with
            | Ok () ->
                Hashtbl.replace acked lba payload;
                Hashtbl.remove trimmed lba
            | Error `No_space -> ()
            | exception Ftl.Engine.Power_loss ->
                incr crashes;
                engine := Ftl.Engine.crash_rebuild !engine;
                (* The cut write was never acked: it may legally have landed
                   or vanished — read back and update the shadow to whichever
                   legal state the media is in. *)
                Faults.Verdict.reconcile_torn_write ~engine:!engine ~acked
                  ~trimmed ~logical:lba ~payload)
        | 7 | 8 -> ignore (Ftl.Engine.read !engine ~logical:lba)
        | _ ->
            Ftl.Engine.discard !engine ~logical:lba;
            Hashtbl.remove acked lba;
            Hashtbl.replace trimmed lba ());
        sample_step mon registry step
      done);
  (* Flush always crosses a crash site, so a cut armed on the last steps
     still lands before the verdict. *)
  with_crash (fun () -> ignore (Ftl.Engine.flush !engine));
  sample_final mon registry steps;
  let verdict = Faults.Verdict.check_engine ~engine:!engine ~acked ~trimmed in
  Format.fprintf fmt "arena device seed=%d: steps=%d crashes=%d@." seed steps
    !crashes;
  Format.fprintf fmt "  injected:%a@." pp_injected inj;
  Format.fprintf fmt
    "  tolerance: read_retries=%d retry_successes=%d read_reclaims=%d \
     chip_faults=%d@."
    (Ftl.Engine.read_retries !engine)
    (Ftl.Engine.retry_successes !engine)
    (Ftl.Engine.read_reclaims !engine)
    (Flash.Chip.faults_injected chip);
  Faults.Verdict.pp fmt verdict;
  Option.iter
    (fun acc ->
      let w = Flash.Chip.wear chip in
      Obs.Fleet_report.Acc.observe acc
        {
          Obs.Fleet_report.id = Printf.sprintf "device-%d" seed;
          pec_max = w.Flash.Chip.wear_pec_max;
          pec_min = w.Flash.Chip.wear_pec_min;
          rber_worst = w.Flash.Chip.wear_rber_worst;
          tolerable_rber = ecc.Ftl.Ecc_profile.tolerable_rber;
          retries = Ftl.Engine.read_retries !engine;
          escalations = Ftl.Engine.read_escalations !engine;
          reclaims = Ftl.Engine.read_reclaims !engine;
          host_writes = Ftl.Engine.host_writes !engine;
          alive = true;
        })
    obs;
  Faults.Verdict.all_ok verdict

(* --- cluster arena ------------------------------------------------------- *)

let cluster_devices = 6

type cluster_outcome = {
  ok : bool;
  capacity_opages : int;  (** exported LBAs still served by live devices *)
  unrecoverable : int;
  corrupt_served : int;
  lost_chunks : int;
  intact : int;
  degraded : int;
  live_attempts : int;
  live_successes : int;
}

let run_cluster_arena ~registry ?mon ?obs ?(obs_prefix = "cluster")
    ?(live_repair = false) ~plan ~seed ~steps fmt =
  let root = Sim.Rng.create seed in
  let inj_rng = Sim.Rng.split root in
  let op_rng = Sim.Rng.split root in
  let cluster = Difs.Cluster.create ~registry () in
  let devices =
    Array.init cluster_devices (fun i ->
        let rng = Sim.Rng.split root in
        let d =
          Defaults.salamander ~registry ~mode:Salamander.Device.Regen_s ~rng ()
        in
        ignore (Difs.Cluster.add_device cluster ~node:i (Difs.Cluster.Salamander d));
        d)
  in
  let chips =
    Array.map (fun d -> Ftl.Engine.chip (Salamander.Device.engine d)) devices
  in
  if live_repair then Difs.Cluster.enable_live_repair cluster;
  let monotone = Faults.Verdict.Monotone.create () in
  let inj = Faults.Injector.create ~rng:inj_rng (cluster_plan plan) in
  let chunk_count =
    Defaults.fill_cluster cluster ~devices:cluster_devices ~percent:30
  in
  Telemetry.Trace.with_span
    ?sink:(Option.bind mon Monitor.Engine.sink)
    ~args:[ ("arena", "cluster"); ("seed", string_of_int seed) ]
    "chaos:cell"
    (fun () ->
      for step = 0 to steps - 1 do
        (* Media faults land round-robin across the member chips; kills and
           scheduled events come straight from the plan. *)
        let chip = chips.(step mod cluster_devices) in
        List.iter
          (function
            | Faults.Injector.Inject { block; page; fault } ->
                Flash.Chip.inject chip ~block ~page fault
            | Faults.Injector.Kill_device victim ->
                Difs.Cluster.kill_device cluster (victim mod cluster_devices)
            | Faults.Injector.Power_cut -> ())
          (Faults.Injector.step inj ~geometry:(Flash.Chip.geometry chip) ~step);
        let id = Sim.Rng.int op_rng chunk_count in
        (match Sim.Rng.int op_rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> ignore (Difs.Cluster.write_chunk cluster id)
        | 6 | 7 | 8 -> ignore (Difs.Cluster.read_chunk cluster id)
        | _ -> Difs.Cluster.delete_chunk cluster id);
        if (step + 1) mod 50 = 0 then ignore (Difs.Cluster.scrub cluster);
        (* Live repair may stop [unrecoverable_opages] from growing; it
           must never roll it back. *)
        Faults.Verdict.Monotone.observe monotone
          ~name:"difs_unrecoverable_opages"
          (Difs.Cluster.unrecoverable_opages cluster);
        sample_step mon registry step
      done);
  Difs.Cluster.repair cluster;
  ignore (Difs.Cluster.scrub cluster);
  Faults.Verdict.Monotone.observe monotone ~name:"difs_unrecoverable_opages"
    (Difs.Cluster.unrecoverable_opages cluster);
  sample_final mon registry steps;
  let verdict =
    Faults.Verdict.check_cluster cluster
    @ Faults.Verdict.Monotone.checks monotone
  in
  let health = Difs.Cluster.health cluster in
  Format.fprintf fmt "arena cluster seed=%d: steps=%d devices=%d/%d%s@." seed
    steps
    (Difs.Cluster.devices_alive cluster)
    cluster_devices
    (if live_repair then " live-repair=on" else "");
  Format.fprintf fmt "  injected:%a@." pp_injected inj;
  Format.fprintf fmt
    "  tolerance: scrub_sweeps=%d mismatches=%d scrub_repairs=%d \
     rebuilt_shares=%d rebuild_aborts=%d kill_ignored=%d@."
    (Difs.Cluster.scrub_sweeps cluster)
    (Difs.Cluster.scrub_mismatches cluster)
    (Difs.Cluster.scrub_repairs cluster)
    (Difs.Cluster.rebuilt_shares cluster)
    (Difs.Cluster.rebuild_aborts cluster)
    (Difs.Cluster.kill_ignored cluster);
  Format.fprintf fmt
    "  live-repair: attempts=%d successes=%d replica_reads=%d rewritten=%d \
     failures=%d corrupt_served=%d@."
    (Difs.Cluster.live_repair_attempts cluster)
    (Difs.Cluster.live_repair_successes cluster)
    (Difs.Cluster.live_repair_replica_reads cluster)
    (Difs.Cluster.live_repair_rewritten_opages cluster)
    (Difs.Cluster.live_repair_failures cluster)
    (Difs.Cluster.corrupt_reads_served cluster);
  Format.fprintf fmt "  chunks: intact=%d degraded=%d lost=%d@." health.intact
    health.degraded health.lost;
  Faults.Verdict.pp fmt verdict;
  (* A killed member reads as not alive even when its Salamander state
     would still accept writes. *)
  let alive i d =
    Salamander.Device.alive d && not (Difs.Cluster.is_device_killed cluster i)
  in
  let capacity_opages =
    Array.to_list devices
    |> List.mapi (fun i d -> (i, d))
    |> List.fold_left
         (fun acc (i, d) ->
           if alive i d then acc + Salamander.Device.active_opages d else acc)
         0
  in
  Option.iter
    (fun acc ->
      Array.iteri
        (fun i d ->
          Obs.Fleet_report.Acc.observe acc
            (Defaults.observation
               ~id:(Printf.sprintf "%s-%d" obs_prefix i)
               ~alive:(alive i d) (Salamander.Device.pack d)))
        devices)
    obs;
  {
    ok = Faults.Verdict.all_ok verdict;
    capacity_opages;
    unrecoverable = Difs.Cluster.unrecoverable_opages cluster;
    corrupt_served = Difs.Cluster.corrupt_reads_served cluster;
    lost_chunks = Difs.Cluster.lost_chunks cluster;
    intact = health.intact;
    degraded = health.degraded;
    live_attempts = Difs.Cluster.live_repair_attempts cluster;
    live_successes = Difs.Cluster.live_repair_successes cluster;
  }

(* --- the campaign -------------------------------------------------------- *)

let default_plan = List.assoc "default" Faults.Plan.presets
let recovery_plan = List.assoc "live-recovery" Faults.Plan.presets

let run ?(ctx = Ctx.default) ?(plan = default_plan) ?(seed = 42)
    ?(steps = 1000) fmt =
  Format.fprintf fmt "chaos campaign: plan=%a seed=%d steps=%d@."
    Faults.Plan.pp plan seed steps;
  (* Six self-contained cells fan out over the pool via {!Ctx.map};
     rendering and sink absorption happen in submission order, so the
     report is byte-identical at any job count.  The recovery cells
     always run the [live-recovery] preset with live repair armed,
     whatever [plan] the rest of the campaign exercises — they are the
     standing regression for the no-corrupt-read-with-healthy-replica
     invariant. *)
  let cells =
    [
      (`Device, seed);
      (`Device, seed + 1);
      (`Cluster, seed);
      (`Cluster, seed + 1);
      (`Recovery, seed);
      (`Recovery, seed + 1);
    ]
  in
  let cell_tag (arena, cell_seed) =
    let tag =
      match arena with
      | `Device -> "device"
      | `Cluster -> "cluster"
      | `Recovery -> "recovery"
    in
    Printf.sprintf "%s-%d" tag cell_seed
  in
  let rendered =
    Ctx.map ctx
      ~labels:(fun cell -> [ ("device", cell_tag cell) ])
      cells
      (fun sub ((arena, cell_seed) as cell) ->
        let registry = sub.Ctx.registry
        and mon = sub.Ctx.monitor
        and obs = sub.Ctx.obs in
        let buf = Buffer.create 2048 in
        let bfmt = Format.formatter_of_buffer buf in
        let ok =
          match arena with
          | `Device ->
              run_device_arena ~registry ?mon ?obs ~plan ~seed:cell_seed
                ~steps bfmt
          | `Cluster ->
              (run_cluster_arena ~registry ?mon ?obs ~obs_prefix:(cell_tag cell)
                 ~plan ~seed:cell_seed ~steps bfmt)
                .ok
          | `Recovery ->
              (run_cluster_arena ~registry ?mon ?obs ~obs_prefix:(cell_tag cell)
                 ~live_repair:true ~plan:recovery_plan ~seed:cell_seed ~steps
                 bfmt)
                .ok
        in
        Format.pp_print_flush bfmt ();
        (Buffer.contents buf, ok))
  in
  List.iter (fun (text, _) -> Format.pp_print_string fmt text) rendered;
  let all = List.for_all snd rendered in
  Format.fprintf fmt "chaos verdict: %s@." (if all then "PASS" else "FAIL");
  all

(* --- shrink vs repair ----------------------------------------------------- *)

let run_shrink_vs_repair ?(ctx = Ctx.default) ?(seed = 42) ?(steps = 1000) fmt
    =
  Format.fprintf fmt "shrink-vs-repair: plan=%a seed=%d steps=%d@."
    Faults.Plan.pp recovery_plan seed steps;
  let tag live_repair = if live_repair then "repair-on" else "repair-off" in
  let rendered =
    Ctx.map ctx
      ~labels:(fun live_repair -> [ ("device", tag live_repair) ])
      [ false; true ]
      (fun sub live_repair ->
        let buf = Buffer.create 2048 in
        let bfmt = Format.formatter_of_buffer buf in
        let out =
          run_cluster_arena ~registry:sub.Ctx.registry ?mon:sub.Ctx.monitor
            ?obs:sub.Ctx.obs ~obs_prefix:(tag live_repair) ~live_repair
            ~plan:recovery_plan ~seed ~steps bfmt
        in
        Format.pp_print_flush bfmt ();
        (Buffer.contents buf, out, tag live_repair))
  in
  List.iter (fun (text, _, _) -> Format.pp_print_string fmt text) rendered;
  (* Effective lifetime under identical damage: repairing in place costs
     wear (exported capacity) but keeps data reachable (fewer
     unrecoverable oPages, fewer corrupt reads served). *)
  List.iter
    (fun (_, out, tag) ->
      Format.fprintf fmt
        "%-10s capacity=%d unrecoverable=%d corrupt_served=%d lost_chunks=%d \
         chunks=%d+%d live_repairs=%d/%d@."
        tag out.capacity_opages out.unrecoverable out.corrupt_served
        out.lost_chunks out.intact out.degraded out.live_successes
        out.live_attempts)
    rendered;
  let all = List.for_all (fun (_, out, _) -> out.ok) rendered in
  Format.fprintf fmt "shrink-vs-repair verdict: %s@."
    (if all then "PASS" else "FAIL");
  all
