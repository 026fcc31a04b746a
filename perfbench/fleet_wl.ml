(* fleet_lifetime: the paper's Fig. 3a/b question at fleet scale — every
   design aged for years, write-only and uniform, on the bulk
   [write_stream] path across a domain pool, with the fleet report on. *)

module D = Ftl.Device_intf
module Fleet = Experiments.Fleet

type config = {
  devices : int;
  days : int;
  dwpd : float;
  epoch_days : int;
  oracle_devices : int;  (** fleet size of the per-op oracle check *)
  ladder_devices : int;  (** fresh devices per write-ladder rung *)
}

let full =
  {
    devices = 400;
    days = 5 * 365;
    dwpd = 0.01;
    epoch_days = 30;
    oracle_devices = 6;
    ladder_devices = 24;
  }

let smoke =
  {
    devices = 48;
    days = 5 * 365;
    dwpd = 0.01;
    epoch_days = 30;
    oracle_devices = 2;
    ladder_devices = 2;
  }

let kinds = [ `Baseline; `Cvss; `Shrinks; `Regens ]
(* Up to two workers, leaving the caller's core free the way
   [Pool.default_domains] does: with a worker on every core, one
   descheduled worker stalls every stop-the-world minor collection and
   the run-to-run spread swamps the figures. *)
let domains () = Stdlib.min 2 (Parallel.Pool.default_domains ())

let render results =
  let b = Buffer.create 4096 in
  List.iter
    (fun ((r : Fleet.result), report) ->
      Printf.bprintf b "%s devices=%d writes=%d wear=%d afr=%d\n"
        (Experiments.Defaults.kind_label r.Fleet.kind)
        r.Fleet.devices r.Fleet.total_host_writes r.Fleet.wear_deaths
        r.Fleet.afr_deaths;
      List.iter
        (fun (s : Fleet.snapshot) ->
          Printf.bprintf b " %d:%d:%d" s.Fleet.day s.Fleet.alive
            s.Fleet.capacity_opages)
        r.Fleet.snapshots;
      Buffer.add_char b '\n';
      Buffer.add_string b report)
    results;
  Buffer.contents b

let report_of acc = Obs.Fleet_report.(to_jsonl (build ~epoch:"bench" acc))

let run_kind ?pool ?(aging = Workload.Aging.Auto) ~cfg ~seed ~devices kind =
  let obs = Obs.Fleet_report.Acc.create () in
  let ctx = Experiments.Ctx.make ?pool ~obs () in
  let r =
    Fleet.run ~ctx ~devices ~days:cfg.days ~dwpd:cfg.dwpd
      ~epoch_days:cfg.epoch_days ~seed ~aging kind
  in
  (r, report_of obs)

let final_capacity (r : Fleet.result) =
  match List.rev r.Fleet.snapshots with
  | s :: _ -> s.Fleet.capacity_opages
  | [] -> 0

(* --- traced loop ----------------------------------------------------------

   [Fleet.run]'s algorithm re-stated from the benchmark's side so every
   layer call it makes can be wrapped: same stream splits, same chunking,
   same per-device epoch loop and the same fleet-report observation, so
   its result must equal [Fleet.run]'s exactly (checked). *)

let k_fleet = Spans.kind ~layer:"experiments" "experiments.fleet"
let k_section = Spans.kind ~layer:"parallel" "parallel.section"
let k_chunk = Spans.kind ~layer:"experiments" "experiments.chunk"
let k_epoch = Spans.kind ~samples:true ~layer:"workload" "workload.run_epoch"
let k_observe = Spans.kind ~layer:"obs" "obs.observe"
let k_merge = Spans.kind ~layer:"obs" "obs.merge"

type chunk_acc = {
  alive_by_day : int array;
  cap_by_day : int array;
  obs : Obs.Fleet_report.Acc.t;
  mutable host_writes : int;
  mutable wear_deaths : int;
  mutable afr_deaths : int;
  mutable gc_runs : int;
  mutable relocated : int;
  mutable programmed : float;  (** oPages programmed: WA x host writes *)
}

type streams = { dev_rng : Sim.Rng.t; wl_rng : Sim.Rng.t; afr_rng : Sim.Rng.t }

let afr_per_day = 0.0011 (* [Fleet.run]'s default *)

let traced_device ~cfg ~kind ~streams acc index =
  let s = streams.(index) in
  let device =
    Wrap.device
      (Spans.span Wrap.k_create (fun () ->
           Experiments.Defaults.make_device_rng kind ~rng:s.dev_rng))
  in
  let pattern =
    Workload.Pattern.uniform
      ~window:
        (Stdlib.max 1
           (int_of_float (0.85 *. float_of_int (D.logical_capacity device))))
      ~read_fraction:0.
  in
  let afr_dead = ref false and wear_dead = ref false in
  let alive () = (not !afr_dead) && (not !wear_dead) && D.alive device in
  let capacity () = if alive () then D.logical_capacity device else 0 in
  let record day =
    if alive () then begin
      acc.alive_by_day.(day) <- acc.alive_by_day.(day) + 1;
      acc.cap_by_day.(day) <- acc.cap_by_day.(day) + capacity ()
    end
  in
  record 0;
  let day = ref 1 in
  while !day <= cfg.days do
    let span_days = Stdlib.min cfg.epoch_days (cfg.days - !day + 1) in
    let upto = !day + span_days - 1 in
    if alive () then begin
      let p_fail =
        if span_days = 1 then afr_per_day
        else 1. -. ((1. -. afr_per_day) ** float_of_int span_days)
      in
      if Sim.Rng.chance s.afr_rng p_fail then afr_dead := true
      else begin
        let quota =
          if span_days = 1 then
            int_of_float (cfg.dwpd *. float_of_int (capacity ()))
          else
            int_of_float
              (cfg.dwpd *. float_of_int (capacity ()) *. float_of_int span_days)
        in
        let outcome =
          Spans.span k_epoch (fun () ->
              Workload.Aging.run_epoch ~rng:s.wl_rng ~pattern ~device ~quota ())
        in
        acc.host_writes <- acc.host_writes + outcome.Workload.Aging.host_writes;
        if outcome.Workload.Aging.died then wear_dead := true
      end
    end;
    record upto;
    day := upto + 1
  done;
  if !wear_dead then acc.wear_deaths <- acc.wear_deaths + 1;
  if !afr_dead then acc.afr_deaths <- acc.afr_deaths + 1;
  Spans.span k_observe (fun () ->
      let w = D.wear_stats device in
      let bg = D.bg_stats device in
      Obs.Fleet_report.Acc.observe acc.obs
        {
          Obs.Fleet_report.id =
            Printf.sprintf "%s-%d" (Experiments.Defaults.kind_label kind) index;
          pec_max = w.D.pec_max;
          pec_min = w.D.pec_min;
          rber_worst = w.D.rber_worst;
          tolerable_rber = w.D.tolerable_rber;
          retries = bg.D.read_retries;
          escalations = bg.D.live_repair_attempts;
          reclaims = bg.D.read_reclaims;
          host_writes = D.host_writes device;
          alive = alive ();
        });
  let bg = D.bg_stats device in
  acc.gc_runs <- acc.gc_runs + bg.D.gc_runs;
  acc.relocated <- acc.relocated + bg.D.relocated_opages;
  let host = D.host_writes device in
  if host > 0 then
    acc.programmed <-
      acc.programmed +. (D.write_amplification device *. float_of_int host)

let traced_kind ~pool ~cfg ~seed kind =
  Spans.span k_fleet (fun () ->
      let obs = Obs.Fleet_report.Acc.create () in
      let root = Sim.Rng.create seed in
      let streams =
        Array.init cfg.devices (fun _ ->
            let dev_rng = Sim.Rng.split root in
            let wl_rng = Sim.Rng.split root in
            let afr_rng = Sim.Rng.split root in
            { dev_rng; wl_rng; afr_rng })
      in
      let chunk_size = Stdlib.max 1 ((cfg.devices + 63) / 64) in
      let outcomes =
        Spans.span k_section (fun () ->
            Parallel.Pool.map_chunked (Some pool) ~chunk_size ~n:cfg.devices
              (fun c ->
                Spans.time @@ fun () ->
                Spans.span k_chunk (fun () ->
                    let acc =
                      {
                        alive_by_day = Array.make (cfg.days + 1) 0;
                        cap_by_day = Array.make (cfg.days + 1) 0;
                        obs = Obs.Fleet_report.Acc.sub obs;
                        host_writes = 0;
                        wear_deaths = 0;
                        afr_deaths = 0;
                        gc_runs = 0;
                        relocated = 0;
                        programmed = 0.;
                      }
                    in
                    for i = c.Parallel.Pool.lo to c.Parallel.Pool.hi - 1 do
                      traced_device ~cfg ~kind ~streams acc i
                    done;
                    acc)))
      in
      let chunk_s = Array.of_list (List.map snd outcomes) in
      let outcomes = List.map fst outcomes in
      Spans.span k_merge (fun () ->
          List.iter (fun o -> Obs.Fleet_report.Acc.merge ~into:obs o.obs) outcomes);
      let recorded_days =
        let rec boundaries day acc =
          if day > cfg.days then List.rev acc
          else
            let upto = Stdlib.min cfg.days (day + cfg.epoch_days - 1) in
            boundaries (upto + 1) (upto :: acc)
        in
        0 :: boundaries 1 []
      in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      let result =
        {
          Fleet.kind;
          devices = cfg.devices;
          snapshots =
            List.map
              (fun day ->
                {
                  Fleet.day;
                  alive = sum (fun o -> o.alive_by_day.(day));
                  capacity_opages = sum (fun o -> o.cap_by_day.(day));
                })
              recorded_days;
          total_host_writes = sum (fun o -> o.host_writes);
          wear_deaths = sum (fun o -> o.wear_deaths);
          afr_deaths = sum (fun o -> o.afr_deaths);
        }
      in
      let counts =
        ( sum (fun o -> o.gc_runs),
          sum (fun o -> o.relocated),
          List.fold_left (fun acc o -> acc +. o.programmed) 0. outcomes )
      in
      let imbalance = Array.fold_left Float.max 0. chunk_s /. Stats.mean chunk_s in
      ((result, report_of obs), counts, imbalance))

(* --- write ladder -------------------------------------------------------

   The same write volume — [drive_writes] full drive writes per fresh
   device, over [ladder_devices] devices — pushed in at each boundary,
   top of the stack last; the gap between adjacent rungs is the layer
   in between's cost per write. *)

let drive_writes = 8
let geometry = Experiments.Defaults.geometry
let opf = geometry.Flash.Geometry.opages_per_fpage

let ladder_device i =
  Experiments.Defaults.make_device `Regens ~seed:(7919 + i)

let volume device = drive_writes * D.logical_capacity device

let window device =
  Stdlib.max 1 (int_of_float (0.85 *. float_of_int (D.logical_capacity device)))

let fresh_chips cfg rep =
  Array.init cfg.ladder_devices (fun i ->
      Flash.Chip.create
        ~rng:(Sim.Rng.create ((1000 * rep) + i))
        ~geometry ~model:Experiments.Defaults.model ())

let fresh_devices cfg rep =
  Array.init cfg.ladder_devices (fun i -> ladder_device ((1000 * rep) + i))

let rung_flash cfg =
  let payloads = Array.init opf Fun.id in
  let per_device = volume (ladder_device 0) in
  let pages = geometry.Flash.Geometry.pages_per_block in
  Harness.ns_per ~prepare:(fresh_chips cfg) (fun chips ->
      Array.iter
        (fun chip ->
          for k = 0 to (per_device / opf) - 1 do
            let block = k / pages mod geometry.Flash.Geometry.blocks
            and page = k mod pages in
            if page = 0 && k > 0 then Flash.Chip.erase chip ~block;
            Flash.Chip.program_ints chip ~block ~page ~payloads ~count:opf
          done)
        chips;
      Array.length chips * (per_device / opf) * opf)

(* The engine alone under [Policy.always_fresh], at the logical size and
   write window the device rungs use. *)
let rung_ftl cfg =
  let device = ladder_device 0 in
  let per_device = volume device in
  let capacity = D.logical_capacity device in
  let window = window device in
  Harness.ns_per
    ~prepare:(fun rep ->
      Array.mapi
        (fun i chip ->
          ( Ftl.Engine.create ~chip
              ~rng:(Sim.Rng.create ((1000 * rep) + i))
              ~policy:(Ftl.Policy.always_fresh ~opages_per_fpage:opf)
              ~logical_capacity:capacity (),
            Sim.Rng.create (1 + (1000 * rep) + i) ))
        (fresh_chips cfg rep))
    (fun engines ->
      Array.fold_left
        (fun written (engine, rng) ->
          let mine = ref 0 and go = ref true in
          while !go && !mine < per_device do
            let n, stop =
              Ftl.Engine.write_stream engine ~rng ~window ~limit:window
                ~translate:Fun.id ~payload_base:!mine
                ~budget:(per_device - !mine)
            in
            mine := !mine + n;
            match stop with
            | Ftl.Engine.Stream_no_space _ -> go := false
            | _ -> ()
          done;
          written + !mine)
        0 engines)

(* [Aging.run_epoch]'s segment loop, issued straight at the device. *)
let rung_device cfg =
  Harness.ns_per ~prepare:(fresh_devices cfg) (fun devices ->
      Array.fold_left
        (fun written device ->
          let quota = volume device in
          let rng = Sim.Rng.create quota in
          let w = ref (window device) and mine = ref 0 and go = ref true in
          while !go && !mine < quota do
            let r =
              D.write_stream device ~rng ~window:!w ~payload_base:!mine
                ~budget:(Stdlib.min 256 (quota - !mine))
            in
            mine := !mine + r.D.accepted;
            match r.D.status with
            | D.Stream_filled -> ()
            | D.Stream_resync -> w := window device
            | D.Stream_dead | D.Stream_unsupported -> go := false
          done;
          written + !mine)
        0 devices)

let rung_workload cfg =
  Harness.ns_per ~prepare:(fresh_devices cfg) (fun devices ->
      Array.fold_left
        (fun written device ->
          let quota = volume device in
          let pattern =
            Workload.Pattern.uniform ~window:(window device) ~read_fraction:0.
          in
          let o =
            Workload.Aging.run_epoch ~rng:(Sim.Rng.create quota) ~pattern
              ~device ~quota ()
          in
          written + o.Workload.Aging.host_writes)
        0 devices)

(* The whole fleet loop, device creation included: one epoch of
   [drive_writes] drive writes per device, no AFR, no pool. *)
let rung_fleet cfg =
  Harness.ns_per ~prepare:Fun.id (fun rep ->
      let r =
        Fleet.run ~devices:cfg.ladder_devices ~days:1 ~epoch_days:1
          ~dwpd:(float_of_int drive_writes) ~afr_per_day:0. ~seed:(100 + rep)
          `Regens
      in
      r.Fleet.total_host_writes)

(* --- the workload ------------------------------------------------------- *)

let make ?(cfg = full) ~seed () =
  let pool = ref None in
  let stop_pool () =
    Option.iter Parallel.Pool.shutdown !pool;
    pool := None
  in
  let last = ref [] in
  let setup () =
    (* Pool spawn (the first time) plus population: a zero-day fleet of
       every design creates and observes every device without aging it.
       The pool is spawned once per process: respawning it lands worker
       minor heaps in fresh domain slots at random, which makes peak RSS
       wander by tens of MB from run to run. *)
    let p =
      match !pool with
      | Some p -> p
      | None ->
          let p = Parallel.Pool.create ~domains:(domains ()) in
          pool := Some p;
          p
    in
    List.iter
      (fun kind ->
        ignore (run_kind ~pool:p ~cfg:{ cfg with days = 0 } ~seed ~devices:cfg.devices kind))
      kinds
  in
  let run_all () =
    List.filter_map
      (fun kind ->
        match run_kind ?pool:!pool ~cfg ~seed ~devices:cfg.devices kind with
        | r -> Some r
        | exception e ->
            prerr_endline
              (Experiments.Defaults.kind_label kind ^ " fleet raised "
             ^ Printexc.to_string e);
            None)
      kinds
  in
  let repeat () =
    let ok = run_all () in
    last := ok;
    let failed = (List.length kinds - List.length ok) * cfg.devices in
    {
      Harness.ops =
        List.fold_left (fun acc (r, _) -> acc + r.Fleet.total_host_writes) 0 ok;
      units = List.length kinds * cfg.devices;
      failed;
      digest = Harness.digest_of_string (render ok);
    }
  in
  let checks () =
    let by kind = List.find_opt (fun ((r : Fleet.result), _) -> r.Fleet.kind = kind) !last in
    let regens_keeps =
      match (by `Regens, by `Baseline) with
      | Some (regens, _), Some (baseline, _) ->
          final_capacity regens > final_capacity baseline
      | _ -> false
    in
    let oracle =
      List.for_all
        (fun kind ->
          let fast = run_kind ~cfg ~seed ~devices:cfg.oracle_devices kind in
          let slow =
            run_kind ~aging:Workload.Aging.Per_op ~cfg ~seed
              ~devices:cfg.oracle_devices kind
          in
          fast = slow)
        kinds
    in
    [
      ("fleet.regens_outlasts_baseline", regens_keeps);
      ("fleet.bulk_path_matches_per_op_oracle", oracle);
    ]
  in
  let traced () =
    let p = Option.get !pool in
    let workers = float_of_int (Parallel.Pool.domains p) in
    Spans.reset ();
    let passes, wall_s =
      Spans.time (fun () ->
          List.map (fun kind -> traced_kind ~pool:p ~cfg ~seed kind) kinds)
    in
    let summary = Spans.summary in
    let section = summary k_section and chunk = summary k_chunk in
    (* Pool workers run concurrently: their span time is divided by the
       worker count, and the share of the section they spent outside any
       chunk is the pool's own (idle) cost. *)
    let idle = (workers *. section.Spans.total_s) -. chunk.Spans.total_s in
    let on_workers k = Harness.self_of ~scale:workers k in
    let layers =
      Harness.layer_table
        [
          Harness.self_of k_fleet;
          ("parallel", idle /. workers);
          on_workers k_chunk;
          on_workers Wrap.k_create;
          on_workers k_epoch;
          on_workers Wrap.k_write_stream;
          on_workers Wrap.k_write;
          on_workers Wrap.k_bg_stats;
          on_workers k_observe;
          Harness.self_of k_merge;
        ]
    in
    let epoch_ms =
      Array.map (fun s -> s *. 1e3) (summary k_epoch).Spans.durations_s
    in
    let pct q = Option.value ~default:0. (Stats.percentile epoch_ms q) in
    let ws = summary Wrap.k_write_stream and w1 = summary Wrap.k_write in
    let stream_writes = float_of_int ws.Spans.work_done in
    let per_op_writes = float_of_int w1.Spans.work_done in
    let traced_results = List.map (fun (r, _, _) -> r) passes in
    let gc_runs, relocated, programmed =
      List.fold_left
        (fun (g, r, p) (_, (g', r', p'), _) -> (g + g', r + r', p +. p'))
        (0, 0, 0.) passes
    in
    let host =
      List.fold_left
        (fun acc ((r : Fleet.result), _) -> acc + r.Fleet.total_host_writes)
        0 traced_results
    in
    let imbalance =
      Stats.mean (Array.of_list (List.map (fun (_, _, i) -> i) passes))
    in
    let metrics =
      [
        ("experiments.fleet_self_s", List.assoc "experiments" layers);
        ("parallel.imbalance", imbalance);
        ("parallel.idle_share", idle /. (workers *. section.Spans.total_s));
        ("workload.self_s", List.assoc "workload" layers);
        ("workload.epoch_ms_p50", pct 0.5);
        ("workload.epoch_ms_p99", pct 0.99);
        ("workload.epoch_samples", float_of_int (Array.length epoch_ms));
        ("device.write_stream_calls", float_of_int ws.Spans.calls);
        ( "device.writes_per_stream_call",
          stream_writes /. float_of_int (Stdlib.max 1 ws.Spans.calls) );
        ("device.write_stream_s", ws.Spans.total_s /. workers);
        ( "device.fast_path_share",
          stream_writes /. Float.max 1. (stream_writes +. per_op_writes) );
        ("obs.observe_s", (summary k_observe).Spans.total_s /. workers);
        ("obs.merge_s", (summary k_merge).Spans.total_s);
        ("device.create_s", (summary Wrap.k_create).Spans.total_s /. workers);
        ("ftl.gc_runs", float_of_int gc_runs);
        ("ftl.relocated_opages", float_of_int relocated);
        ( "ftl.write_amplification",
          programmed /. float_of_int (Stdlib.max 1 host) );
        ("flash.program_ns", rung_flash cfg);
        ("ftl.write_stream_ns", rung_ftl cfg);
        ("device.write_stream_ns", rung_device cfg);
        ("workload.run_epoch_ns", rung_workload cfg);
        ("experiments.fleet_ns", rung_fleet cfg);
      ]
    in
    {
      Harness.metrics;
      layers;
      wall_s;
      checks =
        [ ("fleet.traced_loop_matches_fleet_run", traced_results = !last) ];
    }
  in
  {
    Harness.name = "fleet_lifetime";
    seeds = [ seed ];
    setup;
    repeat;
    checks;
    traced;
    teardown = stop_pool;
  }
