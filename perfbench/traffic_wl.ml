(* traffic_tail: the latency headline — one multi-tenant trace replayed
   against baseline, CVSS and RegenS, clean and under media faults, on
   the per-op read/write path (retry ladder, analytic ECC tail, QoS,
   latency histograms).  It never touches [write_stream] or the pool. *)

module D = Ftl.Device_intf
module Traffic_run = Experiments.Traffic_run

type config = {
  tenants : int;
  ops : int;
      (** per trace; the baseline dies between ~140k and ~230k ops depending
          on the trace, and no device may die *)
  traces : int;  (** trace seeds per run *)
  ladder_passes : int;  (** read-ladder passes over the prefilled window *)
}

let full = { tenants = 64; ops = 100_000; traces = 4; ladder_passes = 20 }
let smoke = { tenants = 16; ops = 4_000; traces = 1; ladder_passes = 2 }

(* [Traffic_run]'s fixed cell parameters. *)
let window = 1024
let batch = 16
let kinds = [ `Baseline; `Cvss; `Regens ]
let cells = List.concat_map (fun kind -> [ (kind, false); (kind, true) ]) kinds
let plan = List.assoc "media" Faults.Plan.presets

let media_only plan =
  List.filter
    (function
      | Faults.Plan.Transient_flips _ | Faults.Plan.Sticky_pages _
      | Faults.Plan.Silent_corruption _ ->
          true
      | _ -> false)
    plan

let trace_seeds ~cfg ~seed = List.init cfg.traces (fun i -> (seed * 100) + i)

let spec ~cfg =
  {
    Traffic.Gen.default_spec with
    Traffic.Gen.tenants = cfg.tenants;
    ops = cfg.ops;
    window;
  }

let make_device kind ~rng =
  let geometry = Experiments.Defaults.geometry
  and model = Experiments.Defaults.model in
  match kind with
  | `Baseline ->
      let d = Ftl.Baseline_ssd.create ~geometry ~model ~rng () in
      (D.Packed ((module Ftl.Baseline_ssd), d), Ftl.Baseline_ssd.engine d)
  | `Cvss ->
      let d = Ftl.Cvss.create ~geometry ~model ~rng () in
      (D.Packed ((module Ftl.Cvss), d), Ftl.Cvss.engine d)
  | `Regens ->
      let d =
        Salamander.Device.create
          ~config:
            (Experiments.Defaults.salamander_config
               ~mode:Salamander.Device.Regen_s)
          ~geometry ~model ~rng ()
      in
      (Salamander.Device.pack d, Salamander.Device.engine d)

(* The fields of a [Traffic_run.row] a replay outcome determines. *)
let row_key (r : Traffic_run.row) =
  ( (r.Traffic_run.p50, r.p95, r.p99, r.p999, r.max_us),
    (r.completed, r.throttled, r.violations, r.read_errors) )

let outcome_key (o : Traffic.Replay.outcome) =
  let p q = Traffic.Lathist.percentile o.Traffic.Replay.all q in
  ( (p 0.5, p 0.95, p 0.99, p 0.999, Traffic.Lathist.max o.Traffic.Replay.all),
    ( o.Traffic.Replay.completed,
      o.Traffic.Replay.throttled_ops,
      o.Traffic.Replay.slo_violations,
      o.Traffic.Replay.read_errors ) )

(* --- traced cell ---------------------------------------------------------

   [Traffic_run]'s cell re-stated from the benchmark's side (same device
   stream, prefill, population, injector and replay configuration), so
   the replay can run against a timed device with a timed batch hook. *)

let k_cell = Spans.kind ~layer:"experiments" "experiments.traffic_cell"
let k_replay = Spans.kind ~layer:"traffic" "traffic.replay"
let k_inject = Spans.kind ~layer:"faults" "faults.inject"

type cell_out = {
  outcome : Traffic.Replay.outcome;
  replay_s : float;
  batch_gaps_ns : int list;
  pages : (int * int * float) array;  (** programmed (block, page, rber) *)
  policy : Ftl.Policy.t;
  counts : D.bg_stats;
  programmed : float;  (** oPages programmed: WA x host writes *)
  host : int;
}

let run_cell ~traced ~cfg ~trace ~seed (kind, chaos) =
  let span k f = if traced then Spans.span k f else f () in
  span k_cell @@ fun () ->
  let kind_index = match kind with `Baseline -> 0 | `Cvss -> 1 | `Regens -> 2 in
  let bare, engine =
    span Wrap.k_create (fun () ->
        make_device kind ~rng:(Sim.Rng.create (seed + (17 * (kind_index + 1)))))
  in
  let chip = Ftl.Engine.chip engine in
  let prefill = Stdlib.min window (D.logical_capacity bare) in
  ignore (D.write_many bare (Array.init prefill (fun i -> (i, i))));
  let spec = spec ~cfg in
  let population =
    Traffic.Tenant.create ~profiles:spec.Traffic.Gen.profiles
      ~tenants:spec.Traffic.Gen.tenants ()
  in
  let injector =
    if chaos then
      Some
        (Faults.Injector.create
           ~rng:(Sim.Rng.create (seed + 1000 + kind_index))
           (media_only plan))
    else None
  in
  let inject inj ~batch =
    List.iter
      (function
        | Faults.Injector.Inject { block; page; fault } ->
            Flash.Chip.inject chip ~block ~page fault
        | Faults.Injector.Kill_device _ | Faults.Injector.Power_cut -> ())
      (Faults.Injector.step inj ~geometry:(Flash.Chip.geometry chip) ~step:batch)
  in
  let gaps = ref [] and last = ref 0 in
  let on_batch =
    if traced then
      Some
        (fun ~batch ->
          let now = Spans.now_ns () in
          if !last > 0 then gaps := (now - !last) :: !gaps;
          last := now;
          Option.iter (fun inj -> Spans.span k_inject (fun () -> inject inj ~batch)) injector)
    else Option.map inject injector
  in
  let device = if traced then Wrap.device bare else bare in
  let outcome, replay_s =
    Spans.time (fun () ->
        span k_replay (fun () ->
            Traffic.Replay.run
              ~config:{ Traffic.Replay.default_config with Traffic.Replay.batch }
              ~qos:Traffic.Qos.default_config
              ~intensity:(fun ~op -> Traffic.Gen.intensity spec ~op)
              ?on_batch ~population ~trace ~device ()))
  in
  let g = Flash.Chip.geometry chip in
  let pages = ref [] in
  for block = 0 to g.Flash.Geometry.blocks - 1 do
    for page = 0 to g.Flash.Geometry.pages_per_block - 1 do
      if not (Flash.Chip.is_free chip ~block ~page) then
        pages := (block, page, Flash.Chip.rber chip ~block ~page) :: !pages
    done
  done;
  let host = D.host_writes bare in
  {
    outcome;
    replay_s;
    batch_gaps_ns = !gaps;
    pages = Array.of_list !pages;
    policy = Ftl.Engine.policy engine;
    counts = D.bg_stats bare;
    programmed = D.write_amplification bare *. float_of_int host;
    host;
  }

(* --- read ladder ---------------------------------------------------------

   The same reads — [ladder_passes] passes over a RegenS device whose
   window was prefilled the way every cell prefills it — issued at the
   chip and at the FTL.  With the ECC tail timed over the replayed
   pages, the device's own read calls and the replayer's per-op cost,
   this gives the read path's cost one layer at a time. *)

let ladder_device rep =
  let bare, engine = make_device `Regens ~rng:(Sim.Rng.create (4242 + rep)) in
  let prefill = Stdlib.min window (D.logical_capacity bare) in
  ignore (D.write_many bare (Array.init prefill (fun i -> (i, i))));
  ignore (Ftl.Engine.flush engine);
  (engine, Array.of_list (Ftl.Engine.live_entries engine))

let rung_flash_read cfg =
  Harness.ns_per ~prepare:ladder_device (fun (engine, entries) ->
      let chip = Ftl.Engine.chip engine in
      for _ = 1 to cfg.ladder_passes do
        Array.iter
          (fun (_, (loc : Ftl.Location.t)) ->
            ignore
              (Flash.Chip.read_slot_int chip ~block:loc.Ftl.Location.block
                 ~page:loc.Ftl.Location.page ~slot:loc.Ftl.Location.slot))
          entries
      done;
      cfg.ladder_passes * Array.length entries)

let rung_ftl_read cfg =
  Harness.ns_per ~prepare:ladder_device (fun (engine, entries) ->
      for _ = 1 to cfg.ladder_passes do
        Array.iter
          (fun (logical, _) -> ignore (Ftl.Engine.read engine ~logical))
          entries
      done;
      cfg.ladder_passes * Array.length entries)

(* The policy's fail-probability function over the RBERs the replayed
   pages ended at, and the share of them whose tail is exactly 0. *)
let ecc_tail outs =
  let calls = ref 0 and zeros = ref 0 in
  List.iter
    (fun o ->
      Array.iter
        (fun (block, page, rber) ->
          incr calls;
          if o.policy.Ftl.Policy.read_fail_prob ~rber ~block ~page = 0. then
            incr zeros)
        o.pages)
    outs;
  let passes = Stdlib.max 1 (100_000 / Stdlib.max 1 !calls) in
  let ns =
    Harness.ns_per ~prepare:ignore (fun () ->
        let sink = ref 0. in
        for _ = 1 to passes do
          List.iter
            (fun o ->
              Array.iter
                (fun (block, page, rber) ->
                  sink :=
                    !sink +. o.policy.Ftl.Policy.read_fail_prob ~rber ~block ~page)
                o.pages)
            outs
        done;
        ignore (Sys.opaque_identity !sink);
        passes * !calls)
  in
  (ns, float_of_int !zeros /. float_of_int (Stdlib.max 1 !calls))

(* --- the workload ------------------------------------------------------- *)

let make ?(cfg = full) ~seed () =
  let seeds = trace_seeds ~cfg ~seed in
  let traces = ref [] in
  let generate_s = ref [] in
  let setup () =
    let t, s =
      Spans.time (fun () ->
          List.map
            (fun s ->
              (s, Traffic_run.make_trace ~tenants:cfg.tenants ~ops:cfg.ops ~seed:s))
            seeds)
    in
    traces := t;
    generate_s := s :: !generate_s
  in
  let last = ref [] in
  let repeat () =
    let runs =
      List.map
        (fun (s, trace) ->
          Harness.with_report (fun fmt ->
              Traffic_run.run ~tenants:cfg.tenants ~ops:cfg.ops ~seed:s ~trace
                fmt))
        !traces
    in
    let rows = List.concat_map fst runs in
    last := rows;
    let failed =
      List.length
        (List.filter (fun (r : Traffic_run.row) -> r.Traffic_run.completed < cfg.ops) rows)
    in
    {
      Harness.ops =
        List.fold_left (fun acc (r : Traffic_run.row) -> acc + r.Traffic_run.completed) 0 rows;
      units = List.length cells * List.length !traces;
      failed;
      digest = Harness.digest_of_string (String.concat "" (List.map snd runs));
    }
  in
  let all_cells ~traced =
    List.concat_map
      (fun (s, trace) ->
        List.map (fun cell -> run_cell ~traced ~cfg ~trace ~seed:s cell) cells)
      !traces
  in
  (* The replayer stops early only when the device dies. *)
  let checks () =
    [
      ( "traffic.every_cell_completes_without_death",
        !last <> []
        && List.for_all
             (fun (r : Traffic_run.row) -> r.Traffic_run.completed = cfg.ops)
             !last );
    ]
  in
  let traced () =
    let untraced = all_cells ~traced:false in
    Spans.reset ();
    let outs, wall_s = Spans.time (fun () -> all_cells ~traced:true) in
    let summary = Spans.summary in
    let layers =
      Harness.layer_table
        (List.map Harness.self_of
           [ k_cell; Wrap.k_create; k_replay; k_inject; Wrap.k_read; Wrap.k_write;
             Wrap.k_trim; Wrap.k_bg_stats ])
    in
    let gaps_us =
      Array.of_list
        (List.concat_map
           (fun o -> List.map (fun ns -> float_of_int ns /. 1e3) o.batch_gaps_ns)
           outs)
    in
    let pct q = Option.value ~default:0. (Stats.percentile gaps_us q) in
    let per_call k =
      let s = summary k in
      (float_of_int s.Spans.calls, s.Spans.total_s *. 1e9 /. float_of_int (Stdlib.max 1 s.Spans.calls))
    in
    let read_calls, read_ns = per_call Wrap.k_read in
    let write_calls, write_ns = per_call Wrap.k_write in
    let bg_calls, bg_ns = per_call Wrap.k_bg_stats in
    let fail_prob_ns, zero_share = ecc_tail outs in
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outs in
    let ops = sum (fun o -> o.outcome.Traffic.Replay.completed) in
    let replay_s = List.fold_left (fun acc o -> acc +. o.replay_s) 0. untraced in
    let metrics =
      [
        ("traffic.replay_self_s", (summary k_replay).Spans.self_s);
        ("traffic.batch_us_p50", pct 0.5);
        ("traffic.batch_us_p99", pct 0.99);
        ("traffic.batch_samples", float_of_int (Array.length gaps_us));
        ("device.read_calls", read_calls);
        ("device.read_ns", read_ns);
        ("device.write_calls", write_calls);
        ("device.write_ns", write_ns);
        ("device.bg_stats_calls", bg_calls);
        ("device.bg_stats_ns", bg_ns);
        ("faults.inject_s", (summary k_inject).Spans.total_s);
        ("ecc.fail_prob_ns", fail_prob_ns);
        ("ecc.zero_tail_share", zero_share);
        ("traffic.generate_s", Stats.median (Array.of_list !generate_s));
        ("ftl.gc_runs", float_of_int (sum (fun o -> o.counts.D.gc_runs)));
        ("ftl.relocated_opages", float_of_int (sum (fun o -> o.counts.D.relocated_opages)));
        ( "ftl.write_amplification",
          List.fold_left (fun acc o -> acc +. o.programmed) 0. outs
          /. float_of_int (Stdlib.max 1 (sum (fun o -> o.host))) );
        ("flash.read_ns", rung_flash_read cfg);
        ("ftl.read_ns", rung_ftl_read cfg);
        ("traffic.replay_ns", replay_s *. 1e9 /. float_of_int (Stdlib.max 1 ops));
      ]
    in
    {
      Harness.metrics;
      layers;
      wall_s;
      checks =
        [
          ( "traffic.traced_replay_matches_untraced",
            List.map (fun o -> outcome_key o.outcome) outs
            = List.map row_key !last
            && List.map (fun o -> outcome_key o.outcome) untraced
               = List.map row_key !last );
        ];
    }
  in
  {
    Harness.name = "traffic_tail";
    seeds;
    setup;
    repeat;
    checks;
    traced;
    teardown = ignore;
  }
