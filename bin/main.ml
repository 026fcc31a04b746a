(* The salamander CLI: run paper experiments, age single devices, inspect
   the level table, and evaluate the carbon/TCO models with custom
   parameters. *)

open Cmdliner

let fmt = Format.std_formatter

(* --- telemetry options ------------------------------------------------------ *)

type metrics_format = Table | Prometheus | Jsonl

let metrics_format_conv =
  Arg.enum [ ("table", Table); ("prometheus", Prometheus); ("jsonl", Jsonl) ]

type tel_opts = {
  metrics : string option;
  metrics_format : metrics_format;
  verbosity : int;
}

let tel_opts_term =
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect telemetry while running and write a metric snapshot to \
             $(docv) (\"-\" for stdout).")
  in
  let metrics_format =
    Arg.(
      value
      & opt metrics_format_conv Table
      & info [ "metrics-format"; "format" ] ~docv:"FMT"
          ~doc:"Snapshot format: table, prometheus or jsonl.")
  in
  let verbosity =
    Arg.(
      value & opt int 0
      & info [ "verbosity" ] ~docv:"N"
          ~doc:"Log verbosity: 0 = off, 1 = warnings, 2 = info, 3+ = debug.")
  in
  let make metrics metrics_format verbosity =
    { metrics; metrics_format; verbosity }
  in
  Term.(const make $ metrics $ metrics_format $ verbosity)

let render_snapshot format samples =
  match format with
  | Table -> Format.asprintf "%a" Telemetry.Export.pp_table samples
  | Prometheus -> Telemetry.Export.to_prometheus samples
  | Jsonl -> Telemetry.Export.to_jsonl samples

let write_artifact ~what ~path content =
  try Telemetry.Export.write_file ~path content
  with Sys_error msg ->
    Printf.eprintf "salamander: cannot write %s: %s\n" what msg;
    exit 1

(* Build the registry [f]'s components bind their metric handles against:
   a live one when a snapshot was requested (or when [force_live] — the
   health monitor samples the registry, so it needs real metrics even if
   no snapshot file was asked for), {!Telemetry.Registry.null}
   (collection compiled away) otherwise. *)
let with_telemetry ~force_live opts f =
  Telemetry.Trace.set_level (Telemetry.Trace.level_of_verbosity opts.verbosity);
  if opts.verbosity > 0 then Logs.set_reporter (Logs.format_reporter ());
  match opts.metrics with
  | None ->
      f
        (if force_live then Telemetry.Registry.create ()
         else Telemetry.Registry.null)
  | Some path ->
      let reg = Telemetry.Registry.create () in
      let result = f reg in
      write_artifact ~what:"metrics" ~path
        (render_snapshot opts.metrics_format (Telemetry.Registry.snapshot reg));
      result

(* --- health monitor options ------------------------------------------------- *)

type mon_opts = {
  sample_every : int option;
  timeline : string option;
  timeline_format : [ `Csv | `Jsonl ];
  chrome_trace : string option;
  health : bool;
}

let no_monitor =
  {
    sample_every = None;
    timeline = None;
    timeline_format = `Csv;
    chrome_trace = None;
    health = false;
  }

(* Any monitor flag turns the whole sampling path on; none leaves the
   null-monitor fast path (no live registry, no sampling) untouched. *)
let monitor_active m =
  m.sample_every <> None || m.timeline <> None || m.chrome_trace <> None
  || m.health

let mon_opts_term =
  let sample_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-every" ] ~docv:"N"
          ~doc:
            "Sample device health every $(docv) epochs (fleet days, chaos \
             steps, aging slices).  Implies monitoring; default interval 1.")
  in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write the sampled time series to $(docv) (\"-\" for stdout); \
             byte-identical at any --jobs.")
  in
  let timeline_format =
    Arg.(
      value
      & opt (Arg.enum [ ("csv", `Csv); ("jsonl", `Jsonl) ]) `Csv
      & info [ "timeline-format" ] ~docv:"FMT"
          ~doc:"Timeline format: csv or jsonl.")
  in
  let chrome_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Record structured spans on the simulation clock and write a \
             Chrome trace_event JSON to $(docv) (load via chrome://tracing \
             or Perfetto).")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:"Print the SMART-style per-device health report after the run.")
  in
  let make sample_every timeline timeline_format chrome_trace health =
    { sample_every; timeline; timeline_format; chrome_trace; health }
  in
  Term.(
    const make $ sample_every $ timeline $ timeline_format $ chrome_trace
    $ health)

(* Built-in alert rules on the experiment calibration: device death,
   wear past the rated target, and RBER approaching the default code's
   tolerance.  The hysteresis bands keep a series that oscillates around
   a threshold from spamming transitions. *)
let default_rules () =
  let tolerable =
    (Ftl.Ecc_profile.of_geometry Experiments.Defaults.geometry)
      .Ftl.Ecc_profile.tolerable_rber
  in
  let target = float_of_int Experiments.Defaults.target_pec in
  [
    Monitor.Alert.rule ~direction:Monitor.Alert.Below ~metric:"device_alive"
      ~fire:0.5 ~resolve:0.5 "device-dead";
    Monitor.Alert.rule ~metric:"flash_pec_max" ~fire:target
      ~resolve:(0.9 *. target) "wear-past-target";
    Monitor.Alert.rule ~metric:"flash_rber_worst" ~fire:(0.9 *. tolerable)
      ~resolve:(0.7 *. tolerable) "rber-near-tolerable";
  ]

(* Build the monitor engine when any monitor flag is set, run [f] with
   it, then write the requested artifacts and render the health report. *)
let with_monitor mon f =
  if not (monitor_active mon) then f None
  else begin
    let sink =
      match mon.chrome_trace with
      | Some _ -> Some (Telemetry.Trace.Sink.create ())
      | None -> None
    in
    let engine =
      Monitor.Engine.create ?sample_every:mon.sample_every
        ~rules:(default_rules ()) ?sink ()
    in
    let result = f (Some engine) in
    Option.iter
      (fun path ->
        let sampler = Monitor.Engine.sampler engine in
        let content =
          match mon.timeline_format with
          | `Csv -> Monitor.Timeline.to_csv sampler
          | `Jsonl -> Monitor.Timeline.to_jsonl sampler
        in
        write_artifact ~what:"timeline" ~path content)
      mon.timeline;
    Option.iter
      (fun path ->
        Option.iter
          (fun sink ->
            write_artifact ~what:"trace" ~path
              (Monitor.Chrome_trace.to_string sink))
          (Monitor.Engine.sink engine))
      mon.chrome_trace;
    if mon.health then begin
      let thresholds =
        {
          Monitor.Health.default_thresholds with
          Monitor.Health.target_pec =
            float_of_int Experiments.Defaults.target_pec;
        }
      in
      Monitor.Health.pp fmt
        (Monitor.Health.assess ~thresholds (Monitor.Engine.sampler engine))
    end;
    result
  end

(* --- fleet observability ----------------------------------------------------- *)

type obs_opts = {
  fleet_report : bool;
  top_k : int;
  fleet_json : string option;
}

let no_obs = { fleet_report = false; top_k = 10; fleet_json = None }

(* Either output flag turns the collection on; without them the plane
   stays off (no per-device media scans, no accumulators). *)
let obs_active o = o.fleet_report || o.fleet_json <> None

let obs_opts_term =
  let fleet_report =
    Arg.(
      value & flag
      & info [ "fleet-report" ]
          ~doc:
            "Print the fleet wear-imbalance report after the run: sketch \
             quantiles of per-device wear / spread / worst RBER / retry \
             rate, CV and Gini of the P/E distribution, per-grade counts \
             and the exact top-K worst devices — in O(K) memory however \
             large the fleet, byte-identical at any --jobs.")
  in
  let top_k =
    Arg.(
      value & opt int 10
      & info [ "top-k" ] ~docv:"K"
          ~doc:"Worst devices kept in the fleet report (exact top-K).")
  in
  let fleet_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "fleet-json" ] ~docv:"FILE"
          ~doc:
            "Write the fleet report as JSONL to $(docv) (\"-\" for stdout); \
             implies collection.")
  in
  let make fleet_report top_k fleet_json = { fleet_report; top_k; fleet_json } in
  Term.(const make $ fleet_report $ top_k $ fleet_json)

(* Build the fleet-report accumulator when requested, run [f] with it,
   then build the report once and emit it to each requested output. *)
let with_obs obs ~epoch f =
  if not (obs_active obs) then f None
  else begin
    let thresholds =
      {
        Monitor.Health.default_thresholds with
        Monitor.Health.target_pec = float_of_int Experiments.Defaults.target_pec;
      }
    in
    let acc =
      Obs.Fleet_report.Acc.create ~top_k:(Stdlib.max 1 obs.top_k) ~thresholds ()
    in
    let result = f (Some acc) in
    let report = Obs.Fleet_report.build ~epoch acc in
    if obs.fleet_report then Obs.Fleet_report.pp fmt report;
    Option.iter
      (fun path ->
        write_artifact ~what:"fleet report" ~path
          (Obs.Fleet_report.to_jsonl report))
      obs.fleet_json;
    result
  end

(* --- parallelism ------------------------------------------------------------ *)

let jobs_term =
  let doc =
    "Worker domains for the parallel sections (fleet aging, experiment \
     fan-out).  1 runs everything sequentially; output is byte-identical \
     at any value.  Values above the hardware's recommended domain count \
     are clamped."
  in
  Arg.(
    value
    & opt int (Parallel.Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --- run options ------------------------------------------------------------ *)

type run_opts = {
  tel : tel_opts;
  jobs : int;
  mon : mon_opts;
  obs : obs_opts;
}

(* Every command's run flags in one term.  A command without the
   parallel, monitor or fleet-report flags gets 1 / [no_monitor] /
   [no_obs] fixed, so each command exposes exactly its own flags. *)
let run_opts_term ~jobs ~mon ~obs =
  let make tel jobs mon obs = { tel; jobs; mon; obs } in
  Term.(
    const make $ tel_opts_term
    $ (if jobs then jobs_term else const 1)
    $ (if mon then mon_opts_term else const no_monitor)
    $ (if obs then obs_opts_term else const no_obs))

(* Telemetry + execution context: spin up a scoped pool when parallel
   and hand [f] a ready-to-thread [Ctx.t].  An explicit [--jobs n] is
   honored even beyond the recommended domain count (the default already
   respects it): oversubscription only costs scheduling, and running the
   real multi-domain path everywhere is what the determinism guarantee
   is tested against. *)
let with_context ?(epoch = "run") opts f =
  with_monitor opts.mon @@ fun monitor ->
  with_obs opts.obs ~epoch @@ fun obs ->
  with_telemetry ~force_live:(Option.is_some monitor) opts.tel
  @@ fun registry ->
  match Stdlib.max 1 opts.jobs with
  | 1 -> f (Experiments.Ctx.make ~registry ?monitor ?obs ())
  | domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          f (Experiments.Ctx.make ~registry ~pool ?monitor ?obs ()))

(* --- experiments ----------------------------------------------------------- *)

let experiment_ids = List.map fst Experiments.All.experiments

let experiments_cmd =
  let only =
    let doc =
      Printf.sprintf "Run a single experiment: one of %s."
        (String.concat ", " experiment_ids)
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc)
  in
  let run opts only =
    match only with
    | None ->
        with_context opts (fun ctx -> Experiments.All.run ~ctx fmt);
        `Ok ()
    | Some id -> (
        match List.assoc_opt id Experiments.All.experiments with
        | Some runner ->
            with_context opts (fun ctx ->
                Telemetry.Trace.with_span
                  ~registry:ctx.Experiments.Ctx.registry
                  ("experiment:" ^ id)
                  (fun () -> runner ctx fmt));
            `Ok ()
        | None ->
            `Error
              (false, Printf.sprintf "unknown experiment %s (try one of %s)"
                 id
                 (String.concat ", " experiment_ids)))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (DESIGN.md index)")
    Term.(
      ret (const run $ run_opts_term ~jobs:true ~mon:false ~obs:false $ only))

(* --- shared arguments ------------------------------------------------------- *)

let kind_conv =
  Arg.enum
    [ ("baseline", `Baseline); ("cvss", `Cvss); ("shrinks", `Shrinks);
      ("regens", `Regens) ]

let kind_term =
  Arg.(
    value
    & opt kind_conv `Regens
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Device design: baseline, cvss, shrinks or regens.")

let seed_term default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* --- age a single device ----------------------------------------------------- *)

let age_cmd =
  let utilization =
    Arg.(
      value & opt float 0.85
      & info [ "utilization" ] ~docv:"FRACTION"
          ~doc:"Fraction of exported capacity kept live.")
  in
  let run opts kind seed utilization =
    with_context opts @@ fun ctx ->
    let registry = ctx.Experiments.Ctx.registry in
    let device = Experiments.Defaults.make_device ~registry kind ~seed in
    let pattern =
      Workload.Pattern.uniform
        ~window:
          (Stdlib.max 1
             (int_of_float
                (utilization
                *. float_of_int (Ftl.Device_intf.logical_capacity device))))
        ~read_fraction:0.05
    in
    let max_writes = 50_000_000 in
    let rng = Sim.Rng.create (seed + 1) in
    let age quota =
      Workload.Aging.run_epoch ~quota ~utilization ~rng ~pattern ~device ()
    in
    (* One outcome per aging slice; the report sums them. *)
    let slices =
      match ctx.Experiments.Ctx.monitor with
      | None ->
          [
            Telemetry.Trace.with_span ~registry "age" (fun () ->
                age max_writes);
          ]
      | Some monitor ->
          (* Same workload stream, cut into fixed write slices so the
             monitor can sample the registry between them: one epoch =
             [epoch_writes] accepted host writes. *)
          let sink = Monitor.Engine.sink monitor in
          let epoch_writes = 4096 in
          let alive_g =
            Telemetry.Registry.gauge registry
              ~help:"1 while the device still accepts writes" "device_alive"
          and cap_g =
            Telemetry.Registry.gauge registry
              ~help:"Current logical capacity in oPages"
              "device_capacity_opages"
          in
          let sample epoch =
            Telemetry.Registry.Gauge.set alive_g
              (if Ftl.Device_intf.alive device then 1. else 0.);
            Telemetry.Registry.Gauge.set cap_g
              (float_of_int (Ftl.Device_intf.logical_capacity device));
            Monitor.Engine.sample monitor ~time:(float_of_int epoch) registry
          in
          Telemetry.Trace.with_span ~registry ?sink "age" (fun () ->
              sample 0;
              let rec slice epoch written aged =
                let o =
                  Telemetry.Trace.with_span ?sink
                    ~args:[ ("epoch", string_of_int epoch) ]
                    "age:epoch"
                    (fun () -> age epoch_writes)
                in
                let written = written + o.Workload.Aging.host_writes in
                let finished =
                  o.Workload.Aging.died || o.Workload.Aging.host_writes = 0
                  || written >= max_writes
                in
                if Monitor.Engine.due monitor ~tick:epoch || finished then
                  sample epoch;
                if finished then List.rev (o :: aged)
                else slice (epoch + 1) written (o :: aged)
              in
              slice 1 0 [])
    in
    let total field = List.fold_left (fun n o -> n + field o) 0 slices in
    Experiments.Report.section fmt
      (Printf.sprintf "aging %s (seed %d)" (Ftl.Device_intf.label device) seed);
    Experiments.Report.table fmt
      ~header:[ "metric"; "value" ]
      ~rows:
        [
          [ "initial capacity (oPages)";
            string_of_int (Ftl.Device_intf.initial_capacity device) ];
          [ "host writes accepted";
            string_of_int (total (fun o -> o.Workload.Aging.host_writes)) ];
          [ "reads"; string_of_int (total (fun o -> o.Workload.Aging.reads)) ];
          [ "unmapped reads";
            string_of_int (total (fun o -> o.Workload.Aging.unmapped_reads)) ];
          [ "uncorrectable reads";
            string_of_int
              (total (fun o -> o.Workload.Aging.uncorrectable_reads)) ];
          [ "died of wear";
            string_of_bool
              (List.exists (fun o -> o.Workload.Aging.died) slices) ];
          [ "write amplification";
            Experiments.Report.cell_f
              (Ftl.Device_intf.write_amplification device) ];
        ]
  in
  Cmd.v
    (Cmd.info "age" ~doc:"Age one device to death and report its endurance")
    Term.(
      const run $ run_opts_term ~jobs:true ~mon:true ~obs:false $ kind_term
      $ seed_term 42 $ utilization)

(* --- fleet ------------------------------------------------------------------ *)

let fleet_args =
  let days =
    Arg.(value & opt int 150 & info [ "days" ] ~docv:"DAYS" ~doc:"Scaled days.")
  in
  let years =
    Arg.(
      value
      & opt (some int) None
      & info [ "years" ] ~docv:"YEARS"
          ~doc:
            "Simulate $(docv) years (365 scaled days each); overrides \
             --days.  Multi-year runs usually pair this with --epoch-days \
             to coalesce the day loop.")
  in
  let epoch_days =
    Arg.(
      value & opt int 1
      & info [ "epoch-days" ] ~docv:"D"
          ~doc:
            "Coalesce $(docv) simulated days into one aging epoch: one \
             write quota, one failure draw and one telemetry/monitor \
             sample per epoch.  The default 1 reproduces the per-day loop \
             exactly.")
  in
  let aging =
    Arg.(
      value
      & opt (enum [ ("auto", Workload.Aging.Auto); ("per-op", Workload.Aging.Per_op) ])
          Workload.Aging.Auto
      & info [ "aging" ] ~docv:"PATH"
          ~doc:
            "Aging driver: $(b,auto) uses the bulk-aging fast path (the \
             default; bit-exact with per-op), $(b,per-op) forces one \
             device call per write (the differential oracle).")
  in
  let devices =
    Arg.(
      value
      & opt int Experiments.Defaults.fleet_devices
      & info [ "devices" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let dwpd =
    Arg.(
      value & opt float 1.
      & info [ "dwpd" ] ~docv:"X" ~doc:"Drive writes per day per device.")
  in
  let mode =
    Arg.(
      value
      & opt (some kind_conv) None
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Restrict the run to one device design (baseline, cvss, shrinks \
             or regens); default compares all four.  The single-design form \
             is the one that scales to --devices 100000.")
  in
  (days, years, epoch_days, aging, devices, dwpd, mode)

let fleet_run ~force_report opts days years epoch_days aging devices dwpd
    mode =
  let opts =
    if force_report then
      { opts with obs = { opts.obs with fleet_report = true } }
    else opts
  in
  let total_days =
    match years with Some y -> y * 365 | None -> days
  in
  with_context ~epoch:(Printf.sprintf "%dd" total_days) opts (fun ctx ->
      Experiments.Fig3ab.run ~days:total_days ~devices ~dwpd ~aging
        ~epoch_days
        ?kinds:(Option.map (fun k -> [ k ]) mode)
        ~ctx fmt)

let fleet_cmd =
  let days, years, epoch_days, aging, devices, dwpd, mode = fleet_args in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Fleet aging: alive devices and capacity over time (Figs. 3a/3b)")
    Term.(
      const (fleet_run ~force_report:false)
      $ run_opts_term ~jobs:true ~mon:true ~obs:true
      $ days $ years $ epoch_days $ aging $ devices $ dwpd $ mode)

let fleet_report_cmd =
  let days, years, epoch_days, aging, devices, dwpd, mode = fleet_args in
  Cmd.v
    (Cmd.info "fleet-report"
       ~doc:
         "Age a fleet and print its wear-imbalance report (the fleet command \
          with --fleet-report forced on): sketch quantiles, CV/Gini, health \
          grades and the exact top-K worst devices in O(K) memory")
    Term.(
      const (fleet_run ~force_report:true)
      $ run_opts_term ~jobs:true ~mon:true ~obs:true
      $ days $ years $ epoch_days $ aging $ devices $ dwpd $ mode)

(* --- stats ------------------------------------------------------------------ *)

let stats_cmd =
  let writes =
    Arg.(
      value & opt int 200_000
      & info [ "writes" ] ~docv:"N"
          ~doc:"Host writes to issue before snapshotting.")
  in
  let run opts kind seed writes =
    (* [stats] exists to print a snapshot, so collection is always on;
       default destination is stdout. *)
    let metrics = Some (Option.value opts.tel.metrics ~default:"-") in
    with_context { opts with tel = { opts.tel with metrics } } @@ fun ctx ->
    let registry = ctx.Experiments.Ctx.registry in
    Telemetry.Trace.with_span ~registry "stats" @@ fun () ->
    let utilization = 0.85 in
    let device = Experiments.Defaults.make_device ~registry kind ~seed in
    let pattern =
      Workload.Pattern.uniform
        ~window:
          (Stdlib.max 1
             (int_of_float
                (utilization
                *. float_of_int (Ftl.Device_intf.logical_capacity device))))
        ~read_fraction:0.2
    in
    ignore
      (Workload.Aging.run_epoch ~quota:writes ~utilization
         ~rng:(Sim.Rng.create (seed + 1))
         ~pattern ~device ())
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Exercise one device briefly and dump its full metric snapshot \
          (counters, gauges, latency histograms)")
    Term.(
      const run $ run_opts_term ~jobs:false ~mon:false ~obs:false $ kind_term
      $ seed_term 42 $ writes)

(* --- chaos ------------------------------------------------------------------ *)

let chaos_cmd =
  let plan =
    Arg.(
      value & opt string "default"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a preset (none, default, media, crashy, killer, \
             sticky, silent, live-recovery) or a comma-separated spec list, \
             e.g. \
             $(b,transient=0.05@0.1,sticky=0.01,silent=0.02,corr@400:3,kill@600:1,crash@800).")
  in
  let steps =
    Arg.(
      value & opt int 1000
      & info [ "steps" ] ~docv:"N" ~doc:"Workload steps per cell.")
  in
  let run opts plan seed steps =
    match Faults.Plan.parse plan with
    | Error msg -> `Error (false, msg)
    | Ok plan ->
        let ok =
          with_context ~epoch:(Printf.sprintf "chaos-%dsteps" steps) opts
            (fun ctx ->
              Telemetry.Trace.with_span
                ~registry:ctx.Experiments.Ctx.registry "chaos" (fun () ->
                  Experiments.Chaos.run ~ctx ~plan ~seed ~steps fmt))
        in
        if ok then `Ok () else `Error (false, "chaos verdict: FAIL")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a deterministic fault-injection campaign and check the \
          tolerance invariants (byte-identical at any --jobs)")
    Term.(
      ret
        (const run $ run_opts_term ~jobs:true ~mon:true ~obs:true $ plan
        $ seed_term 42 $ steps))

(* --- traffic ----------------------------------------------------------------- *)

let traffic_cmd =
  let tenants =
    Arg.(
      value & opt int 64
      & info [ "tenants" ] ~docv:"N" ~doc:"Simulated tenants issuing the mix.")
  in
  let ops =
    Arg.(
      value & opt int 12_000
      & info [ "ops" ] ~docv:"N" ~doc:"Trace length in accesses.")
  in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"N"
          ~doc:"Ops per submission batch (1 = per-op submission).")
  in
  let qos =
    Arg.(
      value & opt bool true
      & info [ "qos" ] ~docv:"BOOL"
          ~doc:"Per-tenant token-bucket QoS (weighted bandwidth sharing).")
  in
  let plan =
    Arg.(
      value & opt string "media"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan for the chaos cells (media faults only; kills and \
             crashes are filtered out).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Replay this trace file (salamander-trace v1) instead of \
             generating one; --tenants/--ops/--seed still shape pacing and \
             the tenant population.")
  in
  let emit_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-trace" ] ~docv:"FILE"
          ~doc:"Also write the trace being replayed to $(docv).")
  in
  let latency_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "latency-json" ] ~docv:"FILE"
          ~doc:
            "Write the latency-percentile table as JSON to $(docv) (\"-\" \
             for stdout).")
  in
  let run opts tenants ops seed batch qos plan trace_file emit_trace
      latency_json =
    match Faults.Plan.parse plan with
    | Error msg -> `Error (false, msg)
    | Ok plan -> (
        let trace =
          match trace_file with
          | Some path -> Workload.Trace.of_file ~path
          | None -> Ok (Experiments.Traffic_run.make_trace ~tenants ~ops ~seed)
        in
        match trace with
        | Error msg -> `Error (false, msg)
        | Ok trace ->
            Option.iter
              (fun path ->
                write_artifact ~what:"workload trace" ~path
                  (Workload.Trace.to_string trace))
              emit_trace;
            let rows =
              with_context ~epoch:(Printf.sprintf "traffic-%dops" ops) opts
                (fun ctx ->
                  Telemetry.Trace.with_span
                    ~registry:ctx.Experiments.Ctx.registry "traffic"
                    (fun () ->
                      Experiments.Traffic_run.run ~ctx ~tenants ~ops ~seed
                        ~batch ~qos ~plan ~trace fmt))
            in
            Option.iter
              (fun path ->
                write_artifact ~what:"latency table" ~path
                  (Experiments.Traffic_run.rows_to_json rows ^ "\n"))
              latency_json;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Replay a multi-tenant trace against all device designs and report \
          per-tenant QoS plus p50/p95/p99/p999 latency (byte-identical at \
          any --jobs)")
    Term.(
      ret
        (const run $ run_opts_term ~jobs:true ~mon:false ~obs:true $ tenants
        $ ops $ seed_term 42 $ batch $ qos $ plan $ trace_file $ emit_trace
        $ latency_json))

(* --- monitor ----------------------------------------------------------------- *)

let monitor_cmd =
  let devices =
    Arg.(value & opt int 6 & info [ "devices" ] ~docv:"N" ~doc:"Fleet size.")
  in
  let days =
    Arg.(value & opt int 25 & info [ "days" ] ~docv:"DAYS" ~doc:"Scaled days.")
  in
  let dwpd =
    Arg.(
      value & opt float 2.
      & info [ "dwpd" ] ~docv:"X" ~doc:"Drive writes per day per device.")
  in
  let run opts kind devices days dwpd seed =
    (* This command exists to monitor, so monitoring is always on: default
       to a health report when no monitor flag picked an output. *)
    let mon = opts.mon in
    let mon = if monitor_active mon then mon else { mon with health = true } in
    with_context { opts with mon } (fun ctx ->
        ignore
          (Experiments.Monitor_run.run ~kind ~devices ~days ~dwpd ~seed ~ctx
             fmt))
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Age a wear-heavy fleet under the longitudinal health monitor and \
          report per-device health, alerts, timelines and traces \
          (byte-identical at any --jobs)")
    Term.(
      const run $ run_opts_term ~jobs:true ~mon:true ~obs:false $ kind_term
      $ devices $ days $ dwpd
      $ seed_term Experiments.Defaults.fleet_seed)

(* --- levels ------------------------------------------------------------------ *)

let levels_cmd =
  let max_level =
    Arg.(
      value & opt int 3
      & info [ "max-level" ] ~docv:"L" ~doc:"Deepest usable tiredness level.")
  in
  let run max_level =
    let profile =
      Salamander.Tiredness.profile ~max_level
        Experiments.Defaults.reference_geometry
    in
    Experiments.Report.section fmt "tiredness level table (16 KiB fPage)";
    for level = 0 to Salamander.Tiredness.dead_level profile do
      Format.fprintf fmt "  %a@." (Salamander.Tiredness.pp_level profile) level
    done
  in
  Cmd.v
    (Cmd.info "levels" ~doc:"Print the tiredness level/code-rate table")
    Term.(const run $ max_level)

(* --- carbon / tco ------------------------------------------------------------- *)

let carbon_cmd =
  let f_op =
    Arg.(
      value
      & opt float Sustain.Params.f_op_ssd_servers
      & info [ "f-op" ] ~docv:"F" ~doc:"Operational fraction of emissions.")
  in
  let lifetime =
    Arg.(
      value & opt float 1.5
      & info [ "lifetime-factor" ] ~docv:"X"
          ~doc:"Lifetime extension factor of the evaluated design.")
  in
  let run f_op lifetime =
    let scenario =
      {
        Sustain.Carbon.label = Printf.sprintf "lifetime %.2fx" lifetime;
        f_op;
        power_effectiveness = Sustain.Params.power_effectiveness;
        upgrade_rate =
          Sustain.Carbon.adjusted_upgrade_rate ~lifetime_factor:lifetime
            ~adjustment:Sustain.Params.capacity_adjustment;
      }
    in
    Experiments.Report.section fmt "carbon model (Eq. 3)";
    Experiments.Report.table fmt
      ~header:[ "configuration"; "f_op"; "Ru"; "CO2e vs baseline"; "savings" ]
      ~rows:
        [
          [
            scenario.Sustain.Carbon.label;
            Experiments.Report.cell_f f_op;
            Experiments.Report.cell_f scenario.Sustain.Carbon.upgrade_rate;
            Experiments.Report.cell_f
              (Sustain.Carbon.relative_footprint scenario);
            Experiments.Report.cell_pct (Sustain.Carbon.savings scenario);
          ];
        ]
  in
  Cmd.v
    (Cmd.info "carbon" ~doc:"Evaluate Eq. 3 with custom parameters")
    Term.(const run $ f_op $ lifetime)

let tco_cmd =
  let f_opex =
    Arg.(
      value
      & opt float Sustain.Params.f_opex
      & info [ "f-opex" ] ~docv:"F" ~doc:"Operational fraction of TCO.")
  in
  let run f_opex =
    Experiments.Report.section fmt "TCO model (Eq. 4)";
    Experiments.Report.table fmt
      ~header:[ "design"; "TCO vs baseline"; "savings" ]
      ~rows:
        (List.map
           (fun s ->
             [
               s.Sustain.Tco.label;
               Experiments.Report.cell_f (Sustain.Tco.relative_tco s);
               Experiments.Report.cell_pct (Sustain.Tco.savings s);
             ])
           (Sustain.Tco.sensitivity ~f_opex))
  in
  Cmd.v
    (Cmd.info "tco" ~doc:"Evaluate Eq. 4 with custom parameters")
    Term.(const run $ f_opex)

(* --- main ---------------------------------------------------------------------- *)

let () =
  let doc =
    "Salamander: SSDs that shrink and regenerate for longer flash lifespan"
  in
  let info = Cmd.info "salamander" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ experiments_cmd; age_cmd; fleet_cmd; fleet_report_cmd; monitor_cmd;
            stats_cmd; chaos_cmd; traffic_cmd; levels_cmd; carbon_cmd; tco_cmd ]))
