(* Benchmark harness.

   With no arguments this regenerates every table and figure of the paper
   (the per-experiment index in DESIGN.md) and then runs Bechamel
   micro-benchmarks of the hot code paths each experiment leans on.

   With an argument it runs just that piece:
     dune exec bench/main.exe -- fig2
     dune exec bench/main.exe -- micro *)

open Bechamel
open Toolkit

(* --- micro-benchmark subjects ------------------------------------------- *)

let bch_subjects () =
  (* FIG2's substrate: the live codec and the analytic tail. *)
  let code = Ecc.Bch.create ~m:10 ~capability:8 () in
  let rng = Sim.Rng.create 1 in
  let data = Ecc.Bitarray.create 400 in
  Ecc.Bitarray.randomize rng data;
  let parity = Ecc.Bch.encode code data in
  let corrupted () =
    let d = Ecc.Bitarray.copy data and p = Ecc.Bitarray.copy parity in
    List.iter (fun i -> Ecc.Bitarray.flip d (i * 37)) [ 1; 3; 5; 7 ];
    (d, p)
  in
  let params = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  [
    Test.make ~name:"fig2/bch_encode"
      (Staged.stage (fun () -> ignore (Ecc.Bch.encode code data)));
    Test.make ~name:"fig2/bch_decode_4err"
      (Staged.stage (fun () ->
           let d, p = corrupted () in
           ignore (Ecc.Bch.decode code ~data:d ~parity:p)));
    (* The retained naive paths, so BENCH_5.json carries before/after
       numbers for the table-driven hot paths in one run. *)
    Test.make ~name:"fig2/bch_encode_ref"
      (Staged.stage (fun () -> ignore (Ecc.Bch.Reference.encode code data)));
    Test.make ~name:"fig2/bch_decode_4err_ref"
      (Staged.stage (fun () ->
           let d, p = corrupted () in
           ignore (Ecc.Bch.Reference.decode code ~data:d ~parity:p)));
    Test.make ~name:"fig2/binomial_tail"
      (Staged.stage (fun () ->
           ignore (Ecc.Reliability.codeword_fail_prob params ~rber:3e-3)));
  ]

let ftl_subjects () =
  (* The FTL accounting hot path: steady-state GC churn on a nearly full
     device.  Every write lands on a full buffer page boundary or forces
     allocation, so victim selection, free-block picking and capacity
     sums all run against the incremental structures. *)
  let geometry = Experiments.Defaults.geometry in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
  in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 41) ~geometry ~model:gentle ()
  in
  let policy =
    Ftl.Policy.always_fresh
      ~opages_per_fpage:geometry.Flash.Geometry.opages_per_fpage
  in
  let slots =
    geometry.Flash.Geometry.blocks * geometry.Flash.Geometry.pages_per_block
    * geometry.Flash.Geometry.opages_per_fpage
  in
  let logical = slots * 3 / 4 in
  let engine =
    Ftl.Engine.create ~chip ~rng:(Sim.Rng.create 43) ~policy
      ~logical_capacity:logical ()
  in
  for lba = 0 to logical - 1 do
    ignore (Ftl.Engine.write engine ~logical:lba ~payload:lba)
  done;
  ignore (Ftl.Engine.flush engine);
  let cursor = ref 0 in
  [
    Test.make ~name:"ftl/gc_churn"
      (Staged.stage (fun () ->
           cursor := (!cursor + 1) mod logical;
           ignore (Ftl.Engine.write engine ~logical:!cursor ~payload:!cursor)));
    Test.make ~name:"ftl/total_data_slots"
      (Staged.stage (fun () -> ignore (Ftl.Engine.total_data_slots engine)));
  ]

let device_subjects () =
  (* FIG3's substrate: the FTL write path and the Salamander read path. *)
  let geometry = Experiments.Defaults.geometry in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
  in
  let device =
    Salamander.Device.create
      ~config:
        (Experiments.Defaults.salamander_config
           ~mode:Salamander.Device.Regen_s)
      ~geometry ~model:gentle ~rng:(Sim.Rng.create 3) ()
  in
  let mdisk =
    (List.hd (Salamander.Device.active_mdisks device)).Salamander.Minidisk.id
  in
  for lba = 0 to 63 do
    ignore (Salamander.Device.write device ~mdisk ~lba ~payload:lba)
  done;
  Salamander.Device.flush device;
  let cursor = ref 0 in
  [
    Test.make ~name:"fig3/salamander_write"
      (Staged.stage (fun () ->
           cursor := (!cursor + 1) land 63;
           ignore
             (Salamander.Device.write device ~mdisk ~lba:!cursor ~payload:1)));
    Test.make ~name:"fig3/salamander_read"
      (Staged.stage (fun () ->
           cursor := (!cursor + 1) land 63;
           ignore (Salamander.Device.read device ~mdisk ~lba:!cursor)));
  ]

let cluster_subjects () =
  (* TAB-RECOV's substrate: the replicated chunk write path. *)
  let cluster = Difs.Cluster.create () in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
  in
  List.iter
    (fun i ->
      let d =
        Salamander.Device.create
          ~config:
            (Experiments.Defaults.salamander_config
               ~mode:Salamander.Device.Regen_s)
          ~geometry:Experiments.Defaults.geometry ~model:gentle
          ~rng:(Sim.Rng.create (100 + i)) ()
      in
      ignore (Difs.Cluster.add_device cluster ~node:i (Difs.Cluster.Salamander d)))
    [ 0; 1; 2; 3 ];
  let id = ref 0 in
  [
    Test.make ~name:"recovery/cluster_write_chunk"
      (Staged.stage (fun () ->
           id := (!id + 1) land 31;
           ignore (Difs.Cluster.write_chunk cluster !id)));
  ]

let service_subjects () =
  (* AB-QUEUE's substrate: the channel/die queueing model. *)
  let engine = Sim.Engine.create () in
  let service = Flash.Service.create ~engine Flash.Service.default_config in
  let rng = Sim.Rng.create 17 in
  [
    Test.make ~name:"ablations/service_submit"
      (Staged.stage (fun () ->
           Flash.Service.submit service
             ~pages:
               [
                 {
                   Flash.Service.die_hint = Sim.Rng.int rng 64;
                   sense_us = 60.;
                   transfer_us = 4.;
                 };
               ]
             ~on_complete:(fun ~latency_us:_ -> ());
           ignore (Sim.Engine.step engine)));
  ]

let disturb_subjects () =
  (* TAB-UBER's substrate: the read path with disturb accounting. *)
  let model =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1000
      ~read_disturb_per_read:1e-8 ()
  in
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 23)
      ~geometry:Experiments.Defaults.geometry ~model ()
  in
  Flash.Chip.program chip ~block:0 ~page:0 [| Some 1; Some 2; Some 3; Some 4 |];
  [
    Test.make ~name:"uber/chip_read_with_disturb"
      (Staged.stage (fun () ->
           ignore (Flash.Chip.read_slot chip ~block:0 ~page:0 ~slot:0);
           ignore (Flash.Chip.rber chip ~block:0 ~page:0)));
  ]

let fleet_subjects () =
  (* FIG3A/B's substrate: one scaled fleet day for a small RegenS group. *)
  [
    Test.make ~name:"fig3ab/fleet_day"
      (Staged.stage (fun () ->
           ignore (Experiments.Fleet.run ~devices:2 ~days:1 ~seed:3 `Regens)));
  ]

let carbon_subjects () =
  [
    Test.make ~name:"fig4/carbon_eq3"
      (Staged.stage (fun () ->
           List.iter
             (fun s -> ignore (Sustain.Carbon.relative_footprint s))
             Sustain.Carbon.paper_scenarios));
    Test.make ~name:"tco/eq4"
      (Staged.stage (fun () ->
           List.iter
             (fun s -> ignore (Sustain.Tco.relative_tco s))
             Sustain.Tco.paper_scenarios));
  ]

let chaos_subjects () =
  (* CHAOS's substrate: the read-retry ladder against a clean-read
     baseline, one scrubber verify slice, and the injector's per-fault
     cost on the chip. *)
  let geometry = Experiments.Defaults.geometry in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
  in
  let make_engine ~fail_prob =
    let chip =
      Flash.Chip.create ~rng:(Sim.Rng.create 29) ~geometry ~model:gentle ()
    in
    let policy =
      {
        (Ftl.Policy.always_fresh
           ~opages_per_fpage:geometry.Flash.Geometry.opages_per_fpage)
        with
        Ftl.Policy.read_fail_prob = (fun ~rber:_ ~block:_ ~page:_ -> fail_prob);
      }
    in
    let engine =
      Ftl.Engine.create ~chip ~rng:(Sim.Rng.create 31) ~policy
        ~logical_capacity:256 ()
    in
    for lba = 0 to 63 do
      ignore (Ftl.Engine.write engine ~logical:lba ~payload:lba)
    done;
    ignore (Ftl.Engine.flush engine);
    engine
  in
  let clean = make_engine ~fail_prob:0. in
  (* Every read fails its first decode with p = 0.5, so the ladder runs
     one retry on average — the steady-state overhead the config buys. *)
  let flaky = make_engine ~fail_prob:0.5 in
  let scrub_cluster = Difs.Cluster.create () in
  List.iter
    (fun i ->
      let d =
        Salamander.Device.create
          ~config:
            (Experiments.Defaults.salamander_config
               ~mode:Salamander.Device.Regen_s)
          ~geometry ~model:gentle
          ~rng:(Sim.Rng.create (200 + i))
          ()
      in
      ignore
        (Difs.Cluster.add_device scrub_cluster ~node:i
           (Difs.Cluster.Salamander d)))
    [ 0; 1; 2; 3 ];
  for id = 0 to 15 do
    ignore (Difs.Cluster.write_chunk scrub_cluster id)
  done;
  (* Escalation hot path: every read exhausts the ladder instantly
     (read_retries = 0, fail_prob = 1) and the hook answers, so each
     iteration is one full escalate-and-rescue round trip. *)
  let escalating =
    let chip =
      Flash.Chip.create ~rng:(Sim.Rng.create 41) ~geometry ~model:gentle ()
    in
    let policy =
      {
        (Ftl.Policy.always_fresh
           ~opages_per_fpage:geometry.Flash.Geometry.opages_per_fpage)
        with
        Ftl.Policy.read_fail_prob = (fun ~rber:_ ~block:_ ~page:_ -> 1.);
      }
    in
    let engine =
      Ftl.Engine.create
        ~config:{ Ftl.Engine.default_config with Ftl.Engine.read_retries = 0 }
        ~chip ~rng:(Sim.Rng.create 43) ~policy ~logical_capacity:256 ()
    in
    for lba = 0 to 63 do
      ignore (Ftl.Engine.write engine ~logical:lba ~payload:lba)
    done;
    ignore (Ftl.Engine.flush engine);
    Ftl.Engine.set_recovery_hook engine (Some (fun ~logical -> Some logical));
    engine
  in
  (* Foreground live repair: recover one oPage of a replicated chunk from
     a healthy replica and rewrite it in place, per iteration. *)
  let repair_cluster = Difs.Cluster.create () in
  List.iter
    (fun i ->
      let d =
        Ftl.Baseline_ssd.create ~geometry ~model:gentle
          ~rng:(Sim.Rng.create (300 + i))
          ()
      in
      ignore
        (Difs.Cluster.add_device repair_cluster ~node:i
           (Difs.Cluster.Monolithic
              (Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d)))))
    [ 0; 1; 2 ];
  for id = 0 to 3 do
    ignore (Difs.Cluster.write_chunk repair_cluster id)
  done;
  let chip =
    Flash.Chip.create ~rng:(Sim.Rng.create 37) ~geometry ~model:gentle ()
  in
  let c_clean = ref 0 and c_flaky = ref 0 and c_esc = ref 0 in
  let r_lba = ref 0 and blk = ref 0 in
  [
    Test.make ~name:"chaos/read_clean"
      (Staged.stage (fun () ->
           c_clean := (!c_clean + 1) land 63;
           ignore (Ftl.Engine.read clean ~logical:!c_clean)));
    Test.make ~name:"chaos/retry_ladder"
      (Staged.stage (fun () ->
           c_flaky := (!c_flaky + 1) land 63;
           ignore (Ftl.Engine.read flaky ~logical:!c_flaky)));
    Test.make ~name:"ftl/read_escalation"
      (Staged.stage (fun () ->
           c_esc := (!c_esc + 1) land 63;
           ignore (Ftl.Engine.read escalating ~logical:!c_esc)));
    Test.make ~name:"chaos/live_recovery"
      (Staged.stage (fun () ->
           (* 4 chunks x 16 oPages live at the front of device 0 *)
           r_lba := (!r_lba + 1) land 63;
           ignore
             (Difs.Cluster.recover_opage repair_cluster ~device:0 ~lba:!r_lba)));
    Test.make ~name:"chaos/scrub_slice"
      (Staged.stage (fun () ->
           ignore (Difs.Cluster.scrub ~limit:1 scrub_cluster)));
    Test.make ~name:"chaos/inject_transient"
      (Staged.stage (fun () ->
           blk := (!blk + 1) land 31;
           Flash.Chip.inject chip ~block:!blk ~page:0
             (Flash.Chip.Transient_rber 1e-3);
           ignore (Flash.Chip.take_transient chip ~block:!blk ~page:0)));
  ]

let telemetry_subjects () =
  (* The zero-cost claim behind lib/telemetry: an update to a null-registry
     metric is a single branch on an immutable bool, so the instrumented
     hot paths cost the same with telemetry off as they did before
     instrumentation.  Compare a pure no-op closure, disabled and enabled
     metric updates, and the full Salamander write path both ways. *)
  let null_counter =
    Telemetry.Registry.counter Telemetry.Registry.null "bench_noop_total"
  in
  let live_reg = Telemetry.Registry.create () in
  let live_counter = Telemetry.Registry.counter live_reg "bench_live_total" in
  let null_hist =
    Telemetry.Registry.histogram Telemetry.Registry.null ~lo:0. ~hi:100.
      "bench_noop_us"
  in
  let live_hist =
    Telemetry.Registry.histogram live_reg ~lo:0. ~hi:100. "bench_live_us"
  in
  let make_device registry =
    let gentle =
      Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
    in
    let device =
      Salamander.Device.create
        ~config:
          (Experiments.Defaults.salamander_config
             ~mode:Salamander.Device.Regen_s)
        ~registry ~geometry:Experiments.Defaults.geometry ~model:gentle
        ~rng:(Sim.Rng.create 3) ()
    in
    let mdisk =
      (List.hd (Salamander.Device.active_mdisks device)).Salamander.Minidisk.id
    in
    for lba = 0 to 63 do
      ignore (Salamander.Device.write device ~mdisk ~lba ~payload:lba)
    done;
    Salamander.Device.flush device;
    (device, mdisk)
  in
  let dev_off, md_off = make_device Telemetry.Registry.null in
  let dev_on, md_on = make_device live_reg in
  (* One run = one full sweep of the 64-LBA window, not one write: the
     devices wear and GC-churn monotonically across samples, so a
     single-write subject measures a drifting baseline and the OLS fit
     of the disabled/enabled pair can land either side of the other
     (BENCH_6 recorded the disabled path 1.8x slower).  A whole
     overwrite cycle per run keeps every sample's GC/relocation work
     aligned, so the pair differs only in the registry wired in. *)
  let sweep device mdisk =
    for lba = 0 to 63 do
      ignore (Salamander.Device.write device ~mdisk ~lba ~payload:1)
    done
  in
  [
    Test.make ~name:"telemetry/baseline_nop" (Staged.stage (fun () -> ()));
    Test.make ~name:"telemetry/counter_disabled"
      (Staged.stage (fun () -> Telemetry.Registry.Counter.incr null_counter));
    Test.make ~name:"telemetry/counter_enabled"
      (Staged.stage (fun () -> Telemetry.Registry.Counter.incr live_counter));
    Test.make ~name:"telemetry/histogram_disabled"
      (Staged.stage (fun () ->
           Telemetry.Registry.Histogram.observe null_hist 42.));
    Test.make ~name:"telemetry/histogram_enabled"
      (Staged.stage (fun () ->
           Telemetry.Registry.Histogram.observe live_hist 42.));
    Test.make ~name:"telemetry/salamander_write_disabled"
      (Staged.stage (fun () -> sweep dev_off md_off));
    Test.make ~name:"telemetry/salamander_write_enabled"
      (Staged.stage (fun () -> sweep dev_on md_on));
  ]

let parallel_subjects () =
  (* The tentpole's speedup claim: the default 24-device fleet aged on 1,
     2 and 4 domains.  Identical seeds give byte-identical fleet results
     at every job count; only the wall-clock should move.  The pool is a
     bechamel resource allocated once per subject and reused across
     iterations — domain spawn plus per-domain nursery commit is a fixed
     ~12 ms/domain that any long-lived fleet service (and the CLI, once
     per process) pays exactly once, so folding it into every iteration
     would misprice steady-state scaling.  [free] still tears the pool
     down before the next subject starts: a pool that outlives its
     subject would leave idle domains attending every later subject's
     minor-GC rendezvous, taxing measurements that have nothing to do
     with parallelism (the BENCH_6 lesson). *)
  let days = 40 in
  let subject name jobs =
    if jobs = 1 then
      Test.make ~name
        (Staged.stage (fun () ->
             ignore (Experiments.Fleet.run ~days ~seed:3 `Regens)))
    else
      Test.make_with_resource ~name Test.uniq
        ~allocate:(fun () -> Parallel.Pool.create ~domains:jobs)
        ~free:Parallel.Pool.shutdown
        (Staged.stage (fun pool ->
             let ctx = Experiments.Ctx.make ~pool () in
             ignore (Experiments.Fleet.run ~days ~seed:3 ~ctx `Regens)))
  in
  (* The datacenter-scale headline: a 100k-device RegenS fleet aged one
     scaled day (light duty cycle) on 4 domains through the chunked
     accumulator path — ~1563 devices per chunk, one scratch registry
     per chunk, no per-device task or handshake. *)
  let fleet_100k () =
    Parallel.Pool.with_pool ~domains:4 (fun pool ->
        let ctx = Experiments.Ctx.make ~pool () in
        ignore
          (Experiments.Fleet.run ~devices:100_000 ~days:1 ~dwpd:0.05 ~seed:3
             ~ctx `Regens))
  in
  (* The bulk-aging tentpole pair: one simulated year of a small fleet
     at a light cloud duty cycle (0.01 DWPD), driven per-op (one device
     call per write, the retained oracle) and through the bulk fast
     path (`Auto`).  Both produce bit-identical results — the
     differential suite in test/test_bulk_aging.ml pins that — so the
     ratio prices pure driver overhead.  The epoch coalescing (30 days
     per epoch) is what a multi-year fleet run actually uses. *)
  let fleet_years ~aging () =
    ignore
      (Experiments.Fleet.run ~devices:8 ~days:365 ~dwpd:0.01 ~seed:3
         ~epoch_days:30 ~aging `Regens)
  in
  (* The multi-year headline at fleet scale: 100k devices aged one
     simulated year in a single epoch each, light duty cycle, on the
     4-domain chunked accumulator path. *)
  let fleet_100k_years () =
    Parallel.Pool.with_pool ~domains:4 (fun pool ->
        let ctx = Experiments.Ctx.make ~pool () in
        ignore
          (Experiments.Fleet.run ~devices:100_000 ~days:365 ~dwpd:0.002
             ~seed:3 ~epoch_days:365 ~ctx `Regens))
  in
  [
    subject "parallel/fleet_jobs1" 1;
    subject "parallel/fleet_jobs2" 2;
    subject "parallel/fleet_jobs4" 4;
    Test.make ~name:"parallel/fleet_years_per_op"
      (Staged.stage (fleet_years ~aging:Workload.Aging.Per_op));
    Test.make ~name:"parallel/fleet_years_bulk"
      (Staged.stage (fleet_years ~aging:Workload.Aging.Auto));
    Test.make ~name:"parallel/fleet_100k_chunked" (Staged.stage fleet_100k);
    Test.make ~name:"parallel/fleet_100k_years" (Staged.stage fleet_100k_years);
  ]

let monitor_subjects () =
  (* ISSUE 4's overhead claim: what longitudinal sampling adds to a
     fleet day.  [fleet_mon_off] is the null-monitor path (the branch
     every instrumented loop takes when no monitor is attached);
     [fleet_mon_every1] samples every epoch — the worst case.  The two
     micro-subjects price one raw series sample and one full registry
     sweep, the primitives the per-epoch cost is made of. *)
  let fleet mon_every =
    let monitor =
      Option.map
        (fun sample_every -> Monitor.Engine.create ~sample_every ())
        mon_every
    in
    let ctx =
      Experiments.Ctx.make ~registry:(Telemetry.Registry.create ()) ?monitor ()
    in
    ignore (Experiments.Fleet.run ~devices:2 ~days:4 ~seed:3 ~ctx `Regens)
  in
  let series = Monitor.Series.create () in
  let t = ref 0. in
  let sweep_reg = Telemetry.Registry.create () in
  for i = 0 to 15 do
    Telemetry.Registry.Gauge.set
      (Telemetry.Registry.gauge sweep_reg (Printf.sprintf "g%d" i))
      (float_of_int i)
  done;
  let sampler = Monitor.Sampler.create () in
  [
    Test.make ~name:"monitor/series_add"
      (Staged.stage (fun () ->
           t := !t +. 1.;
           Monitor.Series.add series ~time:!t 42.));
    Test.make ~name:"monitor/registry_sweep_16"
      (Staged.stage (fun () ->
           t := !t +. 1.;
           Monitor.Sampler.sample sampler ~time:!t sweep_reg));
    Test.make ~name:"monitor/fleet_mon_off"
      (Staged.stage (fun () -> fleet None));
    Test.make ~name:"monitor/fleet_mon_every1"
      (Staged.stage (fun () -> fleet (Some 1)));
  ]

let traffic_subjects () =
  (* The traffic substrate: the trace generator and the replayer.  The
     gentle wear model keeps the device healthy across thousands of bench
     iterations, so every run measures the same steady state. *)
  let spec =
    {
      Traffic.Gen.default_spec with
      Traffic.Gen.tenants = 64;
      ops = 2_000;
      window = 1024;
    }
  in
  let trace = Traffic.Gen.generate spec ~seed:7 in
  let geometry = Experiments.Defaults.geometry in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()
  in
  let replay_device =
    let d =
      Ftl.Baseline_ssd.create ~geometry ~model:gentle ~rng:(Sim.Rng.create 5) ()
    in
    Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d)
  in
  let prefill =
    Stdlib.min 1024 (Ftl.Device_intf.logical_capacity replay_device)
  in
  ignore
    (Ftl.Device_intf.write_many replay_device
       (Array.init prefill (fun i -> (i, i))));
  let population = Traffic.Tenant.create ~tenants:64 () in
  [
    Test.make ~name:"traffic/generate_2k"
      (Staged.stage (fun () -> ignore (Traffic.Gen.generate spec ~seed:7)));
    Test.make ~name:"traffic/replay_2k"
      (Staged.stage (fun () ->
           ignore
             (Traffic.Replay.run ~qos:Traffic.Qos.default_config
                ~intensity:(fun ~op -> Traffic.Gen.intensity spec ~op)
                ~population ~trace ~device:replay_device ())));
  ]

let obs_subjects () =
  (* The observability plane's cost model: one digest observation
     (amortized compression), one quantile query over a compressed
     digest, one top-K offer against a full tracker, one fleet-report
     observation (four digests + grade + top-K), and the per-chunk
     merge the reduction pays once per chunk, not per device. *)
  let warm = Obs.Digest.create () in
  let i = ref 0 in
  for j = 0 to 9_999 do
    Obs.Digest.add warm (float_of_int ((j * 7919) mod 997))
  done;
  ignore (Obs.Digest.quantile warm 0.5);
  let topk = Obs.Topk.Topk.create ~k:10 () in
  for j = 0 to 999 do
    Obs.Topk.Topk.offer topk
      ~id:(Printf.sprintf "dev-%d" j)
      ~score:(float_of_int ((j * 2654435761) mod 997))
      ()
  done;
  let acc = Obs.Fleet_report.Acc.create () in
  let observation index =
    {
      Obs.Fleet_report.id = Printf.sprintf "dev-%d" index;
      pec_max = index mod 80;
      pec_min = index mod 11;
      rber_worst = 1e-4;
      tolerable_rber = 1e-2;
      retries = index mod 7;
      escalations = 0;
      reclaims = 0;
      host_writes = 1000;
      alive = index mod 17 <> 0;
    }
  in
  let chunk = Obs.Fleet_report.Acc.sub acc in
  for j = 0 to 999 do
    Obs.Fleet_report.Acc.observe chunk (observation j)
  done;
  [
    Test.make ~name:"obs/digest_add"
      (Staged.stage (fun () ->
           i := !i + 1;
           Obs.Digest.add warm (float_of_int (!i mod 997))));
    Test.make ~name:"obs/digest_quantile"
      (Staged.stage (fun () -> ignore (Obs.Digest.quantile warm 0.99)));
    Test.make ~name:"obs/topk_offer"
      (Staged.stage (fun () ->
           i := !i + 1;
           Obs.Topk.Topk.offer topk
             ~id:(Printf.sprintf "dev-%d" (!i mod 4096))
             ~score:(float_of_int (!i mod 997))
             ()));
    Test.make ~name:"obs/fleet_observe"
      (Staged.stage (fun () ->
           i := !i + 1;
           Obs.Fleet_report.Acc.observe acc (observation !i)));
    Test.make ~name:"obs/acc_merge_1k"
      (Staged.stage (fun () ->
           let into = Obs.Fleet_report.Acc.create () in
           Obs.Fleet_report.Acc.merge ~into chunk));
  ]

(* Flat {"subject": ns_per_run} JSON, one line per subject in sorted
   order, so CI diffs of the artifact stay readable. *)
let write_json_results path rows =
  let oc = open_out path in
  output_string oc "{\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (match ns with Some v -> Printf.sprintf "%.1f" v | None -> "null")
        (if i = last then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* Parse the flat format back: one ["subject": value,] line per subject.
   Tolerant of the trailing comma's absence and of "null" values, and of
   a hand-edited file as long as it keeps the one-entry-per-line shape;
   anything unparseable is skipped rather than fatal (the merge then
   treats those subjects as absent). *)
let read_json_results path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         match String.length line with
         | 0 -> ()
         | _ when line.[0] <> '"' -> ()
         | _ -> (
             try
               Scanf.sscanf line "%S : %s" (fun name value ->
                   let value =
                     match String.length value with
                     | n when n > 0 && value.[n - 1] = ',' ->
                         String.sub value 0 (n - 1)
                     | _ -> value
                   in
                   let ns =
                     if String.equal value "null" then None
                     else float_of_string_opt value
                   in
                   entries := (name, ns) :: !entries)
             with Scanf.Scan_failure _ | End_of_file -> ())
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !entries
  end

(* Group registry for the [--only] filter.  Group names mostly match
   the subject-name prefix ("parallel" owns "parallel/fleet_jobs4"),
   though a few groups span several prefixes (e.g. "carbon" also owns
   the fig4/tco subjects). *)
let subject_groups =
  [
    ("bch", bch_subjects);
    ("ftl", ftl_subjects);
    ("device", device_subjects);
    ("cluster", cluster_subjects);
    ("service", service_subjects);
    ("disturb", disturb_subjects);
    ("fleet", fleet_subjects);
    ("carbon", carbon_subjects);
    ("chaos", chaos_subjects);
    ("telemetry", telemetry_subjects);
    ("monitor", monitor_subjects);
    ("parallel", parallel_subjects);
    ("traffic", traffic_subjects);
    ("obs", obs_subjects);
  ]

let run_micro ?json_path ?only () =
  let groups =
    match only with
    | None -> subject_groups
    | Some names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n subject_groups) then begin
              Printf.eprintf "unknown bench group %S (have: %s)\n" n
                (String.concat ", " (List.map fst subject_groups));
              exit 2
            end)
          names;
        List.filter (fun (n, _) -> List.mem n names) subject_groups
  in
  let tests = List.concat_map (fun (_, f) -> f ()) groups in
  let grouped = Test.make_grouped ~name:"salamander" ~fmt:"%s.%s" tests in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "@.=== Bechamel micro-benchmarks (monotonic clock) ===@.";
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Some t
          | _ -> None
        in
        let r2 = Analyze.OLS.r_square ols in
        (name, ns, r2) :: acc)
      results []
    |> List.sort compare
  in
  let rows =
    List.map
      (fun (name, ns, r2) ->
        [
          name;
          (match ns with Some t -> Printf.sprintf "%.1f" t | None -> "n/a");
          (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "n/a");
        ])
      estimates
  in
  Experiments.Report.table Format.std_formatter
    ~header:[ "benchmark"; "ns/run"; "r²" ]
    ~rows;
  Format.printf "@.";
  match json_path with
  | None -> ()
  | Some path ->
      (* Subject names without the harness group prefix. *)
      let strip name =
        match String.index_opt name '.' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      let fresh = List.map (fun (name, ns, _) -> (strip name, ns)) estimates in
      (* Merge over what's already on disk: subjects measured in this
         run override their old entries, subjects not selected (e.g. a
         [--only parallel] re-run) keep theirs.  A partial re-run thus
         refreshes the artifact instead of truncating it. *)
      let kept =
        List.filter
          (fun (name, _) -> not (List.mem_assoc name fresh))
          (read_json_results path)
      in
      let merged =
        List.sort (fun (a, _) (b, _) -> compare a b) (kept @ fresh)
      in
      write_json_results path merged;
      Format.printf "wrote %s (%d subjects, %d refreshed)@." path
        (List.length merged) (List.length fresh)

(* --- dispatch -------------------------------------------------------------- *)

(* Each experiment runs against its own fresh registry, so the snapshot
   printed after it covers exactly the devices/clusters that experiment
   built — cross-experiment aggregation would hide per-run regressions. *)
let run_experiment fmt (id, runner) =
  let reg = Telemetry.Registry.create () in
  let ctx = Experiments.Ctx.make ~registry:reg () in
  Telemetry.Trace.with_span ~registry:reg ("experiment:" ^ id) (fun () ->
      runner ctx fmt);
  match Telemetry.Registry.snapshot reg with
  | [] -> ()
  | samples ->
      Format.fprintf fmt "@.--- telemetry: %s ---@.%a@." id
        Telemetry.Export.pp_table samples

let run_all fmt =
  List.iter
    (fun (id, runner) ->
      Format.fprintf fmt "@.### experiment %s@." id;
      run_experiment fmt (id, runner))
    Experiments.All.experiments;
  Format.fprintf fmt "@."

let usage () =
  print_endline "usage: main.exe [experiment|micro|all]";
  print_endline "experiments:";
  List.iter
    (fun (id, _) -> Printf.printf "  %s\n" id)
    Experiments.All.experiments;
  print_endline "  micro (Bechamel micro-benchmarks)";
  print_endline
    "  micro [--only GROUP[,GROUP..]] [--json [path]] (ns/run JSON, default";
  print_endline
    "    BENCH_10.json; --json merges into an existing file, so an --only";
  print_endline "    re-run refreshes just its groups)";
  print_endline "  all (default: everything)"

(* micro [--only GROUP[,GROUP..]] [--json [path]] *)
let run_micro_cli args =
  let rec parse json_path only = function
    | [] -> run_micro ?json_path ?only ()
    | "--json" :: rest -> (
        match rest with
        | path :: rest' when String.length path > 1 && path.[0] <> '-' ->
            parse (Some path) only rest'
        | _ -> parse (Some "BENCH_10.json") only rest)
    | "--only" :: groups :: rest ->
        parse json_path (Some (String.split_on_char ',' groups)) rest
    | _ ->
        usage ();
        exit 2
  in
  parse None None args

let () =
  let fmt = Format.std_formatter in
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
      run_all fmt;
      run_micro ()
  | _ :: "micro" :: rest -> run_micro_cli rest
  | [ _; id ] -> (
      match List.assoc_opt id Experiments.All.experiments with
      | Some runner -> run_experiment fmt (id, runner)
      | None -> usage ())
  | _ -> usage ()
