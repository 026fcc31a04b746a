(* Tests for the traffic library: the log-spaced latency histogram, QoS
   token buckets, the multi-tenant generator, the replayer, and the
   batched Engine submission path the replayer's cost model assumes. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let geometry = Experiments.Defaults.geometry

let gentle_model =
  Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()

(* --- latency histogram --------------------------------------------------- *)

let test_lathist_exact_stats () =
  let h = Traffic.Lathist.create () in
  List.iter (Traffic.Lathist.observe h) [ 10.; 100.; 1000.; 10_000. ];
  checki "count" 4 (Traffic.Lathist.count h);
  checkb "sum exact" true (Traffic.Lathist.sum h = 11_110.);
  checkb "min exact" true (Traffic.Lathist.min h = 10.);
  checkb "max exact" true (Traffic.Lathist.max h = 10_000.);
  (* Percentiles are bucket representatives: ~10% relative resolution. *)
  let p50 = Traffic.Lathist.percentile h 0.5 in
  checkb "p50 within bucket resolution of 100us" true
    (Float.abs (p50 -. 100.) /. 100. < 0.12)

let test_lathist_percentiles_monotone () =
  let h = Traffic.Lathist.create () in
  for i = 1 to 500 do
    Traffic.Lathist.observe h (float_of_int (i * i))
  done;
  let p q = Traffic.Lathist.percentile h q in
  checkb "p50 <= p95" true (p 0.5 <= p 0.95);
  checkb "p95 <= p99" true (p 0.95 <= p 0.99);
  checkb "p99 <= p999" true (p 0.99 <= p 0.999);
  checkb "p999 <= max" true (p 0.999 <= Traffic.Lathist.max h)

let test_lathist_empty_and_overflow () =
  let h = Traffic.Lathist.create () in
  checkb "empty percentile is nan" true
    (Float.is_nan (Traffic.Lathist.percentile h 0.5));
  checkb "empty mean is nan" true (Float.is_nan (Traffic.Lathist.mean h));
  let rendered = Format.asprintf "%a" Traffic.Lathist.pp_row h in
  checkb "empty row renders dashes" true (String.contains rendered '-');
  (* Beyond the bucketed decades everything lands in the overflow bucket,
     whose representative is the exact observed max. *)
  Traffic.Lathist.observe h 1e12;
  checkb "overflow p999 = max" true
    (Traffic.Lathist.percentile h 0.999 = 1e12)

let prop_lathist_merge =
  QCheck.Test.make ~count:100 ~name:"lathist merge = combined observations"
    QCheck.(
      pair
        (list (float_bound_exclusive 1e8))
        (list (float_bound_exclusive 1e8)))
    (fun (xs, ys) ->
      let observe_all h vs = List.iter (Traffic.Lathist.observe h) vs in
      let merged = Traffic.Lathist.create ()
      and src = Traffic.Lathist.create ()
      and combined = Traffic.Lathist.create () in
      observe_all merged xs;
      observe_all src ys;
      Traffic.Lathist.merge ~into:merged src;
      observe_all combined (xs @ ys);
      Traffic.Lathist.count merged = Traffic.Lathist.count combined
      && compare (Traffic.Lathist.min merged) (Traffic.Lathist.min combined) = 0
      && compare (Traffic.Lathist.max merged) (Traffic.Lathist.max combined) = 0
      && Float.abs (Traffic.Lathist.sum merged -. Traffic.Lathist.sum combined)
         <= 1e-6 *. Float.abs (Traffic.Lathist.sum combined)
      && List.for_all
           (fun q ->
             compare
               (Traffic.Lathist.percentile merged q)
               (Traffic.Lathist.percentile combined q)
             = 0)
           [ 0.5; 0.9; 0.99; 0.999 ])

(* --- tail attribution ------------------------------------------------------ *)

let test_lathist_attribution () =
  let h = Traffic.Lathist.create () in
  (* 900 fast untagged ops, then a tagged tail: 90 at ~10ms paying for
     gc (bit 0), 10 at ~100ms paying for retry (bit 2), one of them
     also throttled (bit 5). *)
  for _ = 1 to 900 do
    Traffic.Lathist.observe h 100.
  done;
  for i = 1 to 90 do
    Traffic.Lathist.observe_tagged h (10_000. +. float_of_int i) ~tags:1
  done;
  for i = 1 to 9 do
    Traffic.Lathist.observe_tagged h (100_000. +. float_of_int i) ~tags:4
  done;
  Traffic.Lathist.observe_tagged h 100_500. ~tags:(4 lor 32);
  checki "count includes tagged ops" 1000 (Traffic.Lathist.count h);
  (* The p995 tail is the 100ms population: retry dominates there. *)
  let totals = Traffic.Lathist.tag_totals_above h 0.995 in
  checki "tag array spans the declared width" Traffic.Lathist.tags_width
    (Array.length totals);
  checkb "retry dominates the p995 tail" true (totals.(2) >= 10);
  checki "gc absent from the p995 tail" 0 totals.(0);
  checkb "tail population covers the tagged tail" true
    (Traffic.Lathist.count_above h 0.995 >= 10);
  (* Exemplar: the single worst tagged op, carrying both its bits. *)
  (match Traffic.Lathist.exemplar_above h 0.995 with
  | Some (lat, tags) ->
      checkb "exemplar is the worst tagged op" true (lat = 100_500.);
      checki "exemplar keeps its full tag set" (4 lor 32) tags
  | None -> Alcotest.fail "expected a tagged exemplar in the tail");
  (* Lower in the distribution, gc shows up. *)
  let totals50 = Traffic.Lathist.tag_totals_above h 0.5 in
  checkb "gc visible above the median" true (totals50.(0) = 90);
  (* Tags out of range are masked off, not an error. *)
  Traffic.Lathist.observe_tagged h 1. ~tags:(1 lsl Traffic.Lathist.tags_width);
  checki "masked tags degrade to untagged" 1001 (Traffic.Lathist.count h)

let test_lathist_attribution_merge () =
  (* Chunked cells each tag their own tail; the merged histogram must
     agree with single-cell recording: counts add, the exemplar is the
     global strict max (ties keep the first/into's — submission
     order). *)
  let record h base tags =
    Traffic.Lathist.observe h 10.;
    Traffic.Lathist.observe_tagged h base ~tags
  in
  let a = Traffic.Lathist.create () and b = Traffic.Lathist.create () in
  record a 50_000. 1;
  record b 60_000. 2;
  let c = Traffic.Lathist.create () in
  (* An untagged chunk merged first: attribution tables must appear on
     demand when the first tagged source arrives. *)
  Traffic.Lathist.observe c 10.;
  Traffic.Lathist.merge ~into:c a;
  Traffic.Lathist.merge ~into:c b;
  let combined = Traffic.Lathist.create () in
  Traffic.Lathist.observe combined 10.;
  record combined 50_000. 1;
  record combined 60_000. 2;
  checki "merged count" (Traffic.Lathist.count combined)
    (Traffic.Lathist.count c);
  let tm = Traffic.Lathist.tag_totals_above c 0.9
  and ts = Traffic.Lathist.tag_totals_above combined 0.9 in
  Alcotest.(check (list int))
    "merged tag totals equal sequential"
    (Array.to_list ts) (Array.to_list tm);
  checkb "merged exemplar equals sequential" true
    (Traffic.Lathist.exemplar_above c 0.9
    = Traffic.Lathist.exemplar_above combined 0.9);
  (match Traffic.Lathist.exemplar_above c 0.9 with
  | Some (lat, tags) -> checkb "global max wins" true (lat = 60_000. && tags = 2)
  | None -> Alcotest.fail "expected an exemplar after merge")

(* --- QoS ------------------------------------------------------------------ *)

let test_qos_bucket () =
  let qos =
    Traffic.Qos.create
      { Traffic.Qos.bandwidth_ops_per_s = 1_000_000.; burst_ops = 4. }
      ~weights:[| 1.; 3. |]
  in
  checkb "rates split by weight" true
    (Float.abs
       ((Traffic.Qos.rate qos ~tenant:1 /. Traffic.Qos.rate qos ~tenant:0)
       -. 3.)
    < 1e-9);
  (* The bucket starts full: the whole burst admits at t=0, then the
     next op must wait one refill interval (1/rate = 4us for tenant 0). *)
  for i = 1 to 4 do
    checkb
      (Printf.sprintf "burst admit %d" i)
      true
      (Traffic.Qos.admit qos ~tenant:0 ~now_us:0. = `Ok)
  done;
  match Traffic.Qos.admit qos ~tenant:0 ~now_us:0. with
  | `Ok -> Alcotest.fail "empty bucket admitted"
  | `Delay d ->
      checkb "delay is one refill interval" true
        (d > 0. && Float.abs (d -. 4.) < 0.5);
      checkb "admitted after waiting" true
        (Traffic.Qos.admit qos ~tenant:0 ~now_us:(d *. 1.001) = `Ok)

let test_qos_rejects_bad_config () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Qos.create: weights must be positive") (fun () ->
      ignore
        (Traffic.Qos.create Traffic.Qos.default_config ~weights:[| 1.; 0. |]))

(* --- generator ------------------------------------------------------------ *)

(* Window must cover the widest default footprint (batch: 1024 LBAs) so
   every generated LBA stays inside it. *)
let small_spec =
  {
    Traffic.Gen.default_spec with
    Traffic.Gen.tenants = 32;
    ops = 2_000;
    window = 2_048;
  }

let test_gen_deterministic_and_bounded () =
  let t1 = Traffic.Gen.generate small_spec ~seed:9 in
  let t2 = Traffic.Gen.generate small_spec ~seed:9 in
  checkb "same seed, same trace" true
    (Workload.Trace.to_string t1 = Workload.Trace.to_string t2);
  let t3 = Traffic.Gen.generate small_spec ~seed:10 in
  checkb "different seed, different trace" true
    (Workload.Trace.to_string t1 <> Workload.Trace.to_string t3);
  checki "exact op count" 2_000 (Workload.Trace.length t1);
  Workload.Trace.iter_events t1 (fun e ->
      checkb "tenant in range" true
        (e.Workload.Trace.tenant >= 0 && e.Workload.Trace.tenant < 32);
      let lba = e.Workload.Trace.access.Workload.Access.lba in
      checkb "lba inside window" true (lba >= 0 && lba < 2_048))

let test_gen_intensity_envelope () =
  let spec = small_spec in
  let lo = 1. -. spec.Traffic.Gen.diurnal_amplitude in
  for op = 0 to 2_000 do
    let v = Traffic.Gen.intensity spec ~op in
    checkb "intensity in [1-amp, 1]" true (v >= lo -. 1e-9 && v <= 1. +. 1e-9)
  done;
  checkb "peak at cycle start" true
    (Traffic.Gen.intensity spec ~op:0 > Traffic.Gen.intensity spec
                                          ~op:(spec.Traffic.Gen.diurnal_period / 2))

(* --- replayer ------------------------------------------------------------- *)

let make_baseline seed =
  let d =
    Ftl.Baseline_ssd.create ~geometry ~model:gentle_model
      ~rng:(Sim.Rng.create seed) ()
  in
  Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d)

let test_replay_accounts_every_op () =
  let population = Traffic.Tenant.create ~tenants:32 () in
  let trace = Traffic.Gen.generate small_spec ~seed:9 in
  let device = make_baseline 21 in
  ignore (Ftl.Device_intf.write_many device (Array.init 2_048 (fun i -> (i, i))));
  let outcome =
    Traffic.Replay.run ~qos:Traffic.Qos.default_config
      ~intensity:(fun ~op -> Traffic.Gen.intensity small_spec ~op)
      ~population ~trace ~device ()
  in
  checki "completed the whole trace" 2_000 outcome.Traffic.Replay.completed;
  checki "issued = completed" outcome.Traffic.Replay.issued
    outcome.Traffic.Replay.completed;
  checkb "did not die" true (not outcome.Traffic.Replay.died);
  checki "histogram saw every op" 2_000
    (Traffic.Lathist.count outcome.Traffic.Replay.all);
  checki "prefilled window never misses" 0 outcome.Traffic.Replay.unmapped_reads;
  let ops, reads, _, _ =
    Traffic.Tenant.Accounts.totals outcome.Traffic.Replay.accounts
  in
  checki "accounts cover every op" 2_000 ops;
  checkb "some reads recorded" true (reads > 0);
  (* The cause mix counts every op once, under its exact cause set: its
     entries sum to the op count, and the sets holding a cause bit sum to
     the ops the latency histogram recorded under that bit. *)
  let mix = outcome.Traffic.Replay.cause_mix in
  checki "cause mix counts every op" 2_000 (Array.fold_left ( + ) 0 mix);
  let tagged = 2_000 - mix.(Obs.Cause.none) in
  checkb "some ops tagged" true (tagged > 0);
  let per_bit = Traffic.Lathist.tag_totals_above outcome.Traffic.Replay.all 0. in
  for bit = 0 to Obs.Cause.width - 1 do
    let with_bit = ref 0 in
    Array.iteri
      (fun set n -> if set land (1 lsl bit) <> 0 then with_bit := !with_bit + n)
      mix;
    checki
      (Printf.sprintf "cause mix %s marginal" (Obs.Cause.name_of_bit bit))
      per_bit.(bit) !with_bit
  done;
  checkb "simulated time advanced" true (outcome.Traffic.Replay.end_us > 0.)

let test_replay_deterministic () =
  let run () =
    let population = Traffic.Tenant.create ~tenants:32 () in
    let trace = Traffic.Gen.generate small_spec ~seed:9 in
    let device = make_baseline 21 in
    let o =
      Traffic.Replay.run ~qos:Traffic.Qos.default_config ~population ~trace
        ~device ()
    in
    ( o.Traffic.Replay.end_us,
      o.Traffic.Replay.throttled_ops,
      Traffic.Lathist.sum o.Traffic.Replay.all,
      Traffic.Lathist.percentile o.Traffic.Replay.all 0.999 )
  in
  checkb "two identical runs agree exactly" true (run () = run ())

let test_replay_rejects_bad_config () =
  let population = Traffic.Tenant.create ~tenants:4 () in
  let trace = Workload.Trace.create () in
  let device = make_baseline 3 in
  Alcotest.check_raises "batch < 1"
    (Invalid_argument "Replay.run: batch must be >= 1") (fun () ->
      ignore
        (Traffic.Replay.run
           ~config:{ Traffic.Replay.default_config with Traffic.Replay.batch = 0 }
           ~population ~trace ~device ()))

(* --- experiment determinism and chaos tails ------------------------------- *)

let traffic_report pool =
  let registry = Telemetry.Registry.create () in
  let ctx = Experiments.Ctx.make ~registry ?pool () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let rows = Experiments.Traffic_run.run ~ctx ~tenants:32 ~ops:8_000 fmt in
  Format.pp_print_flush fmt ();
  (Buffer.contents buf, rows)

let test_traffic_run_jobs_deterministic_and_chaos_degrades () =
  let seq_text, seq_rows = traffic_report None in
  let par_text, par_rows =
    Parallel.Pool.with_pool ~domains:4 (fun pool -> traffic_report (Some pool))
  in
  checkb "report byte-identical at jobs=1 and jobs=4" true
    (seq_text = par_text);
  checkb "rows identical at jobs=1 and jobs=4" true (seq_rows = par_rows);
  checkb "json identical" true
    (Experiments.Traffic_run.rows_to_json seq_rows
    = Experiments.Traffic_run.rows_to_json par_rows);
  (* The media fault plan must show up in the tail: every design's chaos
     cell has a p999 at least as bad as its fault-free twin, and the
     baseline (no scrub, no regeneration) measurably worse. *)
  let p999 label chaos =
    match
      List.find_opt
        (fun r ->
          r.Experiments.Traffic_run.label = label
          && r.Experiments.Traffic_run.chaos = chaos)
        seq_rows
    with
    | Some r -> r.Experiments.Traffic_run.p999
    | None -> Alcotest.fail (Printf.sprintf "missing row %s" label)
  in
  List.iter
    (fun label ->
      checkb
        (Printf.sprintf "%s chaos tail no better than clean" label)
        true
        (p999 label true >= p999 label false))
    [ "baseline"; "cvss"; "regens" ];
  checkb "baseline tail measurably degraded under faults" true
    (p999 "baseline" true > 1.2 *. p999 "baseline" false)

(* Golden digest of a small replay's latency table.  The jobs 1/4 diffs
   compare a build against itself; this pins the output across builds,
   so a speed-only change to the device adapter or the engine read path
   that moves any replayed latency, error count or tail cause fails
   here.  All six cells run, RegenS clean and chaos included. *)
let golden_json_digest = "7156c01f6037b86853623e757763d523"

let test_traffic_run_golden_digest () =
  let fmt = Format.formatter_of_buffer (Buffer.create 4096) in
  let rows =
    Experiments.Traffic_run.run ~tenants:8 ~ops:3_000 ~seed:1234 fmt
  in
  checkb "RegenS cells present" true
    (List.exists (fun r -> r.Experiments.Traffic_run.label = "regens") rows);
  Alcotest.(check string)
    "rows_to_json digest" golden_json_digest
    (Digest.to_hex (Digest.string (Experiments.Traffic_run.rows_to_json rows)))

let suite =
  [
    ("lathist exact stats", `Quick, test_lathist_exact_stats);
    ("lathist percentiles monotone", `Quick, test_lathist_percentiles_monotone);
    ("lathist empty and overflow", `Quick, test_lathist_empty_and_overflow);
    QCheck_alcotest.to_alcotest prop_lathist_merge;
    ("lathist tail attribution", `Quick, test_lathist_attribution);
    ("lathist attribution merge", `Quick, test_lathist_attribution_merge);
    ("qos token bucket", `Quick, test_qos_bucket);
    ("qos rejects bad config", `Quick, test_qos_rejects_bad_config);
    ("gen deterministic and bounded", `Quick, test_gen_deterministic_and_bounded);
    ("gen intensity envelope", `Quick, test_gen_intensity_envelope);
    ("replay accounts every op", `Quick, test_replay_accounts_every_op);
    ("replay deterministic", `Quick, test_replay_deterministic);
    ("replay rejects bad config", `Quick, test_replay_rejects_bad_config);
    ( "traffic experiment deterministic across jobs; chaos degrades tails",
      `Slow,
      test_traffic_run_jobs_deterministic_and_chaos_degrades );
    ("traffic replay golden digest", `Quick, test_traffic_run_golden_digest);
  ]
