(* Tests for the longitudinal health monitor: downsampling series
   invariants, registry sampling, labeled merges, alert hysteresis,
   SMART-style grading, the structured span sink, golden timeline /
   Chrome-trace exports, and byte-determinism of a monitored fleet at
   any domain count. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf epsilon = Alcotest.check (Alcotest.float epsilon)
let checks = Alcotest.check Alcotest.string

(* --- Series ------------------------------------------------------------------ *)

let test_series_small () =
  let s = Monitor.Series.create ~capacity:8 () in
  List.iteri
    (fun i v -> Monitor.Series.add s ~time:(float_of_int i) v)
    [ 1.; 2.; 3. ];
  checki "three points at stride 1" 3 (Monitor.Series.length s);
  checki "total" 3 (Monitor.Series.total s);
  checkb "last" true (Monitor.Series.last s = Some 3.);
  match Monitor.Series.points s with
  | [ a; _; c ] ->
      checkf 1e-9 "first mean" 1. a.Monitor.Series.mean;
      checki "raw points carry n=1" 1 a.Monitor.Series.n;
      checkf 1e-9 "t0 tracks sample time" 2. c.Monitor.Series.t0
  | _ -> Alcotest.fail "expected 3 points"

let test_series_downsamples () =
  let capacity = 8 in
  let s = Monitor.Series.create ~capacity () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Monitor.Series.add s ~time:(float_of_int i) (float_of_int (i mod 17))
  done;
  checki "total counts every sample" n (Monitor.Series.total s);
  checkb "bounded length" true (Monitor.Series.length s <= capacity);
  let stride = Monitor.Series.stride s in
  checkb "stride is a power of two" true (stride land (stride - 1) = 0);
  let points = Monitor.Series.points s in
  checki "points sum to total" n
    (List.fold_left (fun a (p : Monitor.Series.point) -> a + p.n) 0 points);
  ignore
    (List.fold_left
       (fun prev (p : Monitor.Series.point) ->
         checkb "windows ordered" true (prev <= p.Monitor.Series.t0);
         checkb "window consistent" true
           (p.Monitor.Series.t0 <= p.Monitor.Series.t1);
         checkb "min <= mean" true
           (p.Monitor.Series.vmin <= p.Monitor.Series.mean +. 1e-9);
         checkb "mean <= max" true
           (p.Monitor.Series.mean <= p.Monitor.Series.vmax +. 1e-9);
         p.Monitor.Series.t1)
       neg_infinity points);
  checkb "last survives compaction" true
    (Monitor.Series.last s = Some (float_of_int ((n - 1) mod 17)))

let prop_series_invariants =
  QCheck.Test.make ~count:100 ~name:"series invariants hold for any input"
    QCheck.(list (pair (float_bound_inclusive 1000.) (float_bound_inclusive 50.)))
    (fun samples ->
      let s = Monitor.Series.create ~capacity:16 () in
      List.iter (fun (t, v) -> Monitor.Series.add s ~time:t v) samples;
      let points = Monitor.Series.points s in
      Monitor.Series.total s = List.length samples
      && Monitor.Series.length s <= 16
      && List.fold_left (fun a (p : Monitor.Series.point) -> a + p.n) 0 points
         = List.length samples)

(* --- Sampler ----------------------------------------------------------------- *)

let test_sampler_snapshots_registry () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter reg "writes_total")
    ~by:7;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "depth") 2.5;
  let h = Telemetry.Registry.histogram reg "lat_us" in
  let s = Monitor.Sampler.create () in
  Monitor.Sampler.sample s ~time:0. reg;
  (* Empty histogram: count series only — no NaN mean/p99 series. *)
  let keys =
    List.map (fun (k, _) -> Monitor.Sampler.Key.to_string k)
      (Monitor.Sampler.series s)
  in
  Alcotest.(check (list string))
    "fields of an empty histogram"
    [ "depth"; "lat_us.count"; "writes_total" ]
    keys;
  Telemetry.Registry.Histogram.observe h 1.;
  Monitor.Sampler.sample s ~time:1. reg;
  let keys =
    List.map (fun (k, _) -> Monitor.Sampler.Key.to_string k)
      (Monitor.Sampler.series s)
  in
  Alcotest.(check (list string))
    "mean/p50/p99 appear once observed"
    [ "depth"; "lat_us.count"; "lat_us.mean"; "lat_us.p50"; "lat_us.p99";
      "lat_us.p999"; "writes_total" ]
    keys;
  match Monitor.Sampler.find s (Monitor.Sampler.key "writes_total") with
  | Some series ->
      checki "two samples" 2 (Monitor.Series.total series);
      checkb "counter value sampled" true
        (Monitor.Series.last series = Some 7.)
  | None -> Alcotest.fail "counter series missing"

let test_sampler_merge_labels () =
  let a = Monitor.Sampler.create () and b = Monitor.Sampler.create () in
  Monitor.Sampler.observe a ~time:0. (Monitor.Sampler.key "wear") 1.;
  Monitor.Sampler.observe b ~time:0. (Monitor.Sampler.key "wear") 9.;
  let into = Monitor.Sampler.create () in
  Monitor.Sampler.merge ~into ~labels:[ ("device", "d0") ] a;
  Monitor.Sampler.merge ~into ~labels:[ ("device", "d1") ] b;
  let keys =
    List.map (fun (k, _) -> Monitor.Sampler.Key.to_string k)
      (Monitor.Sampler.series into)
  in
  Alcotest.(check (list string))
    "relabeled series" [ "wear{device=d0}"; "wear{device=d1}" ] keys;
  match
    Monitor.Sampler.find into
      (Monitor.Sampler.key ~labels:[ ("device", "d1") ] "wear")
  with
  | Some s -> checkb "points transplanted" true (Monitor.Series.last s = Some 9.)
  | None -> Alcotest.fail "merged series missing"

(* --- Alerts ------------------------------------------------------------------ *)

let test_alert_hysteresis () =
  let rules =
    [ Monitor.Alert.rule ~metric:"temp" ~fire:10. ~resolve:5. "hot" ]
  in
  let alerts = Monitor.Alert.create rules in
  let s = Monitor.Sampler.create () in
  let k = Monitor.Sampler.key "temp" in
  let feed time v =
    Monitor.Sampler.observe s ~time k v;
    Monitor.Alert.eval alerts ~time s
  in
  checki "3 below fire: quiet" 0 (List.length (feed 0. 3.));
  (match feed 1. 12. with
  | [ tr ] ->
      checkb "fires at 12" true (tr.Monitor.Alert.state = Monitor.Alert.Firing);
      checkf 1e-9 "transition carries the value" 12. tr.Monitor.Alert.value
  | _ -> Alcotest.fail "expected one firing transition");
  checki "8 inside the band: still firing" 0 (List.length (feed 2. 8.));
  (match feed 3. 4. with
  | [ tr ] ->
      checkb "resolves below 5" true
        (tr.Monitor.Alert.state = Monitor.Alert.Resolved);
      checkf 1e-9 "time on the sim clock" 3. tr.Monitor.Alert.time
  | _ -> Alcotest.fail "expected one resolved transition");
  checki "full log" 2 (List.length (Monitor.Alert.log alerts))

let test_alert_below_direction () =
  let alerts =
    Monitor.Alert.create
      [
        Monitor.Alert.rule ~direction:Monitor.Alert.Below
          ~metric:"device_alive" ~fire:0.5 ~resolve:0.5 "dead";
      ]
  in
  let s = Monitor.Sampler.create () in
  let k = Monitor.Sampler.key "device_alive" in
  let feed time v =
    Monitor.Sampler.observe s ~time k v;
    Monitor.Alert.eval alerts ~time s
  in
  checki "alive: quiet" 0 (List.length (feed 0. 1.));
  checki "death fires" 1 (List.length (feed 1. 0.));
  checki "steady death: no re-fire" 0 (List.length (feed 2. 0.))

(* --- Health ------------------------------------------------------------------ *)

let test_health_grades () =
  let s = Monitor.Sampler.create () in
  let obs device name time v =
    Monitor.Sampler.observe s ~time
      (Monitor.Sampler.key ~labels:[ ("device", device) ] name)
      v
  in
  let baseline device =
    obs device "device_alive" 0. 1.;
    obs device "flash_pec_max" 0. 10.;
    obs device "flash_rber_worst" 0. 1e-4;
    obs device "device_tolerable_rber" 0. 1e-2
  in
  (* d-1 healthy; d-2 worn past target; d-3 rber at tolerance; d-10 dead
     (also checks natural subject order: d-2 and d-3 before d-10). *)
  baseline "d-1";
  baseline "d-2";
  obs "d-2" "flash_pec_max" 1. 75.;
  baseline "d-3";
  obs "d-3" "flash_rber_worst" 1. 2e-2;
  baseline "d-10";
  obs "d-10" "device_alive" 1. 0.;
  let reports = Monitor.Health.assess s in
  Alcotest.(check (list string))
    "natural subject order" [ "d-1"; "d-2"; "d-3"; "d-10" ]
    (List.map (fun r -> r.Monitor.Health.subject) reports);
  Alcotest.(check (list string))
    "grades"
    [ "HEALTHY"; "DEGRADED"; "FAILING"; "RETIRED" ]
    (List.map
       (fun r -> Monitor.Health.grade_label r.Monitor.Health.grade)
       reports)

let test_health_single_subject_fallback () =
  (* No series carries a device label: the whole sampler is one subject
     (the single-device [age] path). *)
  let s = Monitor.Sampler.create () in
  Monitor.Sampler.observe s ~time:0. (Monitor.Sampler.key "device_alive") 1.;
  Monitor.Sampler.observe s ~time:0. (Monitor.Sampler.key "flash_pec_max") 3.;
  match Monitor.Health.assess s with
  | [ r ] ->
      checks "subject name" "device" r.Monitor.Health.subject;
      checkb "healthy" true (r.Monitor.Health.grade = Monitor.Health.Healthy)
  | _ -> Alcotest.fail "expected exactly one subject"

(* --- Sink -------------------------------------------------------------------- *)

let test_sink_nesting_and_merge () =
  let sink = Telemetry.Trace.Sink.create () in
  let root = Telemetry.Trace.Sink.enter sink "root" in
  let child = Telemetry.Trace.Sink.enter sink "child" in
  checkb "child nests under root" true
    (Telemetry.Trace.Sink.current sink = Some child);
  Telemetry.Trace.Sink.exit sink;
  (* A sub-sink merged mid-span splices under the open root span, with
     ids and ticks renumbered past the host's. *)
  let sub = Telemetry.Trace.Sink.create () in
  ignore (Telemetry.Trace.Sink.enter sub "task");
  Telemetry.Trace.Sink.instant sub "tick" [];
  Telemetry.Trace.Sink.exit sub;
  Telemetry.Trace.Sink.merge ~into:sink
    ?parent:(Telemetry.Trace.Sink.current sink)
    sub;
  Telemetry.Trace.Sink.exit sink;
  match Telemetry.Trace.Sink.spans sink with
  | [ r; c; t ] ->
      checkb "root is a root" true (r.Telemetry.Trace.Sink.parent = None);
      checkb "child under root" true
        (c.Telemetry.Trace.Sink.parent = Some root);
      checkb "merged span re-parented under root" true
        (t.Telemetry.Trace.Sink.parent = Some root);
      checkb "merged ids renumbered" true (t.Telemetry.Trace.Sink.id > c.Telemetry.Trace.Sink.id);
      checkb "merged ticks offset past host" true
        (t.Telemetry.Trace.Sink.start > c.Telemetry.Trace.Sink.finish);
      checki "one instant" 1 (List.length (Telemetry.Trace.Sink.instants sink))
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

(* Three sub-sinks with nested spans merged in submission order: the
   exact reduction the parallel experiment layer performs.  Ids and
   ticks must renumber contiguously past everything already spliced,
   nesting inside each sub-sink must survive the offset, and the
   Chrome-trace bytes must equal those of the same timeline recorded
   sequentially into one sink. *)
let test_sink_merge_offsets_many () =
  let open Telemetry.Trace.Sink in
  (* Each task records root(i) > inner(i) > leaf(i), with an instant
     inside inner. *)
  let record sink i =
    ignore (enter sink (Printf.sprintf "task%d" i));
    ignore (enter sink (Printf.sprintf "inner%d" i));
    instant sink (Printf.sprintf "mark%d" i) [];
    ignore (enter sink (Printf.sprintf "leaf%d" i));
    exit sink;
    exit sink;
    exit sink
  in
  let host = create () in
  let host_root = enter host "host" in
  let subs = List.init 3 (fun i -> i) in
  List.iter
    (fun i ->
      let sub = create () in
      record sub i;
      merge ~into:host ?parent:(current host) sub)
    subs;
  exit host;
  let spans = spans host in
  checki "1 host + 3x3 merged spans" 10 (List.length spans);
  (* Ids are the positions in enter order: contiguous from 1 with no
     collisions across the three splices. *)
  Alcotest.(check (list int))
    "ids renumbered contiguously"
    (List.init 10 (fun i -> i + 1))
    (List.map (fun s -> s.id) spans);
  let find name = List.find (fun s -> s.name = name) spans in
  List.iter
    (fun i ->
      let root = find (Printf.sprintf "task%d" i) in
      let inner = find (Printf.sprintf "inner%d" i) in
      let leaf = find (Printf.sprintf "leaf%d" i) in
      checkb "sub-root re-parented under host" true
        (root.parent = Some host_root);
      checkb "nesting preserved through renumbering" true
        (inner.parent = Some root.id && leaf.parent = Some inner.id);
      checkb "span extents stay well-formed" true
        (root.start < inner.start && inner.start < leaf.start
        && leaf.finish <= inner.finish
        && inner.finish <= root.finish))
    subs;
  (* Later splices land strictly after earlier ones on the tick line. *)
  let tick_ranges =
    List.map
      (fun i ->
        let root = find (Printf.sprintf "task%d" i) in
        (root.start, root.finish))
      subs
  in
  (match tick_ranges with
  | [ (_, f0); (s1, f1); (s2, _) ] ->
      checkb "splices ordered on the tick line" true (f0 < s1 && f1 < s2)
  | _ -> Alcotest.fail "expected 3 ranges");
  (* Instants carry their tags and offsets too, in splice order. *)
  Alcotest.(check (list string))
    "instants spliced in order"
    [ "mark0"; "mark1"; "mark2" ]
    (List.map (fun (_, name, _) -> name) (instants host));
  (* The merged timeline exports byte-identically to the same events
     recorded sequentially into a single sink. *)
  let seq = create () in
  ignore (enter seq "host");
  List.iter (record seq) subs;
  exit seq;
  checks "chrome trace equals sequential recording"
    (Monitor.Chrome_trace.to_string seq)
    (Monitor.Chrome_trace.to_string host)

(* --- golden exports ---------------------------------------------------------- *)

(* Exact bytes: these formats are consumed by external tools and diffed
   across --jobs in CI, so lock them down. *)

let golden_sampler () =
  let s = Monitor.Sampler.create () in
  Monitor.Sampler.observe s ~time:0.
    (Monitor.Sampler.key ~labels:[ ("device", "d0") ] "rber")
    0.5;
  Monitor.Sampler.observe s ~time:0. (Monitor.Sampler.key "wear") 3.;
  Monitor.Sampler.observe s ~time:1. (Monitor.Sampler.key "wear") 4.5;
  s

let test_timeline_csv_golden () =
  checks "csv bytes"
    "metric,labels,field,t0,t1,last,mean,min,max,n\n\
     rber,device=d0,value,0,0,0.5,0.5,0.5,0.5,1\n\
     wear,,value,0,0,3,3,3,3,1\n\
     wear,,value,1,1,4.5,4.5,4.5,4.5,1\n"
    (Monitor.Timeline.to_csv (golden_sampler ()))

let test_timeline_jsonl_golden () =
  checks "jsonl bytes"
    "{\"metric\":\"rber\",\"labels\":{\"device\":\"d0\"},\"field\":\"value\",\
     \"points\":[[0,0,0.5,0.5,0.5,0.5,1]]}\n\
     {\"metric\":\"wear\",\"labels\":{},\"field\":\"value\",\
     \"points\":[[0,0,3,3,3,3,1],[1,1,4.5,4.5,4.5,4.5,1]]}\n"
    (Monitor.Timeline.to_jsonl (golden_sampler ()))

let test_chrome_trace_golden () =
  let sink = Telemetry.Trace.Sink.create () in
  ignore (Telemetry.Trace.Sink.enter sink "root");
  ignore (Telemetry.Trace.Sink.enter sink ~args:[ ("k", "v") ] "child");
  Telemetry.Trace.Sink.exit sink;
  Telemetry.Trace.Sink.instant sink "ping" [ ("a", "1") ];
  Telemetry.Trace.Sink.exit sink;
  checks "trace bytes"
    ("{\"traceEvents\":["
   ^ "{\"name\":\"root\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":1,\"dur\":4,\
      \"pid\":0,\"tid\":0,\"args\":{\"id\":\"1\"}},\n "
   ^ "{\"name\":\"child\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":2,\"dur\":1,\
      \"pid\":0,\"tid\":0,\"args\":{\"k\":\"v\",\"id\":\"2\",\"parent\":\"1\"}},\n "
   ^ "{\"name\":\"ping\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":4,\"pid\":0,\
      \"tid\":0,\"s\":\"g\",\"args\":{\"a\":\"1\"}}"
   ^ "],\"displayTimeUnit\":\"ms\"}\n")
    (Monitor.Chrome_trace.to_string sink)

(* --- Engine + fleet determinism ---------------------------------------------- *)

let fleet_rules () =
  [
    Monitor.Alert.rule ~direction:Monitor.Alert.Below ~metric:"device_alive"
      ~fire:0.5 ~resolve:0.5 "device-dead";
    Monitor.Alert.rule ~metric:"flash_pec_max"
      ~fire:(float_of_int Experiments.Defaults.target_pec)
      ~resolve:(0.9 *. float_of_int Experiments.Defaults.target_pec)
      "wear-past-target";
  ]

let monitored_fleet ?pool () =
  let registry = Telemetry.Registry.create () in
  let monitor =
    Monitor.Engine.create ~sample_every:3 ~rules:(fleet_rules ())
      ~sink:(Telemetry.Trace.Sink.create ())
      ()
  in
  let ctx = Experiments.Ctx.make ~registry ?pool ~monitor () in
  ignore (Experiments.Fleet.run ~devices:3 ~days:12 ~dwpd:2. ~ctx `Regens);
  let health =
    Format.asprintf "%a" Monitor.Health.pp
      (Monitor.Health.assess (Monitor.Engine.sampler monitor))
  in
  let alerts =
    Format.asprintf "%a" Monitor.Alert.pp (Monitor.Engine.alert_log monitor)
  in
  let trace =
    match Monitor.Engine.sink monitor with
    | Some sink -> Monitor.Chrome_trace.to_string sink
    | None -> ""
  in
  (Monitor.Timeline.to_csv (Monitor.Engine.sampler monitor), health, alerts,
   trace, monitor)

let test_fleet_monitor_determinism () =
  let csv1, health1, alerts1, trace1, _ = monitored_fleet () in
  let csv2, health2, alerts2, trace2, _ =
    Parallel.Pool.with_pool ~domains:3 (fun pool -> monitored_fleet ~pool ())
  in
  checks "timeline identical at any job count" csv1 csv2;
  checks "health report identical" health1 health2;
  checks "alert log identical" alerts1 alerts2;
  checks "chrome trace identical" trace1 trace2;
  checkb "timeline non-empty" true (String.length csv1 > 100);
  checkb "trace has spans" true
    (String.length trace1 > String.length "{\"traceEvents\":[]}")

let test_fleet_wear_series_monotone () =
  let _, _, _, _, monitor = monitored_fleet () in
  let sampler = Monitor.Engine.sampler monitor in
  let wear_series =
    List.filter
      (fun ((k : Monitor.Sampler.Key.t), _) ->
        k.Monitor.Sampler.Key.name = "flash_pec_max"
        && k.Monitor.Sampler.Key.field = "value")
      (Monitor.Sampler.series sampler)
  in
  checki "one wear series per device" 3 (List.length wear_series);
  List.iter
    (fun (_, series) ->
      checkb "several samples" true (Monitor.Series.total series > 2);
      ignore
        (List.fold_left
           (fun prev (p : Monitor.Series.point) ->
             checkb "pec never decreases" true
               (prev <= p.Monitor.Series.last +. 1e-9);
             p.Monitor.Series.last)
           0. (Monitor.Series.points series)))
    wear_series

let test_engine_due_and_absorb () =
  let engine = Monitor.Engine.create ~sample_every:3 () in
  checkb "tick 0 due" true (Monitor.Engine.due engine ~tick:0);
  checkb "tick 1 not due" false (Monitor.Engine.due engine ~tick:1);
  checkb "tick 3 due" true (Monitor.Engine.due engine ~tick:3);
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge reg "x") 1.;
  let sub = Monitor.Engine.sub engine in
  Monitor.Engine.sample sub ~time:0. reg;
  Monitor.Engine.absorb ~into:engine ~labels:[ ("device", "d7") ] sub;
  checki "samples accumulate" 1 (Monitor.Engine.samples engine);
  checkb "series relabeled" true
    (Monitor.Sampler.find (Monitor.Engine.sampler engine)
       (Monitor.Sampler.key ~labels:[ ("device", "d7") ] "x")
    <> None)

let suite =
  [
    ("series: small inputs", `Quick, test_series_small);
    ("series: downsampling invariants", `Quick, test_series_downsamples);
    QCheck_alcotest.to_alcotest prop_series_invariants;
    ("sampler: registry snapshots", `Quick, test_sampler_snapshots_registry);
    ("sampler: labeled merge", `Quick, test_sampler_merge_labels);
    ("alert: hysteresis band", `Quick, test_alert_hysteresis);
    ("alert: below direction", `Quick, test_alert_below_direction);
    ("health: grading + natural order", `Quick, test_health_grades);
    ("health: single-subject fallback", `Quick,
     test_health_single_subject_fallback);
    ("sink: nesting and merge", `Quick, test_sink_nesting_and_merge);
    ("sink: 3-way merge renumbering", `Quick, test_sink_merge_offsets_many);
    ("timeline: csv golden", `Quick, test_timeline_csv_golden);
    ("timeline: jsonl golden", `Quick, test_timeline_jsonl_golden);
    ("chrome trace: golden", `Quick, test_chrome_trace_golden);
    ("fleet: byte-identical at any jobs", `Slow,
     test_fleet_monitor_determinism);
    ("fleet: wear series monotone", `Slow, test_fleet_wear_series_monotone);
    ("engine: due + absorb", `Quick, test_engine_due_and_absorb);
  ]
