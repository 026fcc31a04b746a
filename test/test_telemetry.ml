(* Tests for the telemetry subsystem: metric registry semantics (label
   canonicalization, handle sharing, kind clashes), snapshot determinism,
   the three exporters (table / Prometheus / JSONL with round-trip), the
   zero-cost null registry, and the span/event tracer. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf epsilon = Alcotest.check (Alcotest.float epsilon)
let checks = Alcotest.check Alcotest.string

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- Registry --------------------------------------------------------------- *)

let test_counter_gauge_basics () =
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg "requests_total" in
  Telemetry.Registry.Counter.incr c;
  Telemetry.Registry.Counter.incr c ~by:41;
  checki "counter accumulates" 42 (Telemetry.Registry.Counter.value c);
  checkb "negative increment raises" true
    (raises_invalid (fun () -> Telemetry.Registry.Counter.incr c ~by:(-1)));
  let g = Telemetry.Registry.gauge reg "depth" in
  Telemetry.Registry.Gauge.set g 7.;
  Telemetry.Registry.Gauge.add g 0.5;
  checkf 1e-9 "gauge set+add" 7.5 (Telemetry.Registry.Gauge.value g);
  (* Two components' counts on one name: each keeps its own tally, the
     registry counter aggregates both, and the null registry drops only
     the aggregate. *)
  let a = Telemetry.Registry.count reg "events_total" in
  let b = Telemetry.Registry.count reg "events_total" in
  let off = Telemetry.Registry.count Telemetry.Registry.null "events_total" in
  Telemetry.Registry.bump a;
  Telemetry.Registry.bump b ~by:4;
  Telemetry.Registry.bump off ~by:2;
  checki "own tally a" 1 a.Telemetry.Registry.n;
  checki "own tally b" 4 b.Telemetry.Registry.n;
  checki "shared counter aggregates" 5
    (Telemetry.Registry.Counter.value a.Telemetry.Registry.counter);
  checki "null registry still tallies" 2 off.Telemetry.Registry.n;
  checkb "negative bump raises" true
    (raises_invalid (fun () -> Telemetry.Registry.bump a ~by:(-1)));
  checki "rejected bump leaves the tally" 1 a.Telemetry.Registry.n

let test_label_canonicalization () =
  let reg = Telemetry.Registry.create () in
  (* Label order is irrelevant to metric identity: both registrations
     must return the same underlying counter. *)
  let a =
    Telemetry.Registry.counter reg "ops_total"
      ~labels:[ ("op", "read"); ("chip", "0") ]
  in
  let b =
    Telemetry.Registry.counter reg "ops_total"
      ~labels:[ ("chip", "0"); ("op", "read") ]
  in
  Telemetry.Registry.Counter.incr a ~by:3;
  checki "same handle regardless of label order" 3
    (Telemetry.Registry.Counter.value b);
  (* Different label values are distinct series. *)
  let other =
    Telemetry.Registry.counter reg "ops_total"
      ~labels:[ ("chip", "0"); ("op", "write") ]
  in
  checki "distinct series start at zero" 0
    (Telemetry.Registry.Counter.value other);
  checkb "duplicate label keys raise" true
    (raises_invalid (fun () ->
         Telemetry.Registry.counter reg "dup"
           ~labels:[ ("k", "1"); ("k", "2") ]));
  (* Values are unrestricted (exporters escape); keys stay strict. *)
  let eq = Telemetry.Registry.counter reg "free" ~labels:[ ("k", "a=b") ] in
  Telemetry.Registry.Counter.incr eq;
  checki "label values may contain '='" 1
    (Telemetry.Registry.Counter.value eq);
  checkb "label keys must avoid '='" true
    (raises_invalid (fun () ->
         Telemetry.Registry.counter reg "bad" ~labels:[ ("a=b", "v") ]))

let test_labels_escaping () =
  let contains text needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  let open Telemetry.Registry in
  checks "structural chars escape in canonical form" "k=a\\=b\\,c\\\\d\\n-"
    (Labels.to_string (Labels.v [ ("k", "a=b,c\\d\n-") ]));
  (* Injectivity: label sets that would collide unescaped stay
     distinct. *)
  let a = Labels.to_string (Labels.v [ ("k", "a,b") ]) in
  let b = Labels.to_string (Labels.v [ ("k", "a"); ("k2", "") ]) in
  checkb "escaping keeps distinct label sets distinct" false (a = b);
  let reg = create () in
  let c =
    counter reg "quoted_total" ~labels:[ ("cell", "plan=\"kill@600\"\nx") ]
  in
  Counter.incr c ~by:7;
  let prom = Telemetry.Export.to_prometheus (snapshot reg) in
  checkb "prometheus escapes quotes in label values" true
    (contains prom "cell=\"plan=\\\"kill@600\\\"\\nx\"");
  (* JSONL round-trips the awkward value losslessly. *)
  let back = Telemetry.Export.of_jsonl (Telemetry.Export.to_jsonl (snapshot reg)) in
  match back with
  | [ s ] ->
      checks "jsonl round-trips quoted label value"
        "cell=plan\\=\"kill@600\"\\nx"
        (Labels.to_string s.labels)
  | _ -> Alcotest.fail "expected exactly one sample"

let test_kind_clash_raises () =
  let reg = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.counter reg "x_total");
  checkb "same name as gauge raises" true
    (raises_invalid (fun () -> Telemetry.Registry.gauge reg "x_total"));
  (* ... even under different labels of the same name. *)
  checkb "kind clash across labels raises" true
    (raises_invalid (fun () ->
         Telemetry.Registry.histogram reg "x_total" ~labels:[ ("l", "1") ]));
  (* Same name + labels + kind is idempotent, not an error. *)
  let again = Telemetry.Registry.counter reg "x_total" in
  Telemetry.Registry.Counter.incr again;
  checki "re-registration shares the handle" 1
    (Telemetry.Registry.Counter.value again)

let populate reg order =
  List.iter
    (fun i ->
      match i with
      | 0 ->
          Telemetry.Registry.Counter.incr ~by:5
            (Telemetry.Registry.counter reg "alpha_total" ~help:"a")
      | 1 ->
          Telemetry.Registry.Gauge.set
            (Telemetry.Registry.gauge reg "beta" ~help:"b")
            2.5
      | _ ->
          let h =
            Telemetry.Registry.histogram reg "gamma_us" ~help:"g"
              ~labels:[ ("op", "read") ]
          in
          List.iter
            (Telemetry.Registry.Histogram.observe h)
            [ 10.; 20.; 30.; 40. ])
    order

let test_snapshot_determinism () =
  (* Snapshots are sorted by (name, labels): registration order must not
     leak into the output. *)
  let reg1 = Telemetry.Registry.create ()
  and reg2 = Telemetry.Registry.create () in
  populate reg1 [ 0; 1; 2 ];
  populate reg2 [ 2; 0; 1 ];
  let names reg =
    List.map
      (fun s ->
        (s.Telemetry.Registry.name,
         Telemetry.Registry.Labels.to_string s.Telemetry.Registry.labels))
      (Telemetry.Registry.snapshot reg)
  in
  Alcotest.(check (list (pair string string)))
    "identical sample order" (names reg1) (names reg2);
  Alcotest.(check (list (pair string string)))
    "sorted by name"
    [ ("alpha_total", ""); ("beta", ""); ("gamma_us", "op=read") ]
    (names reg1)

let test_null_registry_inert () =
  let c = Telemetry.Registry.counter Telemetry.Registry.null "n_total" in
  let g = Telemetry.Registry.gauge Telemetry.Registry.null "n" in
  let h =
    Telemetry.Registry.histogram Telemetry.Registry.null "n_us"
  in
  checkb "counter inactive" false (Telemetry.Registry.Counter.is_active c);
  checkb "gauge inactive" false (Telemetry.Registry.Gauge.is_active g);
  checkb "histogram inactive" false (Telemetry.Registry.Histogram.is_active h);
  Telemetry.Registry.Counter.incr c ~by:1000;
  Telemetry.Registry.Gauge.set g 9.;
  Telemetry.Registry.Histogram.observe h 0.5;
  checki "counter stays zero" 0 (Telemetry.Registry.Counter.value c);
  checkf 1e-9 "gauge stays zero" 0. (Telemetry.Registry.Gauge.value g);
  checki "histogram stays empty" 0 (Telemetry.Registry.Histogram.count h);
  checki "null snapshot is empty" 0
    (List.length (Telemetry.Registry.snapshot Telemetry.Registry.null))

(* --- Exporters --------------------------------------------------------------- *)

let contains_sub text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  go 0

let sample_registry () =
  let reg = Telemetry.Registry.create () in
  populate reg [ 0; 1; 2 ];
  reg

let test_prometheus_format () =
  let text =
    Telemetry.Export.to_prometheus
      (Telemetry.Registry.snapshot (sample_registry ()))
  in
  List.iter
    (fun line -> checkb line true (contains_sub text line))
    [
      "# HELP alpha_total a";
      "# TYPE alpha_total counter";
      "alpha_total 5";
      "# TYPE beta gauge";
      "beta 2.5";
      "# TYPE gamma_us summary";
      "gamma_us{op=\"read\",quantile=\"0.5\"}";
      "gamma_us_count{op=\"read\"} 4";
      "gamma_us_sum{op=\"read\"} 100";
    ]

let test_jsonl_roundtrip () =
  let samples = Telemetry.Registry.snapshot (sample_registry ()) in
  let parsed = Telemetry.Export.of_jsonl (Telemetry.Export.to_jsonl samples) in
  checki "same sample count" (List.length samples) (List.length parsed);
  List.iter2
    (fun (a : Telemetry.Registry.sample) (b : Telemetry.Registry.sample) ->
      checks "name" a.name b.name;
      checks "labels"
        (Telemetry.Registry.Labels.to_string a.labels)
        (Telemetry.Registry.Labels.to_string b.labels);
      match (a.value, b.value) with
      | Counter x, Counter y -> checki "counter value" x y
      | Gauge x, Gauge y -> checkf 1e-12 "gauge value" x y
      | Histogram x, Histogram y ->
          checki "hist count" x.count y.count;
          checkf 1e-9 "hist mean" x.mean y.mean;
          checkf 1e-9 "hist min" x.min y.min;
          checkf 1e-9 "hist max" x.max y.max;
          checkf 1e-9 "hist p50" x.p50 y.p50;
          checkf 1e-9 "hist p90" x.p90 y.p90;
          checkf 1e-9 "hist p99" x.p99 y.p99
      | _ -> Alcotest.fail "value kind changed across round-trip")
    samples parsed

let test_jsonl_nonfinite () =
  (* An empty histogram has nan summary fields; they must survive export
     (as null) and come back as nan rather than crashing the parser. *)
  let reg = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.histogram reg "empty_us");
  let parsed =
    Telemetry.Export.of_jsonl
      (Telemetry.Export.to_jsonl (Telemetry.Registry.snapshot reg))
  in
  match parsed with
  | [ { Telemetry.Registry.value = Histogram s; _ } ] ->
      checki "count zero" 0 s.count;
      checkb "mean is nan" true (Float.is_nan s.mean)
  | _ -> Alcotest.fail "expected one histogram sample"

let test_prometheus_empty_histogram () =
  (* An empty histogram must render finite text: count 0, sum 0, and no
     quantile lines (there is no data to summarize) — never NaN. *)
  let reg = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.histogram reg "empty_us");
  let text =
    Telemetry.Export.to_prometheus (Telemetry.Registry.snapshot reg)
  in
  checkb "count 0" true (contains_sub text "empty_us_count 0");
  checkb "sum 0" true (contains_sub text "empty_us_sum 0");
  checkb "no quantiles" false (contains_sub text "quantile");
  checkb "no NaN anywhere" false (contains_sub text "NaN")

let test_prometheus_single_observation () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Registry.Histogram.observe
    (Telemetry.Registry.histogram reg "one_us")
    2.5;
  let text =
    Telemetry.Export.to_prometheus (Telemetry.Registry.snapshot reg)
  in
  checkb "count 1" true (contains_sub text "one_us_count 1");
  checkb "sum 2.5" true (contains_sub text "one_us_sum 2.5");
  checkb "quantiles present" true
    (contains_sub text "one_us{quantile=\"0.5\"}");
  checkb "no NaN anywhere" false (contains_sub text "NaN")

let test_table_export () =
  let out =
    Format.asprintf "%a" Telemetry.Export.pp_table
      (Telemetry.Registry.snapshot (sample_registry ()))
  in
  checkb "mentions alpha_total" true
    (String.length out > 0
    &&
    let needle = "alpha_total" in
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0)

(* --- Trace ------------------------------------------------------------------- *)

let test_trace_span_records_duration () =
  let reg = Telemetry.Registry.create () in
  let result = Telemetry.Trace.with_span ~registry:reg "unit_test" (fun () -> 6 * 7) in
  checki "span returns thunk result" 42 result;
  let samples = Telemetry.Registry.snapshot reg in
  let span =
    List.find_opt
      (fun s ->
        s.Telemetry.Registry.name = "span_duration_us"
        && s.Telemetry.Registry.labels = [ ("span", "unit_test") ])
      samples
  in
  match span with
  | Some { Telemetry.Registry.value = Histogram s; _ } ->
      checki "one observation" 1 s.count
  | _ -> Alcotest.fail "span histogram missing"

let test_trace_event_counts () =
  let reg = Telemetry.Registry.create () in
  Telemetry.Trace.event ~registry:reg "chunk_lost" [ ("chunk", "3") ];
  Telemetry.Trace.event ~registry:reg "chunk_lost" [ ("chunk", "4") ];
  let samples = Telemetry.Registry.snapshot reg in
  match
    List.find_opt
      (fun s ->
        s.Telemetry.Registry.name = "events_total"
        && s.Telemetry.Registry.labels = [ ("event", "chunk_lost") ])
      samples
  with
  | Some { Telemetry.Registry.value = Counter n; _ } ->
      checki "events counted" 2 n
  | _ -> Alcotest.fail "event counter missing"

let test_trace_span_propagates_exceptions () =
  let reg = Telemetry.Registry.create () in
  let raised =
    match
      Telemetry.Trace.with_span ~registry:reg "boom" (fun () -> failwith "boom")
    with
    | _ -> false
    | exception Failure _ -> true
  in
  checkb "exception propagates" true raised;
  (* The duration is still recorded on the failing path. *)
  match
    List.find_opt
      (fun s -> s.Telemetry.Registry.name = "span_duration_us")
      (Telemetry.Registry.snapshot reg)
  with
  | Some { Telemetry.Registry.value = Histogram s; _ } ->
      checki "failed span recorded" 1 s.count
  | _ -> Alcotest.fail "span histogram missing"

let test_level_of_verbosity () =
  let check_level name expected actual =
    checkb name true (expected = actual)
  in
  check_level "0 is off" None (Telemetry.Trace.level_of_verbosity 0);
  check_level "1 is warning" (Some Logs.Warning)
    (Telemetry.Trace.level_of_verbosity 1);
  check_level "2 is info" (Some Logs.Info)
    (Telemetry.Trace.level_of_verbosity 2);
  check_level "3+ is debug" (Some Logs.Debug)
    (Telemetry.Trace.level_of_verbosity 7)

(* --- merge ------------------------------------------------------------------ *)

let test_merge_reduces () =
  let into = Telemetry.Registry.create () in
  let src = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter into "writes_total")
    ~by:10;
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter src "writes_total")
    ~by:32;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge into "depth") 1.;
  Telemetry.Registry.Gauge.set (Telemetry.Registry.gauge src "depth") 4.;
  let h_into = Telemetry.Registry.histogram into "lat_us" in
  let h_src = Telemetry.Registry.histogram src "lat_us" in
  List.iter (Telemetry.Registry.Histogram.observe h_into) [ 1.; 2. ];
  List.iter (Telemetry.Registry.Histogram.observe h_src) [ 3.; 9. ];
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter src "events_total")
    ~by:5;
  Telemetry.Registry.merge ~into src;
  checki "counters add" 42
    (Telemetry.Registry.Counter.value
       (Telemetry.Registry.counter into "writes_total"));
  checkf 1e-9 "gauge adopts source" 4.
    (Telemetry.Registry.Gauge.value (Telemetry.Registry.gauge into "depth"));
  checki "histogram count" 4 (Telemetry.Registry.Histogram.count h_into);
  checkf 1e-9 "histogram mean exact" 3.75
    (Telemetry.Registry.Histogram.mean h_into);
  checkf 1e-9 "histogram max" 9. (Telemetry.Registry.Histogram.max h_into);
  checki "metric missing from target registered on the fly" 5
    (Telemetry.Registry.Counter.value
       (Telemetry.Registry.counter into "events_total"))

let test_merge_null_noop () =
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg "x_total" in
  Telemetry.Registry.Counter.incr c;
  Telemetry.Registry.merge ~into:reg Telemetry.Registry.null;
  Telemetry.Registry.merge ~into:Telemetry.Registry.null reg;
  checki "live side unchanged" 1 (Telemetry.Registry.Counter.value c);
  checkb "null snapshot still empty" true
    (Telemetry.Registry.snapshot Telemetry.Registry.null = [])

let test_unshared_registry () =
  (* Unshared registries back metrics with plain refs instead of atomics;
     values, snapshots, and merging into a shared target must behave
     exactly like the shared flavour. *)
  let local = Telemetry.Registry.create ~shared:false () in
  checkb "is_shared false" false (Telemetry.Registry.is_shared local);
  checkb "default is shared" true
    (Telemetry.Registry.is_shared (Telemetry.Registry.create ()));
  let c = Telemetry.Registry.counter local "ops_total" in
  Telemetry.Registry.Counter.incr c ~by:3;
  Telemetry.Registry.Counter.incr c;
  checki "local counter counts" 4 (Telemetry.Registry.Counter.value c);
  checkb "negative incr still rejected" true
    (raises_invalid (fun () -> Telemetry.Registry.Counter.incr c ~by:(-1)));
  checki "value unchanged after rejection" 4
    (Telemetry.Registry.Counter.value c);
  let g = Telemetry.Registry.gauge local "depth" in
  Telemetry.Registry.Gauge.set g 2.;
  Telemetry.Registry.Gauge.add g 1.5;
  checkf 1e-9 "local gauge arithmetic" 3.5 (Telemetry.Registry.Gauge.value g);
  let h = Telemetry.Registry.histogram local "lat" in
  List.iter (Telemetry.Registry.Histogram.observe h) [ 1.; 10.; 100. ];
  checki "local histogram count" 3 (Telemetry.Registry.Histogram.count h);
  let into = Telemetry.Registry.create () in
  Telemetry.Registry.Counter.incr
    (Telemetry.Registry.counter into "ops_total")
    ~by:10;
  Telemetry.Registry.merge ~into local;
  checki "merge local into shared adds" 14
    (Telemetry.Registry.Counter.value
       (Telemetry.Registry.counter into "ops_total"));
  checki "merged histogram lands shared" 3
    (Telemetry.Registry.Histogram.count
       (Telemetry.Registry.histogram into "lat"))

let test_merge_kind_clash_raises () =
  let into = Telemetry.Registry.create () in
  let src = Telemetry.Registry.create () in
  ignore (Telemetry.Registry.counter into "m_total");
  ignore (Telemetry.Registry.gauge src "m_total");
  checkb "kind clash raises" true
    (raises_invalid (fun () -> Telemetry.Registry.merge ~into src))

(* --- qcheck: snapshot determinism under random registration orders ---------- *)

let prop_snapshot_order_independent =
  QCheck.Test.make ~count:100
    ~name:"snapshot independent of registration order"
    QCheck.(list (int_range 0 9))
    (fun ids ->
      let register reg order =
        List.iter
          (fun i ->
            Telemetry.Registry.Counter.incr
              (Telemetry.Registry.counter reg
                 (Printf.sprintf "m%d_total" i)
                 ~labels:[ ("i", string_of_int i) ]))
          order
      in
      let reg1 = Telemetry.Registry.create ()
      and reg2 = Telemetry.Registry.create () in
      register reg1 ids;
      register reg2 (List.rev ids);
      let key s =
        (s.Telemetry.Registry.name,
         Telemetry.Registry.Labels.to_string s.Telemetry.Registry.labels)
      in
      List.map key (Telemetry.Registry.snapshot reg1)
      = List.map key (Telemetry.Registry.snapshot reg2))

(* --- qcheck: JSONL round-trip over exotic metric populations ---------------- *)

(* Label values may contain anything except '"', '\n' and '=' (the
   registry rejects those); lean on the characters the JSON escaper has
   to work for: backslashes, braces, commas, colons, tabs. *)
let exotic_string_gen =
  let chars = "abcXYZ 0123456789{},\\:/._-+%'\t" in
  QCheck.Gen.(
    string_size
      ~gen:(map (String.get chars) (int_range 0 (String.length chars - 1)))
      (int_range 0 10))

let spec_gen =
  QCheck.Gen.(
    triple (int_range 0 2) exotic_string_gen
      (list_size (int_range 0 5) (float_bound_inclusive 100.)))

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:100 ~name:"of_jsonl inverts to_jsonl (exotic labels)"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) spec_gen))
    (fun specs ->
      let reg = Telemetry.Registry.create () in
      List.iteri
        (fun i (kind, lv, obs) ->
          (* Distinct names per spec: no kind clashes by construction. *)
          let name = Printf.sprintf "m%d%s" i (if kind = 0 then "_total" else "") in
          let labels = if lv = "" then [] else [ ("l", lv) ] in
          match kind with
          | 0 ->
              Telemetry.Registry.Counter.incr
                (Telemetry.Registry.counter reg ~labels name)
                ~by:(List.length obs)
          | 1 ->
              Telemetry.Registry.Gauge.set
                (Telemetry.Registry.gauge reg ~labels name)
                (match obs with [] -> nan | x :: _ -> x -. 50.)
          | _ ->
              let h =
                Telemetry.Registry.histogram reg ~labels name
              in
              List.iter (Telemetry.Registry.Histogram.observe h) obs)
        specs;
      let samples = Telemetry.Registry.snapshot reg in
      let parsed =
        Telemetry.Export.of_jsonl (Telemetry.Export.to_jsonl samples)
      in
      (* %.17g makes finite floats exact; non-finite travels as null and
         comes back nan, so compare nan-aware. *)
      let feq a b = (Float.is_nan a && Float.is_nan b) || a = b in
      List.length samples = List.length parsed
      && List.for_all2
           (fun (a : Telemetry.Registry.sample)
                (b : Telemetry.Registry.sample) ->
             a.name = b.name
             && Telemetry.Registry.Labels.to_string a.labels
                = Telemetry.Registry.Labels.to_string b.labels
             &&
             match (a.value, b.value) with
             | Counter x, Counter y -> x = y
             | Gauge x, Gauge y -> feq x y
             | Histogram x, Histogram y ->
                 x.count = y.count && feq x.mean y.mean && feq x.min y.min
                 && feq x.max y.max && feq x.p50 y.p50 && feq x.p90 y.p90
                 && feq x.p99 y.p99
             | _ -> false)
           samples parsed)

(* --- Histogram percentiles --------------------------------------------- *)

(* The [stats] subcommand's run: one RegenS device, 20k host writes
   under a live registry, inside a span. *)
let stats_snapshot () =
  let registry = Telemetry.Registry.create () in
  Telemetry.Trace.with_span ~registry "stats" (fun () ->
      let device = Experiments.Defaults.make_device ~registry `Regens ~seed:42 in
      let utilization = 0.85 in
      let window =
        int_of_float
          (utilization *. float_of_int (Ftl.Device_intf.logical_capacity device))
      in
      let pattern = Workload.Pattern.uniform ~window ~read_fraction:0.2 in
      ignore
        (Workload.Aging.run_epoch ~quota:20_000 ~utilization
           ~rng:(Sim.Rng.create 43) ~pattern ~device ()));
  Telemetry.Registry.snapshot registry

let test_snapshot_percentiles_ordered () =
  let histograms =
    List.filter_map
      (fun (s : Telemetry.Registry.sample) ->
        match s.value with
        | Histogram h when h.count > 0 ->
            Some (s.name ^ "{" ^ Telemetry.Registry.Labels.to_string s.labels ^ "}", h)
        | _ -> None)
      (stats_snapshot ())
  in
  checkb "flash latencies and spans observed" true (List.length histograms >= 4);
  List.iter
    (fun (name, (h : Telemetry.Registry.summary)) ->
      let chain = [ h.min; h.p50; h.p90; h.p95; h.p99; h.p999; h.max ] in
      checkb
        (name ^ ": min <= p50 <= p90 <= p95 <= p99 <= p999 <= max")
        true
        (List.sort compare chain = chain))
    histograms

let test_long_span_not_clamped () =
  (* A 5 s span: the wall clock advances 5 s between enter and exit. *)
  let now = ref 0. in
  Telemetry.Trace.set_clock (fun () ->
      let t = !now in
      now := t +. 5.;
      t);
  let reg = Telemetry.Registry.create () in
  Fun.protect
    ~finally:(fun () -> Telemetry.Trace.set_clock Sys.time)
    (fun () -> Telemetry.Trace.with_span ~registry:reg "long" ignore);
  match Telemetry.Registry.snapshot reg with
  | [ { Telemetry.Registry.value = Histogram h; _ } ] ->
      checkf 0. "exact max" 5e6 h.max;
      checkb "p999 within 1/32 of 5e6" true
        (Float.abs (h.p999 -. 5e6) <= 5e6 /. 32.)
  | _ -> Alcotest.fail "expected the one span histogram"

let suite =
  [
    ("counter and gauge basics", `Quick, test_counter_gauge_basics);
    ("label canonicalization", `Quick, test_label_canonicalization);
    ("kind clash raises", `Quick, test_kind_clash_raises);
    ("snapshot determinism", `Quick, test_snapshot_determinism);
    ("null registry inert", `Quick, test_null_registry_inert);
    ("prometheus format", `Quick, test_prometheus_format);
    ("prometheus empty histogram", `Quick, test_prometheus_empty_histogram);
    ("prometheus single observation", `Quick,
     test_prometheus_single_observation);
    ("labels escaping", `Quick, test_labels_escaping);
    ("jsonl roundtrip", `Quick, test_jsonl_roundtrip);
    ("jsonl non-finite", `Quick, test_jsonl_nonfinite);
    ("table export", `Quick, test_table_export);
    ("trace span records duration", `Quick, test_trace_span_records_duration);
    ("trace event counts", `Quick, test_trace_event_counts);
    ("trace span propagates exceptions", `Quick,
     test_trace_span_propagates_exceptions);
    ("level_of_verbosity", `Quick, test_level_of_verbosity);
    ("stats snapshot percentiles ordered", `Quick,
     test_snapshot_percentiles_ordered);
    ("long span not clamped", `Quick, test_long_span_not_clamped);
    ("registry merge reduces", `Quick, test_merge_reduces);
    ("registry merge null no-op", `Quick, test_merge_null_noop);
    ("unshared registry flavour", `Quick, test_unshared_registry);
    ("registry merge kind clash", `Quick, test_merge_kind_clash_raises);
    QCheck_alcotest.to_alcotest prop_snapshot_order_independent;
    QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
  ]
