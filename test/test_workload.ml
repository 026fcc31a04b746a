(* Tests for the workload library: pattern generators, trace capture and
   replay, and the aging drivers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let geometry = Flash.Geometry.create ~pages_per_block:8 ~blocks:16 ()

let gentle_model =
  Flash.Rber_model.calibrate ~target_rber:3e-3 ~target_pec:1_000_000 ()

let fast_model = Flash.Rber_model.calibrate ~target_rber:6e-3 ~target_pec:40 ()

(* --- patterns ----------------------------------------------------------- *)

let test_sequential_wraps () =
  let p = Workload.Pattern.sequential ~window:4 in
  let rng = Sim.Rng.create 1 in
  let lbas =
    List.init 9 (fun _ -> (Workload.Pattern.next p rng).Workload.Access.lba)
  in
  Alcotest.(check (list int)) "wraps" [ 0; 1; 2; 3; 0; 1; 2; 3; 0 ] lbas

let test_sequential_writes_only () =
  let p = Workload.Pattern.sequential ~window:10 in
  let rng = Sim.Rng.create 1 in
  for _ = 1 to 20 do
    checkb "write kind" true
      ((Workload.Pattern.next p rng).Workload.Access.kind = Workload.Access.Write)
  done

let test_uniform_bounds_and_mix () =
  let p = Workload.Pattern.uniform ~window:100 ~read_fraction:0.3 in
  let rng = Sim.Rng.create 2 in
  let reads = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    let a = Workload.Pattern.next p rng in
    checkb "in window" true (a.Workload.Access.lba >= 0 && a.Workload.Access.lba < 100);
    if a.Workload.Access.kind = Workload.Access.Read then incr reads
  done;
  let fraction = float_of_int !reads /. float_of_int total in
  checkb "read mix near 0.3" true (Float.abs (fraction -. 0.3) < 0.02)

let test_zipf_skew_and_resize () =
  let p = Workload.Pattern.zipfian ~window:100 ~theta:1.0 ~read_fraction:0. in
  let rng = Sim.Rng.create 3 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let a = Workload.Pattern.next p rng in
    counts.(a.Workload.Access.lba) <- counts.(a.Workload.Access.lba) + 1
  done;
  checkb "head hot" true (counts.(0) > 5 * counts.(50));
  (* shrink the window; all subsequent accesses respect it *)
  Workload.Pattern.resize p ~window:10;
  for _ = 1 to 1000 do
    checkb "resized window" true ((Workload.Pattern.next p rng).Workload.Access.lba < 10)
  done

let test_pattern_invalid_window () =
  Alcotest.check_raises "zero window"
    (Invalid_argument "Pattern: window must be positive") (fun () ->
      ignore (Workload.Pattern.sequential ~window:0))

(* --- trace ---------------------------------------------------------------- *)

let test_trace_capture_replay () =
  let p = Workload.Pattern.sequential ~window:5 in
  let rng = Sim.Rng.create 4 in
  let trace = Workload.Trace.create () in
  Workload.Trace.capture trace p rng ~n:7;
  checki "length" 7 (Workload.Trace.length trace);
  let lbas = List.map (fun a -> a.Workload.Access.lba) (Workload.Trace.to_list trace) in
  Alcotest.(check (list int)) "order preserved" [ 0; 1; 2; 3; 4; 0; 1 ] lbas;
  (* replay visits the same accesses *)
  let seen = ref [] in
  Workload.Trace.iter trace (fun a -> seen := a.Workload.Access.lba :: !seen);
  Alcotest.(check (list int)) "iter order" lbas (List.rev !seen)

let test_trace_of_list_roundtrip () =
  let accesses =
    [
      { Workload.Access.kind = Workload.Access.Write; lba = 3 };
      { Workload.Access.kind = Workload.Access.Read; lba = 1 };
    ]
  in
  let trace = Workload.Trace.of_list accesses in
  checkb "roundtrip" true (Workload.Trace.to_list trace = accesses)

(* --- trace on-disk format ------------------------------------------------- *)

let test_trace_golden_format () =
  (* The v1 format is an artifact other tools read; pin it byte-for-byte. *)
  let trace =
    Workload.Trace.of_events
      [
        { Workload.Trace.tenant = 0;
          access = { Workload.Access.kind = Workload.Access.Write; lba = 7 } };
        { Workload.Trace.tenant = 12;
          access = { Workload.Access.kind = Workload.Access.Read; lba = 4096 } };
        { Workload.Trace.tenant = 3;
          access = { Workload.Access.kind = Workload.Access.Trim; lba = 0 } };
      ]
  in
  Alcotest.(check string)
    "golden v1 bytes" "salamander-trace v1\n0 w 7\n12 r 4096\n3 d 0\n"
    (Workload.Trace.to_string trace)

let test_trace_rejects_garbage () =
  checkb "bad header rejected" true
    (Result.is_error (Workload.Trace.of_string "salamander-trace v9\n0 w 1\n"));
  checkb "bad op rejected" true
    (Result.is_error
       (Workload.Trace.of_string "salamander-trace v1\n0 x 1\n"));
  checkb "bad arity rejected" true
    (Result.is_error (Workload.Trace.of_string "salamander-trace v1\n0 w\n"));
  checkb "missing file reported" true
    (Result.is_error (Workload.Trace.of_file ~path:"/nonexistent/trace"))

let test_trace_file_roundtrip () =
  let path = Filename.temp_file "salamander" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let trace = Workload.Trace.create () in
      Workload.Trace.capture trace
        (Workload.Pattern.uniform ~window:100 ~read_fraction:0.5)
        (Sim.Rng.create 13) ~n:50;
      Telemetry.Export.write_file ~path (Workload.Trace.to_string trace);
      match Workload.Trace.of_file ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
          checkb "events identical after disk roundtrip" true
            (Workload.Trace.to_events loaded = Workload.Trace.to_events trace))

let gen_event =
  QCheck.(
    map
      (fun (tenant, op, lba) ->
        let kind =
          match op with
          | 0 -> Workload.Access.Read
          | 1 -> Workload.Access.Write
          | _ -> Workload.Access.Trim
        in
        { Workload.Trace.tenant; access = { Workload.Access.kind; lba } })
      (triple int (int_range 0 2) int))

let prop_trace_string_roundtrip =
  (* of_string (to_string t) is the identity on events — including tenant
     ids and LBAs no generator would emit (negative, huge). *)
  QCheck.Test.make ~count:200 ~name:"trace of_string inverts to_string"
    (QCheck.list gen_event)
    (fun events ->
      let trace = Workload.Trace.of_events events in
      match Workload.Trace.of_string (Workload.Trace.to_string trace) with
      | Error _ -> false
      | Ok parsed -> Workload.Trace.to_events parsed = events)

(* --- trace storage ------------------------------------------------------- *)

let prop_trace_events_roundtrip =
  QCheck.Test.make ~count:200 ~name:"trace to_events inverts of_events"
    (QCheck.list gen_event)
    (fun events ->
      let trace = Workload.Trace.of_events events in
      Workload.Trace.to_events trace = events
      && Workload.Trace.length trace = List.length events)

(* The events are appended into an array that doubles when full; record
   order, [length] and the text round trip must hold on both sides of
   each growth boundary, and after [of_events] hands the array over
   exactly full. *)
let test_trace_growth_boundaries () =
  let event i =
    {
      Workload.Trace.tenant = i mod 7;
      access =
        {
          Workload.Access.kind =
            (if i mod 3 = 0 then Workload.Access.Write else Workload.Access.Read);
          lba = i;
        };
    }
  in
  List.iter
    (fun n ->
      let what s = Printf.sprintf "%d events: %s" n s in
      let trace = Workload.Trace.create () in
      for i = 0 to n - 1 do
        Workload.Trace.record_event trace (event i);
        if i = n / 2 then
          checki (what "length midway") (i + 1) (Workload.Trace.length trace)
      done;
      checki (what "length") n (Workload.Trace.length trace);
      let next = ref 0 in
      Workload.Trace.iter_events trace (fun e ->
          checkb (what "iter_events in record order") true (e = event !next);
          incr next);
      checki (what "iter_events visits every event") n !next;
      let expected = List.init n event in
      checkb (what "to_events") true (Workload.Trace.to_events trace = expected);
      (match Workload.Trace.of_string (Workload.Trace.to_string trace) with
      | Ok parsed ->
          checkb (what "text round trip") true
            (Workload.Trace.to_events parsed = expected)
      | Error e -> Alcotest.fail e);
      let handed = Workload.Trace.of_events expected in
      Workload.Trace.record_event handed (event n);
      checki (what "append after of_events") (n + 1)
        (Workload.Trace.length handed);
      checkb (what "append keeps order") true
        (Workload.Trace.to_events handed = List.init (n + 1) event))
    [ 0; 1; 63; 64; 65; 10_000 ]

(* --- aging ------------------------------------------------------------------ *)

let make_baseline seed model =
  let rng = Sim.Rng.create seed in
  let d = Ftl.Baseline_ssd.create ~geometry ~model ~rng () in
  Ftl.Device_intf.Packed ((module Ftl.Baseline_ssd), d)

let test_aging_stops_at_cap () =
  let device = make_baseline 5 gentle_model in
  let pattern = Workload.Pattern.uniform ~window:100 ~read_fraction:0.1 in
  let outcome =
    Workload.Aging.run_epoch ~quota:500 ~rng:(Sim.Rng.create 6) ~pattern
      ~device ()
  in
  checki "writes capped" 500 outcome.Workload.Aging.host_writes;
  checkb "did not die" true (not outcome.Workload.Aging.died)

let test_aging_runs_to_death () =
  let device = make_baseline 7 fast_model in
  let pattern = Workload.Pattern.uniform ~window:100 ~read_fraction:0. in
  let outcome =
    Workload.Aging.run_epoch ~quota:10_000_000 ~rng:(Sim.Rng.create 8)
      ~pattern ~device ()
  in
  checkb "died" true outcome.Workload.Aging.died;
  checkb "device agrees" true (not (Ftl.Device_intf.alive device))

let test_aging_window_tracks_capacity () =
  (* On a shrinking CVSS drive the pattern window must shrink too, or the
     run would spin on Out_of_range forever. *)
  let rng = Sim.Rng.create 9 in
  let d = Ftl.Cvss.create ~geometry ~model:fast_model ~rng () in
  let device = Ftl.Device_intf.Packed ((module Ftl.Cvss), d) in
  let pattern =
    Workload.Pattern.uniform
      ~window:(Ftl.Device_intf.logical_capacity device)
      ~read_fraction:0.
  in
  let outcome =
    Workload.Aging.run_epoch ~quota:10_000_000 ~utilization:0.45
      ~rng:(Sim.Rng.create 10) ~pattern ~device ()
  in
  checkb "shrank before dying" true (Ftl.Cvss.retired_blocks d > 0);
  checkb "completed life" true outcome.Workload.Aging.died

let test_aging_quota () =
  (* Both paths stop exactly at the quota, even mid resync stride, and
     agree on the outcome. *)
  let run path =
    let device = make_baseline 11 gentle_model in
    let pattern = Workload.Pattern.uniform ~window:50 ~read_fraction:0. in
    Workload.Aging.run_epoch ~path ~rng:(Sim.Rng.create 12) ~pattern ~device
      ~quota:123 ()
  in
  let auto = run Workload.Aging.Auto in
  checki "stopped exactly at quota" 123 auto.Workload.Aging.host_writes;
  checkb "auto and per-op agree" true (auto = run Workload.Aging.Per_op)

let suite =
  [
    ("sequential wraps", `Quick, test_sequential_wraps);
    ("sequential writes only", `Quick, test_sequential_writes_only);
    ("uniform bounds and mix", `Slow, test_uniform_bounds_and_mix);
    ("zipf skew and resize", `Slow, test_zipf_skew_and_resize);
    ("pattern invalid window", `Quick, test_pattern_invalid_window);
    ("trace capture/replay", `Quick, test_trace_capture_replay);
    ("trace of_list roundtrip", `Quick, test_trace_of_list_roundtrip);
    ("trace golden v1 format", `Quick, test_trace_golden_format);
    ("trace rejects garbage", `Quick, test_trace_rejects_garbage);
    ("trace file roundtrip", `Quick, test_trace_file_roundtrip);
    QCheck_alcotest.to_alcotest prop_trace_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_trace_events_roundtrip;
    ("trace growth boundaries", `Quick, test_trace_growth_boundaries);
    ("aging stops at cap", `Quick, test_aging_stops_at_cap);
    ("aging runs to death", `Slow, test_aging_runs_to_death);
    ("aging window tracks capacity", `Slow, test_aging_window_tracks_capacity);
    ("aging quota (auto and per-op)", `Quick, test_aging_quota);
  ]
