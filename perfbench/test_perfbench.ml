open Perfbench

let checkb = Alcotest.(check bool)
let float_eq = Alcotest.float 1e-12

(* --- statistics ---------------------------------------------------------- *)

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q = Alcotest.(triple float_eq float_eq float_eq) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two samples clamp" (0.75, 1.5, 2.25) (Stats.quartiles [| 2.; 1. |]);
  Alcotest.check q "one sample" (4., 4., 4.) (Stats.quartiles [| 4. |]);
  Alcotest.check float_eq "median" 2. (Stats.median [| 3.; 1.; 2. |])

let test_percentile_needs_ten_beyond () =
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  let p = Alcotest.(option float_eq) in
  Alcotest.check p "p90 of 100 has 10 beyond" (Some 90.) (Stats.percentile (upto 100) 0.9);
  Alcotest.check p "p91 of 100 has 9 beyond" None (Stats.percentile (upto 100) 0.91);
  Alcotest.check p "p99 of 1000" (Some 990.) (Stats.percentile (upto 1000) 0.99);
  Alcotest.check p "p99 of 999" None (Stats.percentile (upto 999) 0.99);
  Alcotest.check p "empty" None (Stats.percentile [||] 0.5)

(* --- span recorder -------------------------------------------------------- *)

let k_parent = Spans.kind ~layer:"test" "test.parent"
let k_child = Spans.kind ~samples:true ~layer:"test" "test.child"

let test_self_time () =
  Spans.reset ();
  let spin () = ignore (Sys.opaque_identity (Array.make 10_000 0.)) in
  Spans.span k_parent (fun () ->
      spin ();
      Spans.span k_child spin;
      Spans.span k_child (fun () -> Spans.add k_child 5));
  let p = Spans.summary k_parent and c = Spans.summary k_child in
  Alcotest.(check int) "parent calls" 1 p.Spans.calls;
  Alcotest.(check int) "child calls" 2 c.Spans.calls;
  Alcotest.(check int) "work credited" 5 c.Spans.work_done;
  Alcotest.(check int) "child samples kept" 2 (Array.length c.Spans.durations_s);
  Alcotest.check (Alcotest.float 1e-9) "self = total - children" p.Spans.total_s
    (p.Spans.self_s +. c.Spans.total_s);
  Alcotest.check float_eq "leaf self = total" c.Spans.total_s c.Spans.self_s;
  (try Spans.span k_parent (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising span still closes" 2 (Spans.summary k_parent).Spans.calls;
  Spans.reset ();
  Alcotest.(check int) "reset" 0 (Spans.summary k_parent).Spans.calls

(* --- the timing wrapper is transparent ------------------------------------ *)

let device_state d =
  let module D = Ftl.Device_intf in
  ( D.host_writes d,
    D.logical_capacity d,
    D.bg_stats d,
    D.write_amplification d,
    D.wear_stats d,
    List.init 64 (fun lba -> D.read d ~lba) )

let aged ~wrap ~path kind =
  let bare = Experiments.Defaults.make_device kind ~seed:5 in
  let device = if wrap then Wrap.device bare else bare in
  let capacity = Ftl.Device_intf.logical_capacity device in
  let pattern =
    Workload.Pattern.uniform ~window:(capacity * 85 / 100) ~read_fraction:0.
  in
  let outcome =
    Workload.Aging.run_epoch ~path ~rng:(Sim.Rng.create 9) ~pattern ~device
      ~quota:(5 * capacity) ()
  in
  (outcome, device_state bare)

let test_wrapper_transparent_aging () =
  List.iter
    (fun kind ->
      List.iter
        (fun path ->
          checkb
            (Experiments.Defaults.kind_label kind)
            true
            (aged ~wrap:true ~path kind = aged ~wrap:false ~path kind))
        [ Workload.Aging.Auto; Workload.Aging.Per_op ])
    [ `Baseline; `Cvss; `Regens ]

let test_wrapper_transparent_replay () =
  let cfg = Traffic_wl.smoke in
  let trace =
    Experiments.Traffic_run.make_trace ~tenants:cfg.Traffic_wl.tenants
      ~ops:cfg.Traffic_wl.ops ~seed:4
  in
  List.iter
    (fun cell ->
      let run traced =
        let o = Traffic_wl.run_cell ~traced ~cfg ~trace ~seed:4 cell in
        (Traffic_wl.outcome_key o.Traffic_wl.outcome, o.Traffic_wl.counts, o.Traffic_wl.host)
      in
      checkb "traced cell = bare cell" true (run true = run false))
    Traffic_wl.cells

(* --- smoke configurations of every workload --------------------------------- *)

let smoke (w : Harness.t) () =
  Fun.protect ~finally:w.Harness.teardown (fun () ->
      w.Harness.setup ();
      let a = w.Harness.repeat () and b = w.Harness.repeat () in
      Alcotest.(check string) "repeat digest" a.Harness.digest b.Harness.digest;
      Alcotest.(check int) "no failed units" 0 (a.Harness.failed + b.Harness.failed);
      checkb "did work" true (a.Harness.ops > 0 && a.Harness.units > 0);
      List.iter (fun (name, ok) -> checkb name true ok) (w.Harness.checks ());
      let t = w.Harness.traced () in
      List.iter (fun (name, ok) -> checkb name true ok) t.Harness.checks;
      List.iter
        (fun (name, _) ->
          checkb (name ^ " in catalogue") true (List.mem_assoc name Catalogue.per_layer))
        t.Harness.metrics;
      checkb "layers recorded" true (t.Harness.layers <> []))

let test_runner_output () =
  let w = Chaos_wl.make ~cfg:Chaos_wl.smoke ~seed:2 () in
  let r = Runner.run ~workload:w ~seconds:0. ~trace:true in
  checkb "correct" true r.Runner.correct;
  Alcotest.(check (list string))
    "every per-layer metric, in order" (List.map fst Catalogue.per_layer)
    (List.map fst r.Runner.metrics);
  let r = Runner.run ~workload:w ~seconds:0. ~trace:false in
  Alcotest.(check (list string))
    "every end-to-end metric" (List.map fst Catalogue.end_to_end)
    (List.map fst r.Runner.metrics);
  checkb "all positive" true (List.for_all (fun (_, v) -> v > 0.) r.Runner.metrics)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          ("quartiles match Python", `Quick, test_quartiles);
          ("percentile needs 10 beyond", `Quick, test_percentile_needs_ten_beyond);
        ] );
      ("spans", [ ("self time", `Quick, test_self_time) ]);
      ( "wrapper",
        [
          ("transparent under aging", `Quick, test_wrapper_transparent_aging);
          ("transparent under replay", `Quick, test_wrapper_transparent_replay);
        ] );
      ( "smoke",
        [
          ( "fleet_lifetime",
            `Quick,
            smoke (Fleet_wl.make ~cfg:Fleet_wl.smoke ~seed:3 ()) );
          ( "traffic_tail",
            `Quick,
            smoke (Traffic_wl.make ~cfg:Traffic_wl.smoke ~seed:3 ()) );
          ( "chaos_campaign",
            `Quick,
            smoke (Chaos_wl.make ~cfg:Chaos_wl.smoke ~seed:3 ()) );
          ("runner output", `Quick, test_runner_output);
        ] );
    ]
