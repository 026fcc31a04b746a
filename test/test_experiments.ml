(* Smoke and sanity tests for the experiment harness: each paper artifact
   must run and exhibit the qualitative shape claimed in EXPERIMENTS.md. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* --- report helpers ------------------------------------------------------- *)

let test_report_table_alignment () =
  let buffer = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.Report.table fmt ~header:[ "a"; "bb" ]
    ~rows:[ [ "xxx"; "y" ]; [ "z"; "wwww" ] ];
  Format.pp_print_flush fmt ();
  let lines = String.split_on_char '\n' (Buffer.contents buffer) in
  (* header + separator + 2 rows (+ trailing blank) *)
  checkb "at least 4 lines" true (List.length lines >= 4);
  (* all non-empty lines share a width *)
  let widths =
    List.filter_map
      (fun l -> if String.trim l = "" then None else Some (String.length l))
      lines
  in
  checkb "aligned columns" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_report_cells () =
  Alcotest.(check string) "percentage" "12.5%" (Experiments.Report.cell_pct 0.125);
  Alcotest.(check string) "nan" "n/a" (Experiments.Report.cell_f nan)

(* --- fig2 ------------------------------------------------------------------ *)

let test_fig2_shape () =
  let points = Experiments.Fig2.points () in
  checki "four levels" 4 (List.length points);
  let benefits = List.map (fun p -> p.Sustain.Lifetime.benefit) points in
  (match benefits with
  | [ l0; l1; l2; l3 ] ->
      checkb "L0 anchor" true (Float.abs (l0 -. 1.) < 1e-9);
      checkb "L1 near paper's 1.5x" true (l1 > 1.4 && l1 < 1.6);
      checkb "monotone" true (l2 > l1 && l3 > l2);
      checkb "diminishing" true (l2 /. l1 < l1 /. l0 && l3 /. l2 < l2 /. l1)
  | _ -> Alcotest.fail "expected 4 points");
  Experiments.Fig2.run null_fmt

(* --- fleet (fig3a/b) --------------------------------------------------------- *)

let test_fleet_baseline_dies_as_cohort () =
  let result = Experiments.Fleet.run ~devices:6 ~days:60 ~seed:33 `Baseline in
  checki "snapshot per day" 61 (List.length result.Experiments.Fleet.snapshots);
  let first = List.hd result.Experiments.Fleet.snapshots in
  checki "all alive at day 0" 6 first.Experiments.Fleet.alive;
  checkb "all dead by day 60" true
    ((List.nth result.Experiments.Fleet.snapshots 60).Experiments.Fleet.alive
    = 0);
  checki "deaths accounted" 6
    (result.Experiments.Fleet.wear_deaths + result.Experiments.Fleet.afr_deaths)

let test_fleet_regens_outlives_baseline () =
  let life kind =
    let result = Experiments.Fleet.run ~devices:6 ~days:80 ~seed:34 kind in
    (* device-days of service *)
    List.fold_left
      (fun acc s -> acc + s.Experiments.Fleet.alive)
      0 result.Experiments.Fleet.snapshots
  in
  let baseline = life `Baseline and regens = life `Regens in
  checkb
    (Printf.sprintf "regens device-days %d > baseline %d" regens baseline)
    true (regens > baseline)

let test_fleet_capacity_declines_gradually_for_regens () =
  let result = Experiments.Fleet.run ~devices:6 ~days:80 ~seed:35 `Regens in
  let capacities =
    List.map (fun s -> s.Experiments.Fleet.capacity_opages)
      result.Experiments.Fleet.snapshots
  in
  let initial = List.hd capacities in
  (* there exists an intermediate day with capacity strictly between 10%
     and 90% of initial: the gradual-decline signature the baseline lacks *)
  checkb "gradual decline" true
    (List.exists
       (fun c ->
         c > initial / 10 && c < initial * 9 / 10)
       capacities)

(* --- fig3cd ------------------------------------------------------------------- *)

let test_fig3perf_shape () =
  let points = Experiments.Fig3perf.measure ~fractions:[ 0.; 1. ] () in
  match points with
  | [ fresh; tired ] ->
      let ratio =
        tired.Experiments.Fig3perf.seq_throughput_mib_s
        /. fresh.Experiments.Fig3perf.seq_throughput_mib_s
      in
      checkb
        (Printf.sprintf "all-L1 sequential ratio %.2f near 0.75" ratio)
        true
        (ratio > 0.68 && ratio < 0.82);
      checkb "fresh extents fit one page" true
        (fresh.Experiments.Fig3perf.random16k_pages < 1.05);
      checkb "L1 extents span two pages" true
        (tired.Experiments.Fig3perf.random16k_pages > 1.95);
      checkb "4KiB latency flat" true
        (Float.abs
           (tired.Experiments.Fig3perf.random4k_us
           -. fresh.Experiments.Fig3perf.random4k_us)
        < 2.)
  | _ -> Alcotest.fail "expected 2 points"

(* --- lifetime table -------------------------------------------------------------- *)

let test_lifetime_ordering () =
  let rows = Experiments.Lifetime_table.measure ~seeds:[ 7 ] () in
  let factor kind =
    (List.find (fun r -> r.Experiments.Lifetime_table.kind = kind) rows)
      .Experiments.Lifetime_table.factor
  in
  checkb "baseline anchor" true (Float.abs (factor `Baseline -. 1.) < 1e-9);
  checkb "cvss beats baseline" true (factor `Cvss > 1.05);
  checkb "shrinks beats cvss" true (factor `Shrinks > factor `Cvss);
  checkb "regens beats shrinks" true (factor `Regens > factor `Shrinks)

(* --- uber --------------------------------------------------------------------------- *)

let test_uber_reliability_holds () =
  let rows = Experiments.Uber_table.measure ~seed:77 () in
  checki "four designs" 4 (List.length rows);
  List.iter
    (fun r ->
      (* at a 1e-11 codeword budget, uncorrectable reads in tens of
         thousands of reads must be essentially absent for every design *)
      checkb
        (Printf.sprintf "%s error rate vanishing"
           (Experiments.Defaults.kind_label r.Experiments.Uber_table.kind))
        true
        (r.Experiments.Uber_table.error_rate_ppm < 100.))
    rows;
  let writes kind =
    (List.find (fun r -> r.Experiments.Uber_table.kind = kind) rows)
      .Experiments.Uber_table.host_writes
  in
  checkb "salamander lives longer at equal reliability" true
    (writes `Regens > writes `Baseline)

(* --- carbon closing the loop ------------------------------------------------------------ *)

let test_fig4_runs_with_measured_factors () =
  Experiments.Fig4.run ~measured_lifetime:(1.6, 1.8) null_fmt;
  Experiments.Tco_table.run null_fmt;
  Experiments.Terms.run null_fmt

(* --- cluster golden digest ------------------------------------------------------------- *)

(* Golden digest of the diFS outputs: the chaos report at seed 7 under
   the default plan and the live-recovery preset, the shrink-vs-repair
   comparison, and TAB-RECOV (monolithic backends and (4,2) erasure
   coding).  Every device read draws from its device's RNG, so a
   refactor of [Difs.Cluster] that reads or writes one oPage more or
   less, reorders placement, or miscounts a cluster event moves this
   digest.  The jobs 1/4 diffs compare a build against itself; this pins
   the output across builds. *)
let golden_cluster_digest = "fe08232c37f5730aa811379880cdcce1"

let test_cluster_golden_digest () =
  let buffer = Buffer.create 16384 in
  let fmt = Format.formatter_of_buffer buffer in
  let live_recovery = List.assoc "live-recovery" Faults.Plan.presets in
  let default_passed = Experiments.Chaos.run ~seed:7 ~steps:200 fmt in
  let live_passed =
    Experiments.Chaos.run ~plan:live_recovery ~seed:7 ~steps:200 fmt
  in
  let shrink_passed =
    Experiments.Chaos.run_shrink_vs_repair ~seed:7 ~steps:200 fmt
  in
  List.iter
    (fun (r : Experiments.Recovery_table.row) ->
      Format.fprintf fmt "%s: host=%d recovery=%d events=%d lost=%d@."
        (Experiments.Defaults.kind_label r.kind)
        r.host_writes r.recovery_opages r.recovery_events r.lost_chunks)
    (Experiments.Recovery_table.measure ~devices:4 ());
  List.iter
    (fun (label, cluster, host_writes) ->
      Format.fprintf fmt "%s: host=%d written=%d read=%d lost=%d@." label
        host_writes
        (Difs.Cluster.recovery_opages cluster)
        (Difs.Cluster.recovery_read_opages cluster)
        (Difs.Cluster.lost_chunks cluster))
    (Experiments.Recovery_table.measure_redundancy ~devices:6 ());
  Format.pp_print_flush fmt ();
  checkb "default plan verdicts pass" true default_passed;
  checkb "live-recovery verdicts pass" true live_passed;
  checkb "shrink-vs-repair verdicts pass" true shrink_passed;
  Alcotest.(check string)
    "cluster outputs digest" golden_cluster_digest
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

(* --- fault-table golden digest ----------------------------------------------------------- *)

(* Golden digest of the chaos report under the [sticky] and [silent]
   presets at seed 11 over 1000 steps: every cell's chips carry live
   injected fault cells (sticky RBER excess, silent XOR masks) on worn
   blocks while the diFS scrubs and repairs through them.  A change to
   how [Flash.Chip] finds a page's faults or wear, to how a minidisk
   target reaches its device, or to how a chunk's expected payloads are
   derived moves this digest if it moves one read's outcome. *)
let golden_fault_table_digest = "2e2989e63b60bc8544679c89976d4cd2"

let test_fault_table_golden_digest () =
  let buffer = Buffer.create 16384 in
  let fmt = Format.formatter_of_buffer buffer in
  let passed =
    List.map
      (fun preset ->
        Experiments.Chaos.run
          ~plan:(List.assoc preset Faults.Plan.presets)
          ~seed:11 ~steps:1000 fmt)
      [ "sticky"; "silent" ]
  in
  Format.pp_print_flush fmt ();
  checkb "sticky and silent verdicts pass" true (List.for_all Fun.id passed);
  Alcotest.(check string)
    "fault-table outputs digest" golden_fault_table_digest
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

(* --- timing golden digest --------------------------------------------------------------- *)

(* Golden digest of every output that reads the flash timing model:
   Fig. 3c/d's points (hex floats, so one ulp moves the digest),
   AB-ECC-PLACE, and AB-QUEUE's closed-loop runs through
   [Flash.Service].  A change to [Flash.Latency] or to how a caller
   derives a cost from it moves this digest. *)
let golden_timing_digest = "7065bb16e0353673c025b73ccfdc85a3"

let test_timing_golden_digest () =
  let buffer = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buffer in
  List.iter
    (fun (p : Experiments.Fig3perf.point) ->
      Format.fprintf fmt "%h %h %h %h %h %h@." p.l1_fraction
        p.seq_throughput_mib_s p.random16k_pages p.random16k_us
        p.random16k_parallel_us p.random4k_us)
    (Experiments.Fig3perf.measure ());
  Experiments.Ablations.ecc_placement fmt;
  Experiments.Ablations.queueing fmt;
  Format.pp_print_flush fmt ();
  Alcotest.(check string)
    "timing outputs digest" golden_timing_digest
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

(* --- experiments golden digest ----------------------------------------------------------- *)

(* Golden digest of the whole experiment suite on the default context:
   the byte stream [experiments --jobs 1] prints.  The other digests pin
   the diFS, fault-table and timing outputs; this one also pins TAB-LIFE,
   TAB-UBER, Figs. 3a/b and the ablations, whose shared recipes (aging
   window, lifetime run, shared-scale devices) a refactor could move. *)
let golden_experiments_digest = "5047119001f2c68113fbff45d6af1027"

let test_experiments_golden_digest () =
  let buffer = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.All.run fmt;
  Format.pp_print_flush fmt ();
  Alcotest.(check string)
    "experiments output digest" golden_experiments_digest
    (Digest.to_hex (Digest.string (Buffer.contents buffer)))

let suite =
  [
    ("report table alignment", `Quick, test_report_table_alignment);
    ("report cells", `Quick, test_report_cells);
    ("fig2 shape", `Quick, test_fig2_shape);
    ("fleet baseline cohort death", `Slow, test_fleet_baseline_dies_as_cohort);
    ("fleet regens outlives baseline", `Slow,
     test_fleet_regens_outlives_baseline);
    ("fleet regens gradual decline", `Slow,
     test_fleet_capacity_declines_gradually_for_regens);
    ("fig3perf shape", `Slow, test_fig3perf_shape);
    ("lifetime ordering", `Slow, test_lifetime_ordering);
    ("uber reliability holds", `Slow, test_uber_reliability_holds);
    ("fig4/tco/terms run", `Quick, test_fig4_runs_with_measured_factors);
    ("cluster golden digest", `Quick, test_cluster_golden_digest);
    ("timing golden digest", `Quick, test_timing_golden_digest);
    ("fault-table golden digest", `Quick, test_fault_table_golden_digest);
    ("experiments golden digest", `Slow, test_experiments_golden_digest);
  ]
