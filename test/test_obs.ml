(* Tests for the fleet observability plane: the exact top-K tracker
   (brute-force equality on fleets up to 4096), the space-saving counts
   sketch (error bounds and heavy-hitter guarantee), and the fleet
   report (grading, imbalance statistics, histogram quantile accuracy
   and merge-order independence, submission-order merge determinism of
   the rendered bytes). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf epsilon = Alcotest.check (Alcotest.float epsilon)

(* --- Topk -------------------------------------------------------------------- *)

(* The same ordering the tracker promises: score descending, natural id
   ascending. *)
let brute_top_k ~k entries =
  let cmp (ida, sa) (idb, sb) =
    match compare sb sa with
    | 0 -> Monitor.Health.natural_compare ida idb
    | c -> c
  in
  let sorted = List.sort cmp entries in
  List.filteri (fun i _ -> i < k) sorted

let prop_topk_exact_vs_brute_force =
  QCheck.Test.make ~count:50
    ~name:"topk: chunked merge equals brute force on fleets <= 4096"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 1 4096) (int_range 1 32) (int_range 1 8)))
    (fun (devices, k, chunks) ->
      (* Deterministic pseudo-random scores with ties. *)
      let score i = float_of_int ((i * 2654435761) mod 97) in
      let entries =
        List.init devices (fun i -> (Printf.sprintf "dev-%d" i, score i))
      in
      let per = Stdlib.max 1 ((devices + chunks - 1) / chunks) in
      let global = Obs.Topk.Topk.create ~k () in
      let i = ref 0 in
      while !i < devices do
        let sub = Obs.Topk.Topk.create ~k () in
        for j = !i to Stdlib.min (devices - 1) (!i + per - 1) do
          Obs.Topk.Topk.offer sub
            ~id:(Printf.sprintf "dev-%d" j)
            ~score:(score j) ()
        done;
        Obs.Topk.Topk.merge ~into:global sub;
        i := !i + per
      done;
      let got =
        List.map (fun (id, s, ()) -> (id, s)) (Obs.Topk.Topk.to_list global)
      in
      got = brute_top_k ~k entries)

let test_topk_natural_tie_order () =
  let t = Obs.Topk.Topk.create ~k:3 () in
  List.iter
    (fun id -> Obs.Topk.Topk.offer t ~id ~score:1. ())
    [ "dev-10"; "dev-2"; "dev-1"; "dev-9" ];
  Alcotest.(check (list string))
    "ties resolve in natural id order"
    [ "dev-1"; "dev-2"; "dev-9" ]
    (List.map (fun (id, _, ()) -> id) (Obs.Topk.Topk.to_list t))

(* --- Fleet report ------------------------------------------------------------ *)

let obs ?(pec_max = 10) ?(pec_min = 5) ?(rber = 1e-4) ?(tol = 1e-2)
    ?(retries = 0) ?(escalations = 0) ?(host_writes = 1000) ?(alive = true) id =
  {
    Obs.Fleet_report.id;
    pec_max;
    pec_min;
    rber_worst = rber;
    tolerable_rber = tol;
    retries;
    escalations;
    reclaims = 0;
    host_writes;
    alive;
  }

let thresholds =
  { Monitor.Health.default_thresholds with Monitor.Health.target_pec = 60. }

let test_report_grading () =
  let g = Obs.Fleet_report.grade thresholds in
  checkb "alive and comfortable is healthy" true
    (g (obs "a") = Monitor.Health.Healthy);
  checkb "dead is retired" true
    (g (obs ~alive:false "b") = Monitor.Health.Retired);
  checkb "rber at tolerance is failing" true
    (g (obs ~rber:1e-2 ~tol:1e-2 "c") = Monitor.Health.Failing);
  checkb "past target pec is degraded" true
    (g (obs ~pec_max:60 "d") = Monitor.Health.Degraded);
  checkb "retry-heavy is degraded" true
    (g (obs ~retries:100 ~host_writes:1000 "e") = Monitor.Health.Degraded)

let test_report_balance_stats () =
  (* Perfectly level fleet: CV and Gini must both be zero. *)
  let acc = Obs.Fleet_report.Acc.create ~thresholds () in
  for i = 0 to 99 do
    Obs.Fleet_report.Acc.observe acc (obs ~pec_max:30 (Printf.sprintf "d-%d" i))
  done;
  let r = Obs.Fleet_report.build ~epoch:"t" acc in
  checki "devices counted" 100 r.Obs.Fleet_report.devices;
  checkf 0. "cv zero on a level fleet" 0. r.Obs.Fleet_report.cv;
  checkf 0. "gini zero on a level fleet" 0. r.Obs.Fleet_report.gini;
  checkf 0. "pec mean" 30. r.Obs.Fleet_report.pec.Obs.Fleet_report.mean;
  (* Maximal imbalance: one device carries all the wear. *)
  let acc = Obs.Fleet_report.Acc.create ~thresholds () in
  Obs.Fleet_report.Acc.observe acc (obs ~pec_max:50 "hot");
  for i = 1 to 49 do
    Obs.Fleet_report.Acc.observe acc (obs ~pec_max:0 (Printf.sprintf "cold-%d" i))
  done;
  let r = Obs.Fleet_report.build ~epoch:"t" acc in
  (* Gini of one-owner distribution over n devices is (n-1)/n. *)
  checkf 1e-9 "gini of a one-owner fleet" 0.98 r.Obs.Fleet_report.gini;
  checkb "cv reflects concentration" true (r.Obs.Fleet_report.cv > 6.)

(* The runner's invariant: the chunk partition is fixed by the fleet
   shape, workers fill their chunks in whatever order they get
   scheduled, and the driver merges in submission order — so the bytes
   must not depend on fill order. *)
let test_report_merge_deterministic () =
  let observe acc i =
    Obs.Fleet_report.Acc.observe acc
      (obs
         ~pec_max:((i * 13) mod 80)
         ~retries:((i * 7) mod 9)
         ~alive:(i mod 17 <> 0)
         (Printf.sprintf "dev-%d" i))
  in
  let run fill_order =
    let par = Obs.Fleet_report.Acc.create ~top_k:5 ~thresholds () in
    let subs = Array.init 4 (fun _ -> Obs.Fleet_report.Acc.sub par) in
    List.iter
      (fun c ->
        for i = c * 50 to (c * 50) + 49 do
          observe subs.(c) i
        done)
      fill_order;
    Array.iter (fun s -> Obs.Fleet_report.Acc.merge ~into:par s) subs;
    let r = Obs.Fleet_report.build ~epoch:"merge-test" par in
    (Format.asprintf "%a" Obs.Fleet_report.pp r, Obs.Fleet_report.to_jsonl r)
  in
  let text_a, json_a = run [ 0; 1; 2; 3 ]
  and text_b, json_b = run [ 3; 1; 0; 2 ] in
  checks "report text independent of worker completion order" text_a text_b;
  checks "report jsonl independent of worker completion order" json_a json_b;
  checkb "report is non-trivial" true (String.length text_a > 100)

(* Quantile accuracy and merge laws, seen through the report: the
   report's quantiles come from log-linear histograms, so each lies in
   the bucket of the exact nearest-rank order statistic — within 2^-5
   relative error at any magnitude — and never outside [min, max]. *)

let float_list_gen =
  QCheck.Gen.(
    oneof
      [
        (* uniform *)
        list_size (int_range 100 3000) (float_bound_inclusive 1000.);
        (* heavy-tailed: squares of uniforms stretched *)
        map
          (List.map (fun x -> (x *. x) +. 1.))
          (list_size (int_range 100 3000) (float_bound_inclusive 100.));
        (* few distinct values, many repeats *)
        list_size (int_range 100 3000) (map float_of_int (int_range 0 5));
        (* RBER-like: many decades *)
        list_size (int_range 100 3000)
          (map (fun e -> 10. ** e) (float_range (-12.) 0.));
      ])

let exact_percentile sorted q =
  let n = Array.length sorted in
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(Stdlib.min n rank - 1)

let within_bucket exact estimate =
  if exact <= 0. then estimate = exact
  else Float.abs (estimate -. exact) <= exact /. 32.

let report_of values ~chunks ~order =
  let arr = Array.of_list values in
  let n = Array.length arr in
  let per = Stdlib.max 1 ((n + chunks - 1) / chunks) in
  let acc = Obs.Fleet_report.Acc.create ~thresholds () in
  let subs =
    List.init chunks (fun c ->
        let sub = Obs.Fleet_report.Acc.sub acc in
        for j = c * per to Stdlib.min (n - 1) (((c + 1) * per) - 1) do
          Obs.Fleet_report.Acc.observe sub
            (obs ~rber:arr.(j) ~pec_max:(int_of_float arr.(j))
               (Printf.sprintf "d-%d" j))
        done;
        sub)
  in
  List.iter
    (fun i -> Obs.Fleet_report.Acc.merge ~into:acc (List.nth subs i))
    order;
  Obs.Fleet_report.build ~epoch:"q" acc

let rber_fields (r : Obs.Fleet_report.t) =
  let s = r.Obs.Fleet_report.rber in
  Obs.Fleet_report.[ s.smin; s.smax; s.p50; s.p90; s.p99 ]

let prop_report_quantiles_accurate =
  QCheck.Test.make ~count:60 ~name:"report: quantiles within 2^-5 of exact"
    (QCheck.make float_list_gen)
    (fun values ->
      let r = report_of values ~chunks:1 ~order:[ 0 ] in
      let sorted = Array.of_list (List.sort compare values) in
      let s = r.Obs.Fleet_report.rber in
      List.for_all2
        (fun q estimate -> within_bucket (exact_percentile sorted q) estimate)
        [ 0.5; 0.9; 0.99 ]
        Obs.Fleet_report.[ s.p50; s.p90; s.p99 ]
      && s.Obs.Fleet_report.smin = sorted.(0)
      && s.Obs.Fleet_report.smax = sorted.(Array.length sorted - 1))

(* Histogram merge is bucket addition: any chunking merged in any order
   yields bit-identical quantiles, extremes and Gini. *)
let prop_report_merge_order_free =
  QCheck.Test.make ~count:40
    ~name:"report: quantiles and gini independent of chunking and merge order"
    (QCheck.make
       QCheck.Gen.(
         triple float_list_gen (int_range 1 7) (int_range 0 1_000_000)))
    (fun (values, chunks, seed) ->
      let order =
        let a = Array.init chunks Fun.id in
        let st = Random.State.make [| seed |] in
        for i = chunks - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let whole = report_of values ~chunks:1 ~order:[ 0 ]
      and merged = report_of values ~chunks ~order in
      let bits r =
        List.map Int64.bits_of_float
          (r.Obs.Fleet_report.gini
          :: r.Obs.Fleet_report.pec.Obs.Fleet_report.p99
          :: rber_fields r)
      in
      merged.Obs.Fleet_report.devices = List.length values
      && bits whole = bits merged)

let test_report_single_device () =
  let acc = Obs.Fleet_report.Acc.create ~thresholds () in
  Obs.Fleet_report.Acc.observe acc (obs ~rber:42e-5 "only");
  let r = Obs.Fleet_report.build ~epoch:"t" acc in
  List.iter
    (fun v -> checkf 0. "single value at every quantile" 42e-5 v)
    (rber_fields r)

let test_report_worst_ranking () =
  let acc = Obs.Fleet_report.Acc.create ~top_k:3 ~thresholds () in
  Obs.Fleet_report.Acc.observe acc (obs ~alive:false "dead-1");
  Obs.Fleet_report.Acc.observe acc (obs ~rber:0.5 ~tol:1e-2 "failing-1");
  Obs.Fleet_report.Acc.observe acc (obs ~pec_max:70 "worn-1");
  Obs.Fleet_report.Acc.observe acc (obs "fine-1");
  let r = Obs.Fleet_report.build ~epoch:"t" acc in
  Alcotest.(check (list string))
    "severity dominates the worst list"
    [ "dead-1"; "failing-1"; "worn-1" ]
    (List.map (fun (o, _) -> o.Obs.Fleet_report.id) r.Obs.Fleet_report.worst);
  checki "grade histogram: one healthy" 1
    (Obs.Fleet_report.grade_count r Monitor.Health.Healthy);
  checki "grade histogram: one retired" 1
    (Obs.Fleet_report.grade_count r Monitor.Health.Retired)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_topk_exact_vs_brute_force;
    ("topk: natural tie order", `Quick, test_topk_natural_tie_order);
    ("report: grading", `Quick, test_report_grading);
    ("report: balance statistics", `Quick, test_report_balance_stats);
    ("report: merge determinism", `Quick, test_report_merge_deterministic);
    QCheck_alcotest.to_alcotest prop_report_quantiles_accurate;
    QCheck_alcotest.to_alcotest prop_report_merge_order_free;
    ("report: single device", `Quick, test_report_single_device);
    ("report: worst ranking", `Quick, test_report_worst_ranking);
  ]
