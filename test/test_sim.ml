(* Tests for the simulation substrate: RNG, distributions, special
   functions, statistics, event queue and engine. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf epsilon = Alcotest.check (Alcotest.float epsilon)

(* --- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 1 in
  for _ = 1 to 100 do
    checkb "same seed, same stream" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  checkb "different seeds diverge" true !differs

let test_rng_copy () =
  let a = Sim.Rng.create 5 in
  ignore (Sim.Rng.bits64 a);
  let b = Sim.Rng.copy a in
  for _ = 1 to 50 do
    checkb "copy replays" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create 10 in
  let child1 = Sim.Rng.split parent in
  let child2 = Sim.Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.bits64 child1 = Sim.Rng.bits64 child2 then incr same
  done;
  checki "children do not mirror each other" 0 !same

let test_rng_int_bounds () =
  let rng = Sim.Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int rng 7 in
    checkb "0 <= x < 7" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Sim.Rng.int rng 0))

let test_rng_int_uniformity () =
  let rng = Sim.Rng.create 17 in
  let buckets = Array.make 10 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let x = Sim.Rng.int rng 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i count ->
      let expected = samples / 10 in
      checkb
        (Printf.sprintf "bucket %d within 5%% of uniform" i)
        true
        (abs (count - expected) < expected / 20))
    buckets

let test_rng_chance_extremes () =
  let rng = Sim.Rng.create 4 in
  checkb "p=0 never" false (Sim.Rng.chance rng 0.);
  checkb "p=1 always" true (Sim.Rng.chance rng 1.);
  checkb "p<0 never" false (Sim.Rng.chance rng (-0.5))

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Sim.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 50 Fun.id) sorted

(* --- qcheck: Rng stream laws the parallel layer depends on ------------- *)
(* Fleet determinism rests on exactly these: [create seed] and the
   sequence of [split]s are pure functions of the seed, [copy] replays,
   and sibling streams never collide on a 64-draw prefix. *)

let rng_seed_arb = QCheck.int_range 0 1_000_000

let draws n rng = List.init n (fun _ -> Sim.Rng.bits64 rng)

let prop_rng_seed_deterministic =
  QCheck.Test.make ~count:100 ~name:"rng: same seed, same stream and splits"
    rng_seed_arb (fun seed ->
      let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
      draws 32 a = draws 32 b
      && draws 32 (Sim.Rng.split a) = draws 32 (Sim.Rng.split b)
      && draws 32 a = draws 32 b)

let prop_rng_copy_identical =
  QCheck.Test.make ~count:100 ~name:"rng: copy replays the source sequence"
    QCheck.(pair rng_seed_arb (int_range 0 64))
    (fun (seed, burn) ->
      let a = Sim.Rng.create seed in
      for _ = 1 to burn do
        ignore (Sim.Rng.bits64 a)
      done;
      let b = Sim.Rng.copy a in
      draws 32 a = draws 32 b)

let prop_rng_split_independent =
  QCheck.Test.make ~count:100
    ~name:"rng: split children diverge from parent and each other"
    rng_seed_arb (fun seed ->
      let parent = Sim.Rng.create seed in
      let c1 = Sim.Rng.split parent in
      let c2 = Sim.Rng.split parent in
      let d1 = draws 64 c1 and d2 = draws 64 c2 and dp = draws 64 parent in
      (* Independent 64-bit streams share a whole 64-draw prefix with
         probability ~2^-4096; equality means correlation. *)
      d1 <> d2 && d1 <> dp && d2 <> dp)

(* --- Distributions ---------------------------------------------------- *)

let sample_mean n f =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int n

let test_dist_exponential_mean () =
  let rng = Sim.Rng.create 21 in
  let mean = sample_mean 50_000 (fun () -> Sim.Dist.exponential rng ~rate:2.) in
  checkf 0.02 "mean 1/rate" 0.5 mean

(* Sample mean and unbiased standard deviation of [n] draws. *)
let mean_stddev n draw =
  let xs = Array.init n (fun _ -> draw ()) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let squares =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. xs
  in
  (mean, sqrt (squares /. float_of_int (n - 1)))

let test_dist_normal_moments () =
  let rng = Sim.Rng.create 22 in
  let mean, stddev =
    mean_stddev 50_000 (fun () -> Sim.Dist.normal rng ~mean:3. ~stddev:2.)
  in
  checkf 0.05 "mean" 3. mean;
  checkf 0.1 "stddev" 2. stddev

let test_dist_lognormal_positive () =
  let rng = Sim.Rng.create 23 in
  for _ = 1 to 1000 do
    checkb "lognormal > 0" true (Sim.Dist.lognormal rng ~mu:0. ~sigma:0.25 > 0.)
  done

let test_dist_poisson_mean () =
  let rng = Sim.Rng.create 24 in
  let small =
    sample_mean 20_000 (fun () ->
        float_of_int (Sim.Dist.poisson rng ~mean:3.5))
  in
  checkf 0.1 "poisson small mean" 3.5 small;
  let large =
    sample_mean 20_000 (fun () ->
        float_of_int (Sim.Dist.poisson rng ~mean:80.))
  in
  checkf 1.0 "poisson large mean" 80. large

let test_dist_binomial_mean () =
  let rng = Sim.Rng.create 25 in
  (* exact regime *)
  let exact =
    sample_mean 20_000 (fun () ->
        float_of_int (Sim.Dist.binomial rng ~n:40 ~p:0.3))
  in
  checkf 0.15 "binomial exact mean" 12. exact;
  (* approximation regime *)
  let approx =
    sample_mean 20_000 (fun () ->
        float_of_int (Sim.Dist.binomial rng ~n:10_000 ~p:0.01))
  in
  checkf 1.5 "binomial approx mean" 100. approx

let test_dist_binomial_extremes () =
  let rng = Sim.Rng.create 26 in
  checki "p=0" 0 (Sim.Dist.binomial rng ~n:100 ~p:0.);
  checki "p=1" 100 (Sim.Dist.binomial rng ~n:100 ~p:1.)

let test_dist_zipf_skew () =
  let rng = Sim.Rng.create 27 in
  let zipf = Sim.Dist.Zipf.create ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let r = Sim.Dist.Zipf.sample zipf rng in
    counts.(r) <- counts.(r) + 1
  done;
  checkb "rank 0 hotter than rank 50" true (counts.(0) > 10 * counts.(50));
  (* theta = 0 is uniform *)
  let uniform = Sim.Dist.Zipf.create ~n:10 ~theta:0. in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let r = Sim.Dist.Zipf.sample uniform rng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "uniform bucket %d" i) true
        (abs (c - 5000) < 500))
    counts

(* --- Special functions ------------------------------------------------ *)

let test_log_gamma_factorials () =
  (* gamma(n+1) = n! *)
  let factorial n =
    let rec go acc i = if i <= 1 then acc else go (acc *. float_of_int i) (i - 1) in
    go 1. n
  in
  List.iter
    (fun n ->
      checkf 1e-9
        (Printf.sprintf "log_gamma %d" n)
        (log (factorial n))
        (Sim.Special.log_gamma (float_of_int (n + 1))))
    [ 1; 2; 5; 10; 20 ]

let test_log_choose () =
  checkf 1e-9 "C(5,2)" (log 10.) (Sim.Special.log_choose 5 2);
  checkf 1e-9 "C(10,0)" 0. (Sim.Special.log_choose 10 0);
  checkf 1e-6 "C(100,50)"
    (log 1.0089134454556417e29)
    (Sim.Special.log_choose 100 50)

let test_betai_reference_values () =
  (* I_x(1,1) = x; I_x(2,1) = x^2 *)
  checkf 1e-12 "I_x(1,1)" 0.37 (Sim.Special.betai 1. 1. 0.37);
  checkf 1e-12 "I_x(2,1)" (0.4 ** 2.) (Sim.Special.betai 2. 1. 0.4);
  checkf 1e-9 "symmetry" 1.
    (Sim.Special.betai 3. 7. 0.2 +. Sim.Special.betai 7. 3. 0.8)

let test_binomial_tail_matches_exact_sum () =
  List.iter
    (fun (n, p, t) ->
      checkf 1e-10
        (Printf.sprintf "tail n=%d p=%g t=%d" n p t)
        (Sim.Special.binomial_tail_exact_sum n p t)
        (Sim.Special.binomial_tail n p t))
    [ (10, 0.3, 4); (100, 0.01, 3); (1000, 0.005, 10); (64, 0.5, 32) ]

let test_binomial_tail_extremes () =
  checkf 0. "t >= n" 0. (Sim.Special.binomial_tail 10 0.5 10);
  checkf 0. "p = 0" 0. (Sim.Special.binomial_tail 10 0. 0);
  checkf 0. "p = 1, t < n" 1. (Sim.Special.binomial_tail 10 1. 5);
  checkf 1e-12 "t = -1 is certain" 1. (Sim.Special.binomial_tail 10 0.3 (-1))

let test_binomial_tail_monotone_in_p () =
  let previous = ref 0. in
  List.iter
    (fun p ->
      let tail = Sim.Special.binomial_tail 10_000 p 50 in
      checkb (Printf.sprintf "monotone at p=%g" p) true (tail >= !previous);
      previous := tail)
    [ 1e-4; 5e-4; 1e-3; 5e-3; 1e-2; 5e-2 ]

let test_solve_monotone () =
  let root =
    Sim.Special.solve_monotone ~f:(fun x -> x *. x) ~target:2. ~lo:0. ~hi:2.
  in
  checkf 1e-9 "sqrt 2" (sqrt 2.) root

(* --- Stats ------------------------------------------------------------ *)

module H = Sim.Stats.Histogram

let histogram_of values =
  let h = H.create () in
  List.iter (H.add h) values;
  h

(* Nearest rank, as the histogram defines it. *)
let exact_percentile sorted q =
  let n = Array.length sorted in
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(Stdlib.min n rank - 1)

let test_histogram_percentiles () =
  let hist =
    histogram_of (List.init 10_000 (fun i -> float_of_int (i mod 100)))
  in
  checkf (49. /. 32.) "p50" 49. (H.percentile hist 0.5);
  checkf (98. /. 32.) "p99" 98. (H.percentile hist 0.99);
  checkf 0. "p0 is the exact min" 0. (H.percentile hist 0.);
  checkf (99. /. 32.) "p100 in the max's bucket" 99. (H.percentile hist 1.);
  let empty = H.create () in
  checkb "empty percentile is nan" true (Float.is_nan (H.percentile empty 0.5));
  checkb "empty min/max/mean are nan" true
    (Float.is_nan (H.min empty) && Float.is_nan (H.max empty)
    && Float.is_nan (H.mean empty));
  checki "empty fold visits nothing" 0
    (H.fold empty ~init:0 (fun n _ _ -> n + 1))

let test_histogram_singleton () =
  let hist = histogram_of [ 42. ] in
  checki "count" 1 (H.count hist);
  checkf 1e-9 "mean is the sample" 42. (H.mean hist);
  (* The bucket midpoint clamps to [min, max]: one observation is
     reported exactly at every rank. *)
  List.iter
    (fun rank ->
      checkf 0.
        (Printf.sprintf "p%g" (rank *. 100.))
        42. (H.percentile hist rank))
    [ 0.; 0.001; 0.5; 0.99; 1. ]

let test_histogram_edge_values () =
  Alcotest.check_raises "nan raises" (Invalid_argument "Histogram.add: nan")
    (fun () -> H.add (H.create ()) nan);
  Alcotest.check_raises "nan has no bucket"
    (Invalid_argument "Histogram: nan has no bucket") (fun () ->
      ignore (H.bucket_index nan));
  let h = histogram_of [ 1.; 2.; infinity ] in
  checkb "infinity is the max" true (H.max h = infinity);
  checkb "infinity is the top percentile" true (H.percentile h 1. = infinity);
  checkf (2. /. 32.) "finite percentiles unaffected" 2. (H.percentile h 0.6);
  checkb "infinity is the top bucket" true
    (H.bucket_index infinity > H.bucket_index Float.max_float);
  (* -0., 0. and negatives share the bucket below every positive one. *)
  let h = histogram_of [ -0.; 0.; -5.; 3. ] in
  checki "zero bucket index" (-1) (H.bucket_index (-0.));
  checki "negatives share it" (-1) (H.bucket_index (-5.));
  checki "count" 4 (H.count h);
  checkf 0. "sum exact" (-2.) (H.sum h);
  checkf 0. "min exact" (-5.) (H.min h);
  checkb "p50 in the zero bucket" true (H.percentile h 0.5 = 0.);
  checkf 0. "p100 exact" 3. (H.percentile h 1.);
  checki "count_from zero covers all" 4 (H.count_from h 0.);
  checki "count_from 3 covers its bucket" 1 (H.count_from h 3.);
  (* Bucket widths: 16 linear sub-buckets per octave. *)
  checkb "adjacent sub-buckets differ" true
    (H.bucket_index 1. + 1 = H.bucket_index (1. +. (1. /. 16.)));
  checkb "one sub-bucket holds [1, 1 + 1/16)" true
    (H.bucket_index 1. = H.bucket_index (1. +. (1. /. 17.)))

(* Values spanning 1e-9 .. 1e12 plus zeros. *)
let wide_gen =
  QCheck.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           (1, return 0.);
           (8, map (fun e -> 10. ** e) (float_range (-9.) 12.));
           (2, map float_of_int (int_range 1 100));
         ]))

let quantiles = [ 0.; 0.001; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1. ]

let prop_histogram_accuracy =
  QCheck.Test.make ~count:300
    ~name:"histogram: percentile in the exact order statistic's bucket"
    (QCheck.make ~print:QCheck.Print.(list float) wide_gen)
    (fun values ->
      let h = histogram_of values in
      let sorted = Array.of_list (List.sort compare values) in
      List.for_all
        (fun q ->
          let exact = exact_percentile sorted q and p = H.percentile h q in
          H.bucket_index p = H.bucket_index exact
          && (exact = 0. || Float.abs (p -. exact) <= exact *. (2. ** -5.))
          && H.min h <= p && p <= H.max h)
        quantiles)

let prop_histogram_merge =
  QCheck.Test.make ~count:300
    ~name:"histogram: any chunking, any merge order = one histogram"
    (QCheck.make
       QCheck.Gen.(
         triple wide_gen (list_size (int_range 0 6) (int_range 0 400)) int))
    (fun (values, cuts, seed) ->
      let arr = Array.of_list values in
      let n = Array.length arr in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts)
      in
      let bounds = (0 :: cuts) @ [ n ] in
      let rec chunks = function
        | a :: (b :: _ as rest) -> Array.sub arr a (b - a) :: chunks rest
        | _ -> []
      in
      let parts = Array.of_list (chunks bounds) in
      Sim.Rng.shuffle (Sim.Rng.create seed) parts;
      let merged = H.create () in
      Array.iter
        (fun part ->
          let h = H.create () in
          Array.iter (H.add h) part;
          H.merge ~into:merged h)
        parts;
      let whole = histogram_of values in
      let bits h =
        List.map Int64.bits_of_float
          (H.min h :: H.max h :: List.map (H.percentile h) quantiles)
      and buckets h = H.fold h ~init:[] (fun acc v c -> (v, c) :: acc) in
      H.count merged = H.count whole
      && bits merged = bits whole
      && buckets merged = buckets whole)

(* --- Event queue and engine ------------------------------------------- *)

let test_event_queue_ordering () =
  let q = Sim.Event_queue.create () in
  Sim.Event_queue.push q ~time:3. "c";
  Sim.Event_queue.push q ~time:1. "a";
  Sim.Event_queue.push q ~time:2. "b";
  let pop () =
    match Sim.Event_queue.pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "queue empty"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "ordered" [ "a"; "b"; "c" ]
    [ first; second; third ];
  checkb "now empty" true (Sim.Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  List.iter (fun v -> Sim.Event_queue.push q ~time:1. v) [ 1; 2; 3; 4; 5 ];
  let order = List.init 5 (fun _ ->
      match Sim.Event_queue.pop q with
      | Some (_, v) -> v
      | None -> -1)
  in
  Alcotest.(check (list int)) "FIFO on ties" [ 1; 2; 3; 4; 5 ] order

let test_event_queue_random_order () =
  let q = Sim.Event_queue.create () in
  let rng = Sim.Rng.create 41 in
  for _ = 1 to 1000 do
    Sim.Event_queue.push q ~time:(Sim.Rng.unit_float rng) ()
  done;
  let previous = ref neg_infinity in
  let sorted = ref true in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | None -> ()
    | Some (time, ()) ->
        if time < !previous then sorted := false;
        previous := time;
        drain ()
  in
  drain ();
  checkb "pops in time order" true !sorted

let test_engine_schedule_and_run () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule engine ~after:2. (fun _ -> log := "second" :: !log);
  Sim.Engine.schedule engine ~after:1. (fun e ->
      log := "first" :: !log;
      Sim.Engine.schedule e ~after:0.5 (fun _ -> log := "nested" :: !log));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "execution order"
    [ "first"; "nested"; "second" ]
    (List.rev !log);
  checkf 1e-9 "clock at last event" 2. (Sim.Engine.now engine)

let test_engine_until () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    Sim.Engine.schedule e ~after:1. tick
  in
  Sim.Engine.schedule engine ~after:1. tick;
  Sim.Engine.run ~until:10.5 engine;
  checki "ten ticks before 10.5" 10 !count;
  checkf 1e-9 "clock advanced to until" 10.5 (Sim.Engine.now engine);
  checki "next tick still pending" 1 (Sim.Engine.pending engine)

let test_engine_rejects_past () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule engine ~after:5. (fun e ->
      Alcotest.check_raises "past scheduling"
        (Invalid_argument "Engine.schedule_at: time is in the past")
        (fun () -> Sim.Engine.schedule_at e ~time:1. (fun _ -> ())));
  Sim.Engine.run engine

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng copy", `Quick, test_rng_copy);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int uniformity", `Slow, test_rng_int_uniformity);
    ("rng chance extremes", `Quick, test_rng_chance_extremes);
    ("rng shuffle permutation", `Quick, test_rng_shuffle_permutation);
    QCheck_alcotest.to_alcotest prop_rng_seed_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_copy_identical;
    QCheck_alcotest.to_alcotest prop_rng_split_independent;
    ("dist exponential mean", `Slow, test_dist_exponential_mean);
    ("dist normal moments", `Slow, test_dist_normal_moments);
    ("dist lognormal positive", `Quick, test_dist_lognormal_positive);
    ("dist poisson mean", `Slow, test_dist_poisson_mean);
    ("dist binomial mean", `Slow, test_dist_binomial_mean);
    ("dist binomial extremes", `Quick, test_dist_binomial_extremes);
    ("dist zipf skew", `Slow, test_dist_zipf_skew);
    ("special log_gamma factorials", `Quick, test_log_gamma_factorials);
    ("special log_choose", `Quick, test_log_choose);
    ("special betai reference", `Quick, test_betai_reference_values);
    ("special binomial tail vs exact", `Quick,
     test_binomial_tail_matches_exact_sum);
    ("special binomial tail extremes", `Quick, test_binomial_tail_extremes);
    ("special binomial tail monotone", `Quick,
     test_binomial_tail_monotone_in_p);
    ("special solve_monotone", `Quick, test_solve_monotone);
    ("stats histogram percentiles", `Quick, test_histogram_percentiles);
    ("stats histogram singleton", `Quick, test_histogram_singleton);
    ("stats histogram edge values", `Quick, test_histogram_edge_values);
    QCheck_alcotest.to_alcotest prop_histogram_accuracy;
    QCheck_alcotest.to_alcotest prop_histogram_merge;
    ("event queue ordering", `Quick, test_event_queue_ordering);
    ("event queue fifo ties", `Quick, test_event_queue_fifo_ties);
    ("event queue random order", `Quick, test_event_queue_random_order);
    ("engine schedule and run", `Quick, test_engine_schedule_and_run);
    ("engine until", `Quick, test_engine_until);
    ("engine rejects past", `Quick, test_engine_rejects_past);
  ]
