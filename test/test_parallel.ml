(* Tests for lib/parallel and the determinism guarantee built on it:
   submission-order results, exception propagation, teardown semantics,
   cross-domain atomics, and the regression that pooled execution of the
   experiment layer is bit-identical to sequential. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- pool semantics --------------------------------------------------------- *)

let test_map_submission_order () =
  Parallel.Pool.with_pool ~domains:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Parallel.Pool.map pool (fun x -> x * x) xs)

let test_map_empty_and_opt () =
  Parallel.Pool.with_pool ~domains:2 @@ fun pool ->
  Alcotest.(check (list int)) "empty list" [] (Parallel.Pool.map pool Fun.id []);
  Alcotest.(check (list int))
    "map_opt None is List.map" [ 2; 3; 4 ]
    (Parallel.Pool.map_opt None (fun x -> x + 1) [ 1; 2; 3 ]);
  Alcotest.(check (list int))
    "map_opt Some is map" [ 2; 3; 4 ]
    (Parallel.Pool.map_opt (Some pool) (fun x -> x + 1) [ 1; 2; 3 ])

let test_exception_propagates () =
  Parallel.Pool.with_pool ~domains:2 @@ fun pool ->
  let raised =
    match
      Parallel.Pool.map pool
        (fun x -> if x mod 3 = 0 then failwith (string_of_int x) else x)
        [ 1; 2; 3; 4; 6 ]
    with
    | _ -> None
    | exception Failure m -> Some m
  in
  (* 3 and 6 both raise; submission order picks 3. *)
  checkb "first raising element wins" true (raised = Some "3");
  checki "pool survives a raising map" 6
    (List.fold_left ( + ) 0 (Parallel.Pool.map pool Fun.id [ 1; 2; 3 ]))

let test_atomic_cross_domain () =
  let total = Atomic.make 0 in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map pool
           (fun x -> Atomic.fetch_and_add total x)
           (List.init 1000 Fun.id)));
  checki "atomic sum across domains" (999 * 1000 / 2) (Atomic.get total)

let test_shutdown_semantics () =
  let pool = Parallel.Pool.create ~domains:2 in
  checki "domains" 2 (Parallel.Pool.domains pool);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  checkb "map after shutdown rejected" true
    (match Parallel.Pool.map pool Fun.id [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "create rejects zero domains" true
    (match Parallel.Pool.create ~domains:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "default_domains at least 1" true (Parallel.Pool.default_domains () >= 1)

(* --- chunked execution ------------------------------------------------------ *)

let test_chunks_partition () =
  let cover ~chunk_size ~n =
    let cs = Parallel.Pool.chunks ~chunk_size ~n in
    List.concat_map
      (fun c ->
        List.init
          (c.Parallel.Pool.hi - c.Parallel.Pool.lo)
          (fun i -> c.Parallel.Pool.lo + i))
      cs
  in
  Alcotest.(check (list int))
    "chunks cover 0..n-1 in order" (List.init 10 Fun.id)
    (cover ~chunk_size:3 ~n:10);
  Alcotest.(check (list int))
    "oversized chunk is one chunk" (List.init 4 Fun.id)
    (cover ~chunk_size:100 ~n:4);
  checki "n=0 gives no chunks" 0
    (List.length (Parallel.Pool.chunks ~chunk_size:4 ~n:0));
  checkb "chunk_size 0 rejected" true
    (match Parallel.Pool.chunks ~chunk_size:0 ~n:5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_map_chunked_fewer_items_than_domains () =
  (* 2 items across 4 domains: some workers never get a chunk; the barrier
     must still complete and order must hold. *)
  Parallel.Pool.with_pool ~domains:4 @@ fun pool ->
  Alcotest.(check (list int))
    "two chunks, four domains" [ 0; 1 ]
    (Parallel.Pool.map_chunked (Some pool) ~chunk_size:1 ~n:2 (fun c ->
         c.Parallel.Pool.lo));
  Alcotest.(check (list int))
    "no items, no tasks" []
    (Parallel.Pool.map_chunked (Some pool) ~chunk_size:1 ~n:0 (fun _ -> 0))

let test_exception_mid_chunk_does_not_wedge () =
  (* A task raising halfway through its chunk must propagate to the caller
     without deadlocking the barrier or poisoning the pool for later maps. *)
  Parallel.Pool.with_pool ~domains:2 @@ fun pool ->
  let raised =
    match
      Parallel.Pool.map_chunked (Some pool) ~chunk_size:4 ~n:16 (fun c ->
          for i = c.Parallel.Pool.lo to c.Parallel.Pool.hi - 1 do
            if i = 6 then failwith "mid-chunk"
          done;
          c.Parallel.Pool.lo)
    with
    | _ -> false
    | exception Failure m -> m = "mid-chunk"
  in
  checkb "mid-chunk exception propagates" true raised;
  checki "pool still serves maps afterwards" 10
    (List.fold_left ( + ) 0
       (Parallel.Pool.map pool Fun.id [ 1; 2; 3; 4 ]))

let test_accumulate_chunk_size_invariant () =
  (* Merged output of [accumulate] must depend only on the item set, never
     on where chunk boundaries fall: 1-per-chunk, odd size, one big chunk. *)
  let at chunk_size pool =
    Parallel.Pool.accumulate pool ~chunk_size ~n:97
      {
        Parallel.Pool.Accumulator.create = (fun c -> ref (c.Parallel.Pool.lo * 0));
        item = (fun acc i -> acc := !acc + (i * i));
        finish = (fun acc -> !acc);
      }
    |> List.fold_left ( + ) 0
  in
  let seq = at 1 None in
  Parallel.Pool.with_pool ~domains:3 @@ fun pool ->
  checki "chunk_size 1 (pooled)" seq (at 1 (Some pool));
  checki "chunk_size 7 (pooled)" seq (at 7 (Some pool));
  checki "one big chunk (pooled)" seq (at 97 (Some pool))

let test_shared_registry_from_workers () =
  (* Live registries are domain-safe: workers updating one shared counter
     concurrently lose no increments. *)
  let reg = Telemetry.Registry.create () in
  let c = Telemetry.Registry.counter reg "pool_hits_total" in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map pool
           (fun _ ->
             for _ = 1 to 1000 do
               Telemetry.Registry.Counter.incr c
             done)
           (List.init 8 Fun.id)));
  checki "no lost increments" 8000 (Telemetry.Registry.Counter.value c)

(* --- determinism regressions ------------------------------------------------ *)

(* Fleet.run must produce identical result records *and* identical merged
   telemetry at any job count: per-device RNG streams are split off the
   root in submission order and sub-registries merge in that same order. *)
let fleet_at pool =
  let registry = Telemetry.Registry.create () in
  let ctx = Experiments.Ctx.make ~registry ?pool () in
  let result =
    Experiments.Fleet.run ~devices:6 ~days:25 ~seed:42 ~ctx `Regens
  in
  (result, Telemetry.Registry.snapshot registry)

let test_fleet_jobs_deterministic () =
  let seq_result, seq_snapshot = fleet_at None in
  let par_result, par_snapshot =
    Parallel.Pool.with_pool ~domains:4 (fun pool -> fleet_at (Some pool))
  in
  checkb "result records identical at jobs=1 and jobs=4" true
    (seq_result = par_result);
  (* [compare], not [=]: empty-histogram summaries hold [nan]. *)
  checkb "merged telemetry identical" true
    (compare seq_snapshot par_snapshot = 0)

(* Chunk boundaries must be invisible in fleet artifacts too: forcing 1
   device per chunk, an odd size, and all-devices-in-one-chunk has to give
   the same result record as the default policy. *)
let test_fleet_chunk_size_invariant () =
  let at ?chunk_size pool =
    let ctx = Experiments.Ctx.make ?pool () in
    Experiments.Fleet.run ?chunk_size ~devices:9 ~days:20 ~seed:5 ~ctx
      `Shrinks
  in
  let reference = at None in
  Parallel.Pool.with_pool ~domains:4 @@ fun pool ->
  List.iter
    (fun chunk_size ->
      checkb
        (Printf.sprintf "chunk_size %d matches sequential" chunk_size)
        true
        (at ~chunk_size (Some pool) = reference))
    [ 1; 4; 9 ]

let test_experiment_measure_deterministic () =
  let rows_at pool =
    let ctx = Experiments.Ctx.make ?pool () in
    Experiments.Lifetime_table.measure ~seeds:[ 7 ] ~ctx ()
  in
  let seq = rows_at None in
  let par =
    Parallel.Pool.with_pool ~domains:4 (fun pool -> rows_at (Some pool))
  in
  checkb "lifetime rows identical at jobs=1 and jobs=4" true (seq = par)

(* Ctx.map hands every task a pool-less scratch context, returns the
   same results and merged registry with or without a pool, and tags
   each task's absorbed monitor series with its [~labels]. *)
let ctx_map_at pool =
  let registry = Telemetry.Registry.create () in
  let monitor = Monitor.Engine.create () in
  let ctx = Experiments.Ctx.make ~registry ?pool ~monitor () in
  let results =
    Experiments.Ctx.map ctx
      ~labels:(fun i -> [ ("task", string_of_int i) ])
      (List.init 5 Fun.id)
      (fun sub i ->
        let reg = sub.Experiments.Ctx.registry in
        Telemetry.Registry.Counter.incr ~by:(i + 1)
          (Telemetry.Registry.counter reg "ctx_map_items_total");
        Option.iter
          (fun m -> Monitor.Engine.sample m ~time:0. reg)
          sub.Experiments.Ctx.monitor;
        (i * i, Option.is_none sub.Experiments.Ctx.pool))
  in
  (results, Telemetry.Registry.snapshot registry, monitor)

let test_ctx_map () =
  let seq, seq_snapshot, _ = ctx_map_at None in
  let par, par_snapshot, monitor =
    Parallel.Pool.with_pool ~domains:3 (fun pool -> ctx_map_at (Some pool))
  in
  checkb "results in item order"
    true
    (seq = List.init 5 (fun i -> (i * i, true)));
  checkb "pooled results equal sequential" true (seq = par);
  checkb "merged registry identical" true
    (compare seq_snapshot par_snapshot = 0);
  List.iter
    (fun i ->
      checkb
        (Printf.sprintf "task %d series carries its label" i)
        true
        (Option.is_some
           (Monitor.Sampler.find
              (Monitor.Engine.sampler monitor)
              (Monitor.Sampler.key
                 ~labels:[ ("task", string_of_int i) ]
                 "ctx_map_items_total"))))
    (List.init 5 Fun.id)

let suite =
  [
    ("map keeps submission order", `Quick, test_map_submission_order);
    ("map empty and map_opt", `Quick, test_map_empty_and_opt);
    ("exceptions propagate in order", `Quick, test_exception_propagates);
    ("atomics cross domains", `Quick, test_atomic_cross_domain);
    ("chunks partition the range", `Quick, test_chunks_partition);
    ("map_chunked with fewer items than domains", `Quick,
     test_map_chunked_fewer_items_than_domains);
    ("exception mid-chunk does not wedge pool", `Quick,
     test_exception_mid_chunk_does_not_wedge);
    ("accumulate invariant to chunk size", `Quick,
     test_accumulate_chunk_size_invariant);
    ("fleet invariant to chunk size", `Slow, test_fleet_chunk_size_invariant);
    ("shutdown semantics", `Quick, test_shutdown_semantics);
    ("shared registry from workers", `Quick, test_shared_registry_from_workers);
    ("fleet deterministic across jobs", `Slow, test_fleet_jobs_deterministic);
    ("lifetime table deterministic across jobs", `Slow,
     test_experiment_measure_deterministic);
    ("ctx map absorbs in order", `Quick, test_ctx_map);
  ]
