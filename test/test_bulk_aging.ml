(* Differential suite pinning the bulk-aging fast path to the per-op
   oracle.

   Twin devices are built from the same seed; one is aged through
   [Workload.Aging.run_epoch ~path:Per_op] (the retained one-call-per-
   write loop), the other through [~path:Auto] (the write-stream fast
   path).  After every epoch the outcomes and the workload RNG states
   must be identical — equal RNG states prove the two paths consumed
   exactly the same draws — and at the end the devices must agree on
   every observable: counters, capacity, liveness, write amplification,
   background stats, wear stats, chip op counts, telemetry snapshots and
   a full logical read-back.  Configurations cover all four device
   designs, active telemetry + monitor sampling, injected media faults,
   crash-hook fallback, and whole-fleet runs at jobs 1 and jobs 4. *)

module Defaults = Experiments.Defaults

let geometry = Defaults.geometry
let model = Defaults.model

type kind = Defaults.kind

let kind_label = Defaults.kind_label

type twin = {
  dev : Ftl.Device_intf.packed;
  chip : Flash.Chip.t;
  engine : Ftl.Engine.t;
}

let make_twin ?registry (kind : kind) ~seed =
  let dev, engine = Defaults.device ?registry kind ~rng:(Sim.Rng.create seed) in
  { dev; chip = Ftl.Engine.chip engine; engine }

let make_pattern dev =
  Workload.Pattern.uniform
    ~window:
      (Stdlib.max 1
         (int_of_float
            (0.85 *. float_of_int (Ftl.Device_intf.logical_capacity dev))))
    ~read_fraction:0.

(* Exact float equality including the nan = nan case (fresh devices have
   WAF = nan). *)
let float_identical a b = Stdlib.compare a b = 0

let check_same_state ~what a b =
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  let ha = Ftl.Device_intf.host_writes a.dev
  and hb = Ftl.Device_intf.host_writes b.dev in
  if ha <> hb then fail "host_writes %d <> %d" ha hb;
  let ca = Ftl.Device_intf.logical_capacity a.dev
  and cb = Ftl.Device_intf.logical_capacity b.dev in
  if ca <> cb then fail "logical_capacity %d <> %d" ca cb;
  if Ftl.Device_intf.alive a.dev <> Ftl.Device_intf.alive b.dev then
    fail "alive flags diverged";
  let wa = Ftl.Device_intf.write_amplification a.dev
  and wb = Ftl.Device_intf.write_amplification b.dev in
  if not (float_identical wa wb) then fail "WAF %.17g <> %.17g" wa wb;
  if Ftl.Device_intf.bg_stats a.dev <> Ftl.Device_intf.bg_stats b.dev then
    fail "bg_stats diverged";
  if Stdlib.compare (Ftl.Device_intf.wear_stats a.dev)
       (Ftl.Device_intf.wear_stats b.dev)
     <> 0
  then fail "wear_stats diverged";
  if Flash.Chip.programs a.chip <> Flash.Chip.programs b.chip then
    fail "chip programs %d <> %d" (Flash.Chip.programs a.chip)
      (Flash.Chip.programs b.chip);
  if Flash.Chip.erases a.chip <> Flash.Chip.erases b.chip then
    fail "chip erases diverged";
  if Ftl.Engine.gc_runs a.engine <> Ftl.Engine.gc_runs b.engine then
    fail "gc_runs diverged";
  if Ftl.Engine.padded_slots a.engine <> Ftl.Engine.padded_slots b.engine then
    fail "padded_slots diverged";
  if
    Ftl.Engine.buffered_opages a.engine <> Ftl.Engine.buffered_opages b.engine
  then fail "buffered_opages diverged";
  (* Full logical read-back: both twins read the same LBA range in the
     same order, so the read-path RNG draws and read-disturb stay
     symmetric and every payload (or error) must match. *)
  let span = Ftl.Device_intf.initial_capacity a.dev in
  for lba = 0 to span - 1 do
    let ra = Ftl.Device_intf.read a.dev ~lba
    and rb = Ftl.Device_intf.read b.dev ~lba in
    if ra <> rb then fail "read-back diverged at lba %d" lba
  done

(* Age both twins through the given per-epoch quotas, checking outcome
   and RNG-state equality after every epoch. *)
let drive ?registry_a ?registry_b ?(inject = fun _ _ -> ()) ?(sample = fun _ _ -> ())
    ~kind ~seed quotas =
  let a = make_twin ?registry:registry_a kind ~seed in
  let b = make_twin ?registry:registry_b kind ~seed in
  let rng_a = Sim.Rng.create (seed + 7) in
  let rng_b = Sim.Rng.create (seed + 7) in
  let pat_a = make_pattern a.dev in
  let pat_b = make_pattern b.dev in
  List.iteri
    (fun i quota ->
      inject i a.chip;
      inject i b.chip;
      let oa =
        Workload.Aging.run_epoch ~path:Workload.Aging.Per_op ~rng:rng_a
          ~pattern:pat_a ~device:a.dev ~quota ()
      in
      let ob =
        Workload.Aging.run_epoch ~path:Workload.Aging.Auto ~rng:rng_b
          ~pattern:pat_b ~device:b.dev ~quota ()
      in
      if oa <> ob then
        Alcotest.failf "%s seed %d epoch %d: outcomes diverged (%d/%b vs %d/%b)"
          (kind_label kind) seed i oa.Workload.Aging.host_writes
          oa.Workload.Aging.died ob.Workload.Aging.host_writes
          ob.Workload.Aging.died;
      if not (Sim.Rng.equal rng_a rng_b) then
        Alcotest.failf "%s seed %d epoch %d: RNG streams diverged"
          (kind_label kind) seed i;
      sample i (a, b))
    quotas;
  check_same_state
    ~what:(Printf.sprintf "%s seed %d" (kind_label kind) seed)
    a b

(* --- property: random epoch schedules, every design --------------------- *)

let quotas_gen =
  QCheck.Gen.(list_size (int_range 2 20) (int_range 0 2_500))

let differential_prop kind =
  QCheck.Test.make ~count:8
    ~name:(Printf.sprintf "bulk aging bit-exact (%s)" (kind_label kind))
    QCheck.(
      make
        Gen.(pair (int_range 0 10_000) quotas_gen)
        ~print:(fun (seed, quotas) ->
          Printf.sprintf "seed %d, quotas [%s]" seed
            (String.concat "; " (List.map string_of_int quotas))))
    (fun (seed, quotas) ->
      drive ~kind ~seed quotas;
      true)

(* --- deterministic: age to death ---------------------------------------- *)

(* Run epochs until both twins die: the No_space / recovery / death
   orders are the trickiest part of the equivalence and always get
   exercised. *)
let test_to_death kind () =
  let a = make_twin kind ~seed:4242 in
  let b = make_twin kind ~seed:4242 in
  let rng_a = Sim.Rng.create 17 in
  let rng_b = Sim.Rng.create 17 in
  let pat_a = make_pattern a.dev in
  let pat_b = make_pattern b.dev in
  let epochs = ref 0 in
  let continue = ref true in
  while !continue do
    incr epochs;
    let oa =
      Workload.Aging.run_epoch ~path:Workload.Aging.Per_op ~rng:rng_a
        ~pattern:pat_a ~device:a.dev ~quota:2_000 ()
    in
    let ob =
      Workload.Aging.run_epoch ~path:Workload.Aging.Auto ~rng:rng_b
        ~pattern:pat_b ~device:b.dev ~quota:2_000 ()
    in
    if oa <> ob then
      Alcotest.failf "epoch %d: outcomes diverged before death" !epochs;
    if not (Sim.Rng.equal rng_a rng_b) then
      Alcotest.failf "epoch %d: RNG diverged before death" !epochs;
    if oa.Workload.Aging.died || !epochs > 500 then continue := false
  done;
  Alcotest.(check bool)
    "device actually died" false
    (Ftl.Device_intf.alive a.dev);
  check_same_state ~what:(Printf.sprintf "%s at death" (kind_label kind)) a b

(* --- telemetry + monitor sampling config -------------------------------- *)

let test_telemetry_and_monitor () =
  let reg_a = Telemetry.Registry.create ~shared:false () in
  let reg_b = Telemetry.Registry.create ~shared:false () in
  let mon_a = Monitor.Engine.create ~sample_every:3 () in
  let mon_b = Monitor.Engine.create ~sample_every:3 () in
  let sample i ((_ : twin), (_ : twin)) =
    (* the monitor's sampling cadence must not perturb either path *)
    if Monitor.Engine.due mon_a ~tick:i then begin
      Monitor.Engine.sample mon_a ~time:(float_of_int i) reg_a;
      Monitor.Engine.sample mon_b ~time:(float_of_int i) reg_b
    end
  in
  drive ~registry_a:reg_a ~registry_b:reg_b ~sample ~kind:`Regens ~seed:31
    [ 700; 0; 1_300; 256; 255; 257; 2_000; 1; 4_000; 2_500 ];
  let sa = Telemetry.Registry.snapshot reg_a in
  let sb = Telemetry.Registry.snapshot reg_b in
  if Stdlib.compare sa sb <> 0 then
    Alcotest.fail "telemetry snapshots diverged between per-op and bulk paths";
  Alcotest.(check int) "monitor samples equal" (Monitor.Engine.samples mon_a)
    (Monitor.Engine.samples mon_b)

(* --- fault-injection config --------------------------------------------- *)

(* Transient and sticky RBER faults raise page error rates, which steer
   retirement decisions (erase-hook tiredness checks) and the read-back
   retry ladder on both twins identically. *)
let test_with_faults () =
  let ppb = geometry.Flash.Geometry.pages_per_block in
  let blocks = geometry.Flash.Geometry.blocks in
  let inject i chip =
    let block = (i * 5) mod blocks and page = (i * 7) mod ppb in
    Flash.Chip.inject chip ~block ~page (Flash.Chip.Transient_rber 2e-3);
    if i mod 3 = 0 then
      Flash.Chip.inject chip ~block ~page (Flash.Chip.Sticky_rber 5e-4)
  in
  List.iter
    (fun kind ->
      drive ~inject ~kind ~seed:1203
        [ 900; 1_100; 2_000; 700; 3_000; 2_500; 1_800 ])
    ([ `Baseline; `Regens ] : kind list)

(* --- crash-hook fallback ------------------------------------------------- *)

(* With a crash hook armed the stream is unsupported; Auto must detect
   that (consuming nothing) and replay the epoch per-op. *)
let test_crash_hook_falls_back () =
  let a = make_twin `Baseline ~seed:77 in
  let b = make_twin `Baseline ~seed:77 in
  Ftl.Engine.set_crash_hook b.engine (Some (fun _ -> ()));
  Alcotest.(check bool)
    "hooked engine is not stream-capable" false
    (Ftl.Engine.stream_capable b.engine);
  let rng_a = Sim.Rng.create 5 in
  let rng_b = Sim.Rng.create 5 in
  let pat_a = make_pattern a.dev in
  let pat_b = make_pattern b.dev in
  let oa =
    Workload.Aging.run_epoch ~path:Workload.Aging.Per_op ~rng:rng_a
      ~pattern:pat_a ~device:a.dev ~quota:5_000 ()
  in
  let ob =
    Workload.Aging.run_epoch ~path:Workload.Aging.Auto ~rng:rng_b
      ~pattern:pat_b ~device:b.dev ~quota:5_000 ()
  in
  Alcotest.(check bool) "fallback outcome equal" true (oa = ob);
  Alcotest.(check bool) "fallback RNG equal" true (Sim.Rng.equal rng_a rng_b);
  Ftl.Engine.set_crash_hook b.engine None;
  check_same_state ~what:"crash-hook fallback" a b

(* --- whole-fleet equality at jobs 1 and jobs 4 --------------------------- *)

let fleet_result ~aging ~ctx =
  Experiments.Fleet.run ~devices:8 ~days:50 ~seed:99 ~ctx ~aging `Regens

let test_fleet_jobs1 () =
  let a = fleet_result ~aging:Workload.Aging.Per_op ~ctx:Experiments.Ctx.default in
  let b = fleet_result ~aging:Workload.Aging.Auto ~ctx:Experiments.Ctx.default in
  Alcotest.(check bool) "fleet results equal (sequential)" true (a = b)

let test_fleet_jobs4 () =
  let a = fleet_result ~aging:Workload.Aging.Per_op ~ctx:Experiments.Ctx.default in
  let b =
    Parallel.Pool.with_pool ~domains:4 (fun pool ->
        fleet_result ~aging:Workload.Aging.Auto
          ~ctx:(Experiments.Ctx.make ~pool ()))
  in
  Alcotest.(check bool) "fleet results equal (per-op seq vs bulk jobs4)" true
    (a = b)

(* --- epoch coalescing ---------------------------------------------------- *)

let test_epoch_days_boundaries () =
  let r =
    Experiments.Fleet.run ~devices:4 ~days:23 ~seed:7 ~epoch_days:5 `Regens
  in
  let days = List.map (fun s -> s.Experiments.Fleet.day) r.Experiments.Fleet.snapshots in
  Alcotest.(check (list int))
    "snapshots at epoch boundaries" [ 0; 5; 10; 15; 20; 23 ] days;
  Alcotest.(check bool) "accepted writes" true (r.Experiments.Fleet.total_host_writes > 0)

let test_epoch_days_one_matches_default () =
  let a = Experiments.Fleet.run ~devices:4 ~days:30 ~seed:7 `Regens in
  let b = Experiments.Fleet.run ~devices:4 ~days:30 ~seed:7 ~epoch_days:1 `Regens in
  Alcotest.(check bool) "epoch_days:1 is the default loop" true (a = b)

let test_epoch_days_invalid () =
  Alcotest.check_raises "epoch_days 0 rejected"
    (Invalid_argument "Fleet.run: epoch_days must be >= 1") (fun () ->
      ignore (Experiments.Fleet.run ~devices:1 ~days:1 ~epoch_days:0 `Regens))

(* --- allocation regression ----------------------------------------------- *)

(* Steady-state hot paths must stay lean: the bulk write stream and the
   per-op read and write paths are the costs multi-year fleet runs and
   traffic replays pay billions of times.  Observed today: ~136 minor
   words/write on the bulk path (regens; amortized GC relocation work
   plus the draw and translation per write), ~8.5/read for every design
   (the ECC tail's exact-0 and exact-1 thresholds skip its boxed
   evaluation on almost every read; it was ~29 before them),
   and 34-42/write on the per-op path (baseline 34, CVSS 42,
   ShrinkS/RegenS 35: amortized GC relocation and the open-position
   lookup; programs, relocation programs included, allocate nothing).
   The per-op bounds sit at about 2x the worst design so they only trip
   on a real regression — a per-op list, array or closure — not on
   noise.  The
   per-op paths are measured for every design, and a Salamander device
   may cost at most [translation_words] more than the baseline device
   on the same engine: its minidisk translation must stay an array
   lookup. *)

let kinds : kind list = [ `Baseline; `Cvss; `Shrinks; `Regens ]
let translation_words = 16.

let minor_words_per_op ~ops f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int ops

let test_bulk_write_allocation () =
  let t = make_twin `Regens ~seed:2024 in
  let rng = Sim.Rng.create 11 in
  let pattern = make_pattern t.dev in
  (* warm-up: reach GC steady state so the measured window is all hot path *)
  ignore
    (Workload.Aging.run_epoch ~rng ~pattern ~device:t.dev ~quota:30_000 ());
  let ops = 10_000 in
  let per_op =
    minor_words_per_op ~ops (fun () ->
        ignore
          (Workload.Aging.run_epoch ~rng ~pattern ~device:t.dev ~quota:ops ()))
  in
  if per_op > 600. then
    Alcotest.failf "bulk write path allocates %.1f minor words/write (> 600)"
      per_op

(* Minor words per call of [op] on a device of each design, after a
   prefill that reaches GC steady state. *)
let per_op_words ~seed ~op kind =
  let t = make_twin kind ~seed in
  let rng = Sim.Rng.create 12 in
  let pattern = make_pattern t.dev in
  ignore
    (Workload.Aging.run_epoch ~rng ~pattern ~device:t.dev ~quota:20_000 ());
  let span = Ftl.Device_intf.initial_capacity t.dev in
  let ops = 4 * span in
  minor_words_per_op ~ops (fun () ->
      for i = 0 to ops - 1 do
        op t.dev i (i mod span)
      done)

let check_per_op_allocation ~what ~bound ~seed ~op =
  let words =
    List.map (fun kind -> (kind, per_op_words ~seed ~op kind)) kinds
  in
  let baseline = List.assoc `Baseline words in
  List.iter
    (fun (kind, w) ->
      if w > bound then
        Alcotest.failf "%s: %s path allocates %.1f minor words/%s (> %.0f)"
          (kind_label kind) what w what bound;
      let salamander =
        match kind with `Shrinks | `Regens -> true | `Baseline | `Cvss -> false
      in
      if salamander && w > baseline +. translation_words then
        Alcotest.failf
          "%s: %s path allocates %.1f minor words/%s, more than baseline \
           %.1f + %.0f"
          (kind_label kind) what w what baseline translation_words)
    words

let test_read_allocation () =
  check_per_op_allocation ~what:"read" ~bound:20. ~seed:2025
    ~op:(fun dev _ lba -> ignore (Ftl.Device_intf.read dev ~lba))

let test_write_allocation () =
  check_per_op_allocation ~what:"write" ~bound:85. ~seed:2026
    ~op:(fun dev i lba -> ignore (Ftl.Device_intf.write dev ~lba ~payload:i))

let suite =
  [
    QCheck_alcotest.to_alcotest (differential_prop `Baseline);
    QCheck_alcotest.to_alcotest (differential_prop `Cvss);
    QCheck_alcotest.to_alcotest (differential_prop `Shrinks);
    QCheck_alcotest.to_alcotest (differential_prop `Regens);
    ("bulk aging to death (baseline)", `Slow, test_to_death `Baseline);
    ("bulk aging to death (regens)", `Slow, test_to_death `Regens);
    ("telemetry + monitor sampling bit-exact", `Quick, test_telemetry_and_monitor);
    ("fault injection bit-exact", `Quick, test_with_faults);
    ("crash hook falls back per-op", `Quick, test_crash_hook_falls_back);
    ("fleet per-op vs bulk (jobs 1)", `Slow, test_fleet_jobs1);
    ("fleet per-op vs bulk (jobs 4)", `Slow, test_fleet_jobs4);
    ("epoch_days snapshots boundaries", `Quick, test_epoch_days_boundaries);
    ("epoch_days 1 is default", `Quick, test_epoch_days_one_matches_default);
    ("epoch_days validation", `Quick, test_epoch_days_invalid);
    ("allocation: bulk write path", `Slow, test_bulk_write_allocation);
    ("allocation: read path", `Slow, test_read_allocation);
    ("allocation: per-op write path", `Slow, test_write_allocation);
  ]
