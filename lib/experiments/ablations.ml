let age_device ?(seed = 515) ?registry config =
  let device =
    Salamander.Device.create ~config ?registry ~geometry:Defaults.geometry
      ~model:Defaults.model ~rng:(Sim.Rng.create seed) ()
  in
  let packed = Salamander.Device.pack device in
  let pattern =
    Workload.Pattern.uniform
      ~window:
        (Stdlib.max 1
           (int_of_float
              (0.85 *. float_of_int (Ftl.Device_intf.logical_capacity packed))))
      ~read_fraction:0.
  in
  let outcome =
    Workload.Aging.run_epoch ~quota:50_000_000
      ~rng:(Sim.Rng.create (seed + 1)) ~pattern ~device:packed ()
  in
  (device, outcome)

let average_writes ?(seeds = [ 515; 616; 717 ]) ?(ctx = Ctx.default) config =
  let writes =
    Ctx.map ctx seeds (fun sub seed ->
        let _, outcome = age_device ~seed ~registry:sub.Ctx.registry config in
        outcome.Workload.Aging.host_writes)
  in
  List.fold_left ( + ) 0 writes / List.length seeds

(* --- AB-MSIZE ------------------------------------------------------------- *)

let msize ?(ctx = Ctx.default) fmt =
  Report.section fmt "AB-MSIZE: minidisk size vs lifetime and granularity";
  let sizes = [ 16; 32; 64; 128; 256 ] in
  let aged =
    Ctx.map ctx sizes (fun sub mdisk_opages ->
        let config =
          {
            (Defaults.salamander_config ~mode:Salamander.Device.Regen_s) with
            Salamander.Device.mdisk_opages;
          }
        in
        let device, outcome = age_device ~registry:sub.Ctx.registry config in
        (mdisk_opages, device, outcome))
  in
  let rows =
    List.map
      (fun (mdisk_opages, device, outcome) ->
        [
          Printf.sprintf "%d KiB" (mdisk_opages * 4);
          string_of_int outcome.Workload.Aging.host_writes;
          string_of_int (Salamander.Device.decommissions device);
          string_of_int (Salamander.Device.regenerations device);
        ])
      aged
  in
  Report.table fmt
    ~header:[ "mSize"; "host writes"; "decommissions"; "regenerations" ]
    ~rows;
  Report.note fmt
    "smaller minidisks shrink in finer steps, so each diFS recovery \
     touches less data — but each decommissioning also frees less slack, \
     so the device runs closer to full and garbage collection wears it \
     faster.  mSize picks a point between recovery granularity and \
     effective over-provisioning; the paper's open question about \
     granularity is a real trade-off here"

(* --- AB-LEVEL -------------------------------------------------------------- *)

let max_level ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "AB-LEVEL: RegenS depth (max usable tiredness level) vs lifetime";
  let baseline = ref 0 in
  let rows =
    List.map
      (fun level ->
        let config =
          if level = 0 then Defaults.salamander_config ~mode:Salamander.Device.Shrink_s
          else
            {
              (Defaults.salamander_config ~mode:Salamander.Device.Regen_s) with
              Salamander.Device.max_level = level;
            }
        in
        let writes = average_writes ~ctx config in
        if level = 0 then baseline := writes;
        [
          (if level = 0 then "L0 (ShrinkS)" else Printf.sprintf "L%d" level);
          string_of_int writes;
          Printf.sprintf "%.2fx" (float_of_int writes /. float_of_int !baseline);
        ])
      [ 0; 1; 2; 3 ]
  in
  Report.table fmt ~header:[ "max level"; "host writes"; "vs ShrinkS" ] ~rows;
  Report.note fmt
    "returns diminish with depth and are gone by L3, echoing Fig. 2's \
     marginal-utility argument at whole-device level; the paper's L < 2 \
     recommendation also rests on the 4/(4-L) performance cost that \
     deeper levels pay (Fig. 3c/3d)"

(* --- AB-SCRUB -------------------------------------------------------------- *)

let scrub ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "AB-SCRUB: proactive retirement of worn pages on decommissioning";
  let rows =
    List.map
      (fun scrub_on_decommission ->
        let config =
          {
            (Defaults.salamander_config ~mode:Salamander.Device.Regen_s) with
            Salamander.Device.scrub_on_decommission;
          }
        in
        let device, outcome = age_device ~registry:ctx.Ctx.registry config in
        [
          (if scrub_on_decommission then "on (paper §3.3)" else "off");
          string_of_int outcome.Workload.Aging.host_writes;
          string_of_int (Salamander.Device.decommissions device);
          string_of_int (Salamander.Device.regenerations device);
          Report.cell_f (Salamander.Device.write_amplification device);
        ])
      [ true; false ]
  in
  Report.table fmt
    ~header:
      [ "proactive retirement"; "host writes"; "decommissions";
        "regenerations"; "WAF" ]
    ~rows;
  Report.note fmt
    "proactive retirement moves data off pages *before* they cross their \
     ECC threshold, trading some raw endurance (pages retire with life \
     left) for a smaller window in which data sits on nearly-uncorrectable \
     flash; with it off, pages only transition when natural wear crosses \
     the threshold, wringing out more writes at higher residual-UBER \
     exposure"

(* --- AB-PLACE -------------------------------------------------------------- *)

let placement ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "AB-PLACE: replica placement vs correlated minidisk failures";
  let run_policy placement =
    let registry = ctx.Ctx.registry in
    let cluster =
      Difs.Cluster.create
        ~config:{ Difs.Cluster.default_config with Difs.Cluster.placement }
        ~registry ()
    in
    let devices =
      List.init 4 (fun i ->
          let d =
            Salamander.Device.create
              ~config:(Defaults.salamander_config ~mode:Salamander.Device.Regen_s)
              ~registry ~geometry:Defaults.geometry ~model:Defaults.model
              ~rng:(Sim.Rng.create (800 + i)) ()
          in
          ignore
            (Difs.Cluster.add_device cluster ~node:i
               (Difs.Cluster.Salamander d));
          d)
    in
    let chunks = 40 in
    for id = 0 to chunks - 1 do
      ignore (Difs.Cluster.write_chunk cluster id)
    done;
    (* Age until the first whole-device death (wear or otherwise). *)
    let rng = Sim.Rng.create 801 in
    let rewrites = ref 0 in
    while
      List.for_all Salamander.Device.alive devices && !rewrites < 300_000
    do
      incr rewrites;
      ignore (Difs.Cluster.write_chunk cluster (Sim.Rng.int rng chunks))
    done;
    Difs.Cluster.repair cluster;
    let health = Difs.Cluster.health cluster in
    ( Difs.Cluster.lost_chunks cluster,
      health.Difs.Cluster.degraded,
      Difs.Cluster.recovery_opages cluster )
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let lost, degraded, recovery = run_policy policy in
        [ label; string_of_int lost; string_of_int degraded;
          string_of_int recovery ])
      [
        ("spread across devices", Difs.Cluster.Spread_devices);
        ("spread across targets only", Difs.Cluster.Spread_targets);
      ]
  in
  Report.table fmt
    ~header:
      [ "placement"; "lost chunks"; "degraded chunks"; "recovery oPages" ]
    ~rows;
  Report.note fmt
    "minidisks of one drive fail together when the drive dies; placement \
     must treat them as correlated — the §3.2 open question, answered in \
     favour of device-level spreading"

(* --- AB-ECC-PLACE ------------------------------------------------------------ *)

let ecc_placement fmt =
  Report.section fmt
    "AB-ECC-PLACE: inline extra ECC vs dedicated ECC pages (analytic, §4.2)";
  let latency = Flash.Latency.default in
  let sense ~data_kib = Flash.Latency.fpage_read_us latency ~data_kib ~raw_errors:0. ~retries:0 in
  (* Inline (implemented design): an L1 page holds 3 data oPages. *)
  let inline_seq_senses = 1. /. 3. (* per data oPage *) in
  let inline_16k = 2. *. sense ~data_kib:8. (* 4 oPages span 2 pages *) in
  let inline_4k = sense ~data_kib:4. in
  (* Dedicated: data pages keep 4 oPages; one companion page holds the
     extra ECC of 4 data pages (1 oPage of parity each). *)
  let dedicated_seq_senses = (1. /. 4.) +. (1. /. 16.) in
  let dedicated_16k = sense ~data_kib:16. +. sense ~data_kib:4. in
  let dedicated_4k = sense ~data_kib:4. +. sense ~data_kib:4. in
  Report.table fmt
    ~header:
      [ "layout"; "senses per data oPage (seq)"; "16KiB random us";
        "4KiB random us" ]
    ~rows:
      [
        [ "inline (this repo)";
          Printf.sprintf "%.3f" inline_seq_senses;
          Report.cell_f inline_16k; Report.cell_f inline_4k ];
        [ "dedicated ECC pages";
          Printf.sprintf "%.3f" dedicated_seq_senses;
          Report.cell_f dedicated_16k; Report.cell_f dedicated_4k ];
      ];
  Report.note fmt
    "dedicated ECC pages restore extent alignment and slightly reduce \
     sequential senses, but double the cost of small random reads — \
     which is why the paper keeps ECC inline for 16 KiB fPages and \
     reserves dedicated pages for devices with smaller fPages"

(* --- AB-PATTERN ------------------------------------------------------------- *)

let pattern_shapes = [ "uniform"; "zipfian(0.99)"; "sequential" ]

let make_pattern shape ~window =
  match shape with
  | "uniform" -> Workload.Pattern.uniform ~window ~read_fraction:0.
  | "zipfian(0.99)" ->
      Workload.Pattern.zipfian ~window ~theta:0.99 ~read_fraction:0.
  | "sequential" -> Workload.Pattern.sequential ~window
  | _ -> invalid_arg "unknown pattern shape"

let pattern ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "AB-PATTERN: endurance under different access patterns (wear leveling)";
  let kinds : [ `Baseline | `Regens ] list = [ `Baseline; `Regens ] in
  let rows =
    List.map
      (fun shape ->
        shape
        :: List.map
             (fun kind ->
               let device =
                 Defaults.make_device ~registry:ctx.Ctx.registry
                   (kind :> [ `Baseline | `Cvss | `Shrinks | `Regens ])
                   ~seed:902
               in
               let window =
                 Stdlib.max 1
                   (int_of_float
                      (0.85
                      *. float_of_int
                           (Ftl.Device_intf.logical_capacity device)))
               in
               let outcome =
                 Workload.Aging.run_epoch ~quota:50_000_000
                   ~rng:(Sim.Rng.create 903)
                   ~pattern:(make_pattern shape ~window)
                   ~device ()
               in
               string_of_int outcome.Workload.Aging.host_writes)
             kinds)
      pattern_shapes
  in
  Report.table fmt ~header:[ "pattern"; "baseline"; "regens" ] ~rows;
  Report.note fmt
    "zipfian skew concentrates overwrites on hot LBAs; the log-structured \
     write path plus the wear-leveling sweep spread that heat, so \
     endurance stays within a few percent of uniform for both designs.  \
     Sequential fill wears perfectly evenly and lives longest."

(* --- AB-QUEUE ------------------------------------------------------------- *)

(* Closed-loop 16 KiB random reads through the channel/die queueing model:
   on fresh (L0) flash an extent is one page read; on all-L1 flash it is
   two page reads on (usually) different dies.  Queue depth decides
   whether the second sense hides behind parallelism or eats bandwidth. *)
let queueing fmt =
  Report.section fmt
    "AB-QUEUE: RegenS 16 KiB reads under internal parallelism (§4.2)";
  let latency = Flash.Latency.default in
  let requests = 2000 in
  let run_closed_loop ~qd ~layout =
    let engine = Sim.Engine.create () in
    let service = Flash.Service.create ~engine Flash.Service.default_config in
    let rng = Sim.Rng.create (qd + 91) in
    let total_latency = ref 0. in
    let completed = ref 0 in
    let submitted = ref 0 in
    let pages () =
      let page sense_kib =
        {
          Flash.Service.die_hint = Sim.Rng.int rng 1024;
          sense_us = latency.Flash.Latency.read_us;
          transfer_us =
            sense_kib *. latency.Flash.Latency.transfer_us_per_kib;
        }
      in
      match layout with
      | `L0 -> [ page 16. ]
      | `L1 -> [ page 12.; page 4. ]
    in
    let rec submit_one () =
      if !submitted < requests then begin
        incr submitted;
        Flash.Service.submit service ~pages:(pages ())
          ~on_complete:(fun ~latency_us ->
            total_latency := !total_latency +. latency_us;
            incr completed;
            submit_one ())
      end
    in
    for _ = 1 to qd do
      submit_one ()
    done;
    Sim.Engine.run engine;
    let elapsed = Sim.Engine.now engine in
    let throughput_mib_s =
      float_of_int !completed *. 16. /. 1024. /. (elapsed /. 1e6)
    in
    (!total_latency /. float_of_int !completed, throughput_mib_s)
  in
  let rows =
    List.map
      (fun qd ->
        let l0_lat, l0_tput = run_closed_loop ~qd ~layout:`L0 in
        let l1_lat, l1_tput = run_closed_loop ~qd ~layout:`L1 in
        [
          string_of_int qd;
          Report.cell_f l0_lat;
          Report.cell_f l1_lat;
          Printf.sprintf "%.2fx" (l1_lat /. l0_lat);
          Report.cell_f l0_tput;
          Report.cell_f l1_tput;
          Printf.sprintf "%.2fx" (l1_tput /. l0_tput);
        ])
      [ 1; 4; 16 ]
  in
  Report.table fmt
    ~header:
      [ "queue depth"; "L0 us"; "all-L1 us"; "latency ratio"; "L0 MiB/s";
        "all-L1 MiB/s"; "throughput ratio" ]
    ~rows;
  Report.note fmt
    "at QD 1 the two L1 page senses overlap across dies, so latency grows \
     only ~10% rather than the serialized 2x — supporting the paper's \
     expectation that parallelism absorbs much of the cost.  At \
     saturation, however, random 16 KiB reads pay the full sense-count \
     ratio (2 senses vs 1 -> ~0.55x throughput), *worse* than the \
     sequential 4/(4-L) = 0.75x, because random extents cannot amortize \
     a sense across neighbouring extents the way a sequential scan does"

let run ?(ctx = Ctx.default) fmt =
  msize ~ctx fmt;
  max_level ~ctx fmt;
  scrub ~ctx fmt;
  placement ~ctx fmt;
  pattern ~ctx fmt;
  queueing fmt;
  ecc_placement fmt
