type kind = [ `Baseline | `Cvss | `Shrinks | `Regens ]

type snapshot = { day : int; alive : int; capacity_opages : int }

type result = {
  kind : kind;
  devices : int;
  snapshots : snapshot list;
  total_host_writes : int;
  wear_deaths : int;
  afr_deaths : int;
}

(* Each device's life is simulated independently: its creation stream,
   workload stream and failure-injection stream are all split off the
   root RNG in submission order (device-major, three streams per
   device) before any task runs, so the outcome is a pure function of
   (seed, device index) — identical however devices are grouped into
   chunks and whatever pool runs them. *)
type device_streams = {
  dev_rng : Sim.Rng.t;
  wl_rng : Sim.Rng.t;
  afr_rng : Sim.Rng.t;
}

(* Chunk-local accumulator: one scratch context (registry, monitor,
   fleet-report accumulator) and plain per-day sums shared by every
   device of the chunk.  Created once per chunk on the worker that runs
   it, folded device by device with no synchronization, merged into the
   context once at the barrier. *)
type chunk_acc = {
  chunk : Parallel.Pool.chunk;
  ctx : Ctx.t;
  alive_by_day : int array; (* live devices per day 0 .. days *)
  cap_by_day : int array; (* summed live capacity per day *)
  mutable acc_host_writes : int;
  mutable acc_wear_deaths : int;
  mutable acc_afr_deaths : int;
}

let simulate_device ~kind ~days ~dwpd ~afr_per_day ~aging ~epoch_days ~streams
    acc index =
  let s : device_streams = streams.(index) in
  let registry = acc.ctx.Ctx.registry in
  let device = Defaults.make_device_rng ~registry kind ~rng:s.dev_rng in
  let sink = Option.bind acc.ctx.Ctx.monitor Monitor.Engine.sink in
  (* Liveness/capacity gauges exist only for the monitor: they feed the
     health model's alive and capacity series. *)
  let liveness =
    Option.map
      (fun _ ->
        ( Telemetry.Registry.gauge registry
            ~help:"1 while the device still accepts writes" "device_alive",
          Telemetry.Registry.gauge registry
            ~help:"Current logical capacity in oPages"
            "device_capacity_opages" ))
      acc.ctx.Ctx.monitor
  in
  let pattern =
    Workload.Pattern.uniform
      ~window:
        (Stdlib.max 1
           (int_of_float
              (0.85 *. float_of_int (Ftl.Device_intf.logical_capacity device))))
      ~read_fraction:0.
  in
  let afr_dead = ref false and wear_dead = ref false in
  let alive () =
    (not !afr_dead) && (not !wear_dead) && Ftl.Device_intf.alive device
  in
  let capacity () =
    if alive () then Ftl.Device_intf.logical_capacity device else 0
  in
  let sample day =
    match acc.ctx.Ctx.monitor with
    | Some mon when Monitor.Engine.due mon ~tick:day || day = 0 || day = days
      ->
        Option.iter
          (fun (alive_g, cap_g) ->
            Telemetry.Registry.Gauge.set alive_g (if alive () then 1. else 0.);
            Telemetry.Registry.Gauge.set cap_g (float_of_int (capacity ())))
          liveness;
        Monitor.Engine.sample mon ~time:(float_of_int day) registry
    | _ -> ()
  in
  let record day =
    if alive () then begin
      acc.alive_by_day.(day) <- acc.alive_by_day.(day) + 1;
      acc.cap_by_day.(day) <- acc.cap_by_day.(day) + capacity ()
    end
  in
  record 0;
  sample 0;
  Telemetry.Trace.with_span ?sink
    ~args:[ ("device", string_of_int index) ]
    "fleet:device"
    (fun () ->
      (* Days advance one epoch at a time: [epoch_days] days' quota in a
         single aging call, one AFR draw at the compounded hazard, and
         recording/sampling only at epoch boundaries.  With the default
         [epoch_days = 1] each epoch is one day and every step below
         reduces exactly to the historical per-day loop (quota times
         [*. 1.], the hazard guard keeps the raw [afr_per_day]). *)
      let day = ref 1 in
      while !day <= days do
        let span_days = Stdlib.min epoch_days (days - !day + 1) in
        let upto = !day + span_days - 1 in
        if alive () then
          Telemetry.Trace.with_span ?sink
            ~args:[ ("day", string_of_int !day) ]
            "fleet:day"
            (fun () ->
              (* Random, non-wear failure (controller, DRAM, firmware): the
                 ~1%-AFR class of failures the field studies report.  One
                 draw per epoch at the compounded per-epoch probability;
                 the device is then down for the whole epoch, the same
                 day-granular approximation the per-day loop makes. *)
              let p_fail =
                if span_days = 1 then afr_per_day
                else 1. -. ((1. -. afr_per_day) ** float_of_int span_days)
              in
              if Sim.Rng.chance s.afr_rng p_fail then afr_dead := true
              else begin
                let quota =
                  if span_days = 1 then
                    int_of_float (dwpd *. float_of_int (capacity ()))
                  else
                    int_of_float
                      (dwpd *. float_of_int (capacity ())
                      *. float_of_int span_days)
                in
                let outcome =
                  Workload.Aging.run_epoch ~path:aging ~rng:s.wl_rng ~pattern
                    ~device ~quota ()
                in
                acc.acc_host_writes <-
                  acc.acc_host_writes + outcome.Workload.Aging.host_writes;
                if outcome.Workload.Aging.died then wear_dead := true
              end);
        record upto;
        sample upto;
        day := upto + 1
      done);
  if !wear_dead then acc.acc_wear_deaths <- acc.acc_wear_deaths + 1;
  if !afr_dead then acc.acc_afr_deaths <- acc.acc_afr_deaths + 1;
  (* One wear observation per device at end of life(time window): the
     fleet report's whole input.  The media scan is O(device) but runs
     once per device per run, not per op. *)
  Option.iter
    (fun o ->
      let w = Ftl.Device_intf.wear_stats device in
      let bg = Ftl.Device_intf.bg_stats device in
      Obs.Fleet_report.Acc.observe o
        {
          Obs.Fleet_report.id =
            Printf.sprintf "%s-%d" (Defaults.kind_label kind) index;
          pec_max = w.Ftl.Device_intf.pec_max;
          pec_min = w.Ftl.Device_intf.pec_min;
          rber_worst = w.Ftl.Device_intf.rber_worst;
          tolerable_rber = w.Ftl.Device_intf.tolerable_rber;
          retries = bg.Ftl.Device_intf.read_retries;
          escalations = bg.Ftl.Device_intf.live_repair_attempts;
          reclaims = bg.Ftl.Device_intf.read_reclaims;
          host_writes = Ftl.Device_intf.host_writes device;
          alive = alive ();
        })
    acc.ctx.Ctx.obs

(* Chunk sizing depends only on the fleet shape — never on the job
   count, which must not be observable.  A monitored fleet pins one
   device per chunk so each device keeps its own scratch monitor and
   [device=<kind>-<i>] series; unmonitored fleets use up to 64 chunks,
   plenty of slack for any realistic pool while amortizing the
   per-chunk registry and queue round-trip over many devices. *)
let default_chunk_size ~devices ~monitored =
  if monitored then 1 else Stdlib.max 1 ((devices + 63) / 64)

let run ?(devices = Defaults.fleet_devices) ?(days = 150) ?(dwpd = 1.)
    ?(afr_per_day = 0.0011) ?(seed = Defaults.fleet_seed) ?(ctx = Ctx.default)
    ?chunk_size ?(aging = Workload.Aging.Auto) ?(epoch_days = 1) kind =
  if epoch_days < 1 then invalid_arg "Fleet.run: epoch_days must be >= 1";
  let root = Sim.Rng.create seed in
  let streams =
    Array.init devices (fun _ ->
        { dev_rng = root; wl_rng = root; afr_rng = root })
  in
  (* split order matters: three streams per device, device-major *)
  for i = 0 to devices - 1 do
    let dev_rng = Sim.Rng.split root in
    let wl_rng = Sim.Rng.split root in
    let afr_rng = Sim.Rng.split root in
    streams.(i) <- { dev_rng; wl_rng; afr_rng }
  done;
  let chunk_size =
    match chunk_size with
    | Some size -> size
    | None ->
        default_chunk_size ~devices
          ~monitored:(Option.is_some ctx.Ctx.monitor)
  in
  let outcomes =
    Parallel.Pool.accumulate ctx.Ctx.pool ~chunk_size ~n:devices
      {
        Parallel.Pool.Accumulator.create =
          (fun chunk ->
            {
              chunk;
              ctx = Ctx.sub ctx;
              alive_by_day = Array.make (days + 1) 0;
              cap_by_day = Array.make (days + 1) 0;
              acc_host_writes = 0;
              acc_wear_deaths = 0;
              acc_afr_deaths = 0;
            });
        item =
          simulate_device ~kind ~days ~dwpd ~afr_per_day ~aging ~epoch_days
            ~streams;
        finish = Fun.id;
      }
  in
  (* Reduce in submission (= chunk) order: sums are order-insensitive,
     the registry and monitor merges are not (gauges keep the last
     write, spans splice where they land), so everything stays
     deterministic at any job count.  Monitored chunks hold exactly one
     device, so the label reduces to the per-device [kind-index] the
     health reports key on. *)
  let kind_tag = Defaults.kind_label kind in
  List.iter
    (fun o ->
      Ctx.absorb ctx
        ~labels:
          [ ("device", Printf.sprintf "%s-%d" kind_tag o.chunk.Parallel.Pool.lo) ]
        o.ctx)
    outcomes;
  (* Devices record only at epoch boundaries, so snapshots exist only
     there: day 0, then the end of each epoch (the final partial epoch
     ends on [days]).  epoch_days = 1 yields the historical every-day
     list. *)
  let recorded_days =
    let rec boundaries day acc =
      if day > days then List.rev acc
      else
        let upto = Stdlib.min days (day + epoch_days - 1) in
        boundaries (upto + 1) (upto :: acc)
    in
    0 :: boundaries 1 []
  in
  let snapshots =
    List.map
      (fun day ->
        let alive = ref 0 and capacity = ref 0 in
        List.iter
          (fun o ->
            alive := !alive + o.alive_by_day.(day);
            capacity := !capacity + o.cap_by_day.(day))
          outcomes;
        { day; alive = !alive; capacity_opages = !capacity })
      recorded_days
  in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    kind;
    devices;
    snapshots;
    total_host_writes = sum (fun o -> o.acc_host_writes);
    wear_deaths = sum (fun o -> o.acc_wear_deaths);
    afr_deaths = sum (fun o -> o.acc_afr_deaths);
  }
