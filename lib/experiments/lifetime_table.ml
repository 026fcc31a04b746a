type row = {
  kind : Defaults.kind;
  host_writes : int;
  factor : float;
  write_amplification : float;
}

let kinds : Defaults.kind list =
  [ `Baseline; `Cvss; `Shrinks; `Regens ]

let age_one ~registry kind ~seed =
  let device = Defaults.make_device ~registry kind ~seed in
  let outcome =
    Workload.Aging.to_death ~rng:(Sim.Rng.create (seed + 1))
      ~pattern:(Workload.Aging.uniform ~read_fraction:0. device)
      ~device ()
  in
  (outcome.Workload.Aging.host_writes,
   Ftl.Device_intf.write_amplification device)

let measure ?(seeds = [ 101; 202; 303 ]) ?(ctx = Ctx.default) () =
  (* Every (kind, seed) aging is self-contained, so the pool can run the
     whole cross product at once; the fold below reduces in list order
     either way. *)
  let tasks =
    List.concat_map
      (fun kind -> List.map (fun seed -> (kind, seed)) seeds)
      kinds
  in
  let aged =
    Ctx.map ctx tasks (fun sub (kind, seed) ->
        let w, a = age_one ~registry:sub.Ctx.registry kind ~seed in
        (kind, w, a))
  in
  let totals =
    List.map
      (fun kind ->
        let writes, wafs =
          List.fold_left
            (fun (acc_w, acc_a) (k, w, a) ->
              if k = kind then (acc_w + w, acc_a +. a) else (acc_w, acc_a))
            (0, 0.) aged
        in
        (kind, writes / List.length seeds,
         wafs /. float_of_int (List.length seeds)))
      kinds
  in
  let baseline =
    match List.find_opt (fun (k, _, _) -> k = `Baseline) totals with
    | Some (_, w, _) -> float_of_int w
    | None -> nan
  in
  List.map
    (fun (kind, host_writes, write_amplification) ->
      {
        kind;
        host_writes;
        factor = float_of_int host_writes /. baseline;
        write_amplification;
      })
    totals

let lifetime_factors rows =
  let factor kind =
    match List.find_opt (fun r -> r.kind = kind) rows with
    | Some r -> r.factor
    | None -> nan
  in
  (factor `Shrinks, factor `Regens)

let run ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "TAB-LIFE: write endurance until device death (paper: up to 1.5x)";
  let rows = measure ~ctx () in
  Report.table fmt
    ~header:[ "device"; "host oPage writes"; "vs baseline"; "WAF" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Defaults.kind_label r.kind;
             string_of_int r.host_writes;
             Printf.sprintf "%.2fx" r.factor;
             Report.cell_f r.write_amplification;
           ])
         rows);
  Report.note fmt
    "paper: ShrinkS at least the CVSS-class ~1.2x; RegenS ~1.5x via L1 \
     regeneration";
  rows
