let kinds : Fleet.kind list = [ `Baseline; `Cvss; `Shrinks; `Regens ]

let run ?(days = 150) ?(devices = Defaults.fleet_devices) ?(dwpd = 1.)
    ?aging ?(epoch_days = 1) ?(kinds = kinds) ?(ctx = Ctx.default) fmt =
  let results =
    List.map
      (fun kind -> Fleet.run ~days ~devices ~dwpd ?aging ~epoch_days ~ctx kind)
      kinds
  in
  let sample_days =
    (* every 5th day keeps the table readable; epoch runs only snapshot
       boundary days, so the stride rounds 5 up to whole epochs *)
    let stride = epoch_days * Stdlib.max 1 ((5 + epoch_days - 1) / epoch_days) in
    List.init ((days / stride) + 1) (fun i -> i * stride)
  in
  let row_of result day =
    match
      List.find_opt (fun s -> s.Fleet.day = day) result.Fleet.snapshots
    with
    | Some s -> (s.Fleet.alive, s.Fleet.capacity_opages)
    | None -> (0, 0)
  in
  Report.section fmt
    "FIG3A: functioning devices over time (paper Fig. 3a)";
  Report.table fmt
    ~header:("day" :: List.map Defaults.kind_label kinds)
    ~rows:
      (List.map
         (fun day ->
           string_of_int day
           :: List.map
                (fun r -> string_of_int (fst (row_of r day)))
                results)
         sample_days);
  let deaths r =
    Printf.sprintf "%s: %d wear / %d afr deaths"
      (Defaults.kind_label r.Fleet.kind)
      r.Fleet.wear_deaths r.Fleet.afr_deaths
  in
  List.iter (fun r -> Report.note fmt (deaths r)) results;
  Report.note fmt
    "paper: baseline devices fail as a cohort; RegenS devices shrink and \
     regenerate, flattening the failure slope";
  Report.section fmt
    "FIG3B: available fleet capacity over time (paper Fig. 3b)";
  Report.table fmt
    ~header:("day" :: List.map Defaults.kind_label kinds)
    ~rows:
      (List.map
         (fun day ->
           string_of_int day
           :: List.map
                (fun r -> string_of_int (snd (row_of r day)))
                results)
         sample_days);
  Report.note fmt
    "capacity in oPages summed over live devices; Salamander trades a \
     gradual decline for the baseline's cliff"
