type point = {
  l1_fraction : float;
  seq_throughput_mib_s : float;
  random16k_pages : float;
  random16k_us : float;
  random16k_parallel_us : float;
  random4k_us : float;
}

let latency = Flash.Latency.default

(* Latency of sensing one fPage and shipping [opages] oPages from it,
   with ECC effort and read-retries at the page's current state. *)
let fpage_cost device ~block ~page ~opages =
  let engine = Salamander.Device.engine device in
  let chip = Ftl.Engine.chip engine in
  let rber = Flash.Chip.rber chip ~block ~page in
  let profile = Salamander.Device.profile device in
  let level = Salamander.Device.level_of_page device ~block ~page in
  let info = Salamander.Tiredness.info profile level in
  let margin =
    if info.Salamander.Tiredness.tolerable_rber > 0. then
      rber /. info.Salamander.Tiredness.tolerable_rber
    else 1.
  in
  let raw_errors =
    (* mean raw bit errors the decoder grinds through for the codewords of
       the oPages actually transferred *)
    match info.Salamander.Tiredness.tail with
    | Some { Ecc.Reliability.params; codewords; _ } ->
        Ecc.Reliability.expected_errors params ~rber
        *. float_of_int (codewords * opages)
    | None -> 0.
  in
  Flash.Latency.fpage_read_us latency
    ~data_kib:(4. *. float_of_int opages)
    ~raw_errors
    ~retries:(Flash.Latency.expected_retries ~margin)

(* The physical fPages backing a run of LBAs of one minidisk. *)
let locations device mdisk ~lba ~len =
  let registry = Salamander.Device.registry device in
  let engine = Salamander.Device.engine device in
  List.filter_map
    (fun offset ->
      let logical =
        Salamander.Minidisk.Registry.engine_logical registry mdisk
          ~lba:(lba + offset)
      in
      Ftl.Engine.locate engine ~logical)
    (List.init len Fun.id)

let group_by_fpage locs =
  let table = Hashtbl.create 8 in
  List.iter
    (fun { Ftl.Location.block; page; _ } ->
      let key = (block, page) in
      Hashtbl.replace table key
        (1 + Option.value ~default:0 (Hashtbl.find_opt table key)))
    locs;
  Hashtbl.fold (fun (block, page) count acc -> (block, page, count) :: acc)
    table []

let extent_cost device mdisk ~lba ~len =
  let groups = group_by_fpage (locations device mdisk ~lba ~len) in
  let time =
    List.fold_left
      (fun acc (block, page, opages) ->
        acc +. fpage_cost device ~block ~page ~opages)
      0. groups
  in
  (time, List.length groups)

(* Lower-bound latency when the involved fPages sit on different planes:
   senses overlap, transfers still share the channel. *)
let extent_cost_parallel device mdisk ~lba ~len =
  let groups = group_by_fpage (locations device mdisk ~lba ~len) in
  let transfer_of opages =
    4. *. float_of_int opages *. latency.Flash.Latency.transfer_us_per_kib
  in
  let slowest =
    List.fold_left
      (fun acc (block, page, opages) ->
        Float.max acc (fpage_cost device ~block ~page ~opages))
      0. groups
  in
  let extra_transfers =
    match
      List.sort
        (fun (_, _, a) (_, _, b) -> compare b a)
        groups
    with
    | [] | [ _ ] -> 0.
    | _ :: rest ->
        List.fold_left (fun acc (_, _, opages) -> acc +. transfer_of opages)
          0. rest
  in
  slowest +. extra_transfers

let prepare ~registry ~l1_fraction ~seed =
  let geometry = Defaults.geometry in
  let gentle =
    Flash.Rber_model.calibrate ~target_rber:6e-3 ~target_pec:1_000_000 ()
  in
  let device =
    Salamander.Device.create
      ~config:
        {
          (Defaults.salamander_config ~mode:Salamander.Device.Regen_s) with
          (* don't let decommissioning advance extra pages while we are
             preparing a precise L1 population *)
          Salamander.Device.scrub_on_decommission = false;
        }
      ~registry ~geometry ~model:gentle ~rng:(Sim.Rng.create seed) ()
  in
  (* Force the target fraction of fPages to L1 before any data lands. *)
  let rng = Sim.Rng.create (seed + 1) in
  for block = 0 to geometry.Flash.Geometry.blocks - 1 do
    for page = 0 to geometry.Flash.Geometry.pages_per_block - 1 do
      if
        Sim.Rng.chance rng l1_fraction
        && Salamander.Device.level_of_page device ~block ~page = 0
      then Salamander.Device.force_page_level device ~block ~page ~level:1
    done
  done;
  ignore (Salamander.Device.poll_events device);
  (* Fill 85% of every surviving minidisk sequentially. *)
  let per_mdisk =
    (Salamander.Device.config device).Salamander.Device.mdisk_opages
  in
  (* 16 KiB-extent aligned so a fresh device packs each extent into one
     fPage, the layout a sequential writer gets in practice *)
  let fill = per_mdisk * 85 / 100 / 4 * 4 in
  List.iter
    (fun mdisk ->
      for lba = 0 to fill - 1 do
        match
          Salamander.Device.write device ~mdisk:mdisk.Salamander.Minidisk.id
            ~lba ~payload:lba
        with
        | Ok () -> ()
        | Error _ -> ()
      done)
    (Salamander.Device.active_mdisks device);
  Salamander.Device.flush device;
  (device, fill)

let measure_point ~registry ~l1_fraction ~seed =
  let device, fill = prepare ~registry ~l1_fraction ~seed in
  let mdisks = Salamander.Device.active_mdisks device in
  let extents_per_mdisk = fill / 4 in
  (* Sequential scan: each physical fPage is sensed once (drives read
     ahead), so the scan cost is the per-fPage cost summed over the
     distinct pages backing the data. *)
  let total_time = ref 0. in
  let total_bytes = ref 0 in
  List.iter
    (fun mdisk ->
      let groups = group_by_fpage (locations device mdisk ~lba:0 ~len:fill) in
      List.iter
        (fun (block, page, opages) ->
          total_time := !total_time +. fpage_cost device ~block ~page ~opages;
          total_bytes := !total_bytes + (opages * 4096))
        groups)
    mdisks;
  (* 16 KiB random accesses: every extent, each charged in isolation (no
     cross-access read-ahead). *)
  let r16_time = ref 0. and r16_pages = ref 0 and r16_count = ref 0 in
  let r16_parallel = ref 0. in
  List.iter
    (fun mdisk ->
      for extent = 0 to extents_per_mdisk - 1 do
        let time, pages = extent_cost device mdisk ~lba:(extent * 4) ~len:4 in
        r16_time := !r16_time +. time;
        r16_parallel :=
          !r16_parallel
          +. extent_cost_parallel device mdisk ~lba:(extent * 4) ~len:4;
        r16_pages := !r16_pages + pages;
        incr r16_count
      done)
    mdisks;
  (* 4 KiB random accesses. *)
  let rng = Sim.Rng.create (seed + 2) in
  let r4_time = ref 0. in
  let r4_count = 512 in
  let mdisk_array = Array.of_list mdisks in
  for _ = 1 to r4_count do
    let mdisk = mdisk_array.(Sim.Rng.int rng (Array.length mdisk_array)) in
    let lba = Sim.Rng.int rng fill in
    let time, _ = extent_cost device mdisk ~lba ~len:1 in
    r4_time := !r4_time +. time
  done;
  {
    l1_fraction;
    seq_throughput_mib_s =
      float_of_int !total_bytes /. (1024. *. 1024.)
      /. (!total_time /. 1e6);
    random16k_pages = float_of_int !r16_pages /. float_of_int !r16_count;
    random16k_us = !r16_time /. float_of_int !r16_count;
    random16k_parallel_us = !r16_parallel /. float_of_int !r16_count;
    random4k_us = !r4_time /. float_of_int r4_count;
  }

let measure ?(fractions = [ 0.; 0.25; 0.5; 0.75; 1. ]) ?(seed = 11)
    ?(ctx = Ctx.default) () =
  Ctx.map ctx fractions (fun sub l1_fraction ->
      measure_point ~registry:sub.Ctx.registry ~l1_fraction ~seed)

let run ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "FIG3C/FIG3D: RegenS performance vs L1 population (paper Figs. 3c, 3d)";
  let points = measure ~ctx () in
  let base = List.hd points in
  Report.table fmt
    ~header:
      [ "L1 fraction"; "seq MiB/s"; "seq vs fresh"; "16KiB fPages/access";
        "16KiB us (serial)"; "16KiB us (parallel)"; "4KiB us" ]
    ~rows:
      (List.map
         (fun p ->
           [
             Report.cell_f p.l1_fraction;
             Report.cell_f p.seq_throughput_mib_s;
             Printf.sprintf "%.2fx"
               (p.seq_throughput_mib_s /. base.seq_throughput_mib_s);
             Report.cell_f p.random16k_pages;
             Report.cell_f p.random16k_us;
             Report.cell_f p.random16k_parallel_us;
             Report.cell_f p.random4k_us;
           ])
         points);
  Report.note fmt
    "paper: sequential throughput and large-access cost degrade by \
     4/(4-L) (25% at all-L1); 4 KiB accesses are unaffected.  The \
     fPages-per-access column shows the 4/(4-L) factor directly; the \
     serial and parallel 16 KiB latencies bracket a real drive, whose \
     planes overlap the senses but share the transfer channel."
