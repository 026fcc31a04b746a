type mode = Shrink_s | Regen_s

type config = {
  mode : mode;
  mdisk_opages : int;
  max_level : int;
  scrub_on_decommission : bool;
  decommission_grace : bool;
}

let default_config =
  {
    mode = Regen_s;
    mdisk_opages = 256;
    max_level = 1;
    scrub_on_decommission = true;
    decommission_grace = false;
  }

(* Initial over-provisioning fraction, left unexported. *)
let over_provisioning = 0.07

(* Eq. 2 margin: decommission when physical data slots fall below this
   multiple of the exported LBAs. *)
let decommission_headroom = 1.05

(* Regenerate a minidisk only when slots exceed this multiple of
   (LBAs + mSize): hysteresis just above the decommission threshold. *)
let regen_headroom = 1.06

(* Telemetry handles, bound at device creation.  [decommissions] and
   [regenerations] are counts whose [n] is this device's own tally (the
   accessors read it).  Per-level metrics are
   arrays indexed by tiredness level (0 .. dead_level) with a
   [level="Lj"] label; [tel_rng] is a private fixed-seed stream used
   only to sample observational quantities (raw bit-error counts), so
   enabling telemetry never perturbs the simulation's own RNG streams. *)
type tel = {
  tel_registry : Telemetry.Registry.t;
  decommissions : Telemetry.Registry.count;
  tel_urgent_decommissions : Telemetry.Registry.Counter.t;
  regenerations : Telemetry.Registry.count;
  tel_transitions : Telemetry.Registry.Counter.t array; (* by to_level *)
  tel_limbo : Telemetry.Registry.Gauge.t array; (* fPages per level *)
  tel_decode_attempts : Telemetry.Registry.Counter.t array;
  tel_corrected_bits : Telemetry.Registry.Counter.t array;
  tel_uncorrectable : Telemetry.Registry.Counter.t array;
  tel_active_mdisks : Telemetry.Registry.Gauge.t;
  tel_exported_opages : Telemetry.Registry.Gauge.t;
  tel_grace_writes : Telemetry.Registry.Histogram.t;
  tel_rng : Sim.Rng.t;
  drain_started : (int, int) Hashtbl.t; (* mdisk id -> host_writes *)
}

let level_label level = [ ("level", Printf.sprintf "L%d" level) ]

let make_tel registry profile mode =
  let dead = Tiredness.dead_level profile in
  let mode_label =
    [ ("mode", match mode with Shrink_s -> "shrinks" | Regen_s -> "regens") ]
  in
  let per_level name help =
    Array.init (dead + 1) (fun level ->
        Telemetry.Registry.counter registry ~help ~labels:(level_label level)
          name)
  in
  {
    tel_registry = registry;
    decommissions =
      Telemetry.Registry.count registry ~labels:mode_label
        ~help:"Minidisks decommissioned (ShrinkS)"
        "salamander_decommissions_total";
    tel_urgent_decommissions =
      Telemetry.Registry.counter registry ~labels:mode_label
        ~help:"Decommissions forced by an out-of-space emergency"
        "salamander_urgent_decommissions_total";
    regenerations =
      Telemetry.Registry.count registry ~labels:mode_label
        ~help:"Minidisks regenerated from tired capacity (RegenS)"
        "salamander_regenerations_total";
    tel_transitions =
      per_level "salamander_level_transitions_total"
        "fPage tiredness transitions into each level";
    tel_limbo =
      Array.init (dead + 1) (fun level ->
          Telemetry.Registry.gauge registry ~labels:(level_label level)
            ~help:"fPages currently at each tiredness level (limbo census)"
            "salamander_limbo_fpages");
    tel_decode_attempts =
      per_level "ecc_decode_attempts_total"
        "oPage reads decoded at each tiredness level's code";
    tel_corrected_bits =
      per_level "ecc_corrected_bits_total"
        "Raw bit errors corrected by each level's code (sampled)";
    tel_uncorrectable =
      per_level "ecc_uncorrectable_total"
        "Reads that exceeded each level's correction capability";
    tel_active_mdisks =
      Telemetry.Registry.gauge registry ~help:"Live exported minidisks"
        "salamander_active_mdisks";
    tel_exported_opages =
      Telemetry.Registry.gauge registry ~help:"Exported LBAs in oPages"
        "salamander_exported_opages";
    tel_grace_writes =
      Telemetry.Registry.histogram registry
        ~help:
          "Host writes elapsed between Mdisk_retiring and its \
           acknowledgement (grace-period duration)"
        "salamander_grace_duration_writes";
    tel_rng = Sim.Rng.create 0x7e1e7e1;
    drain_started = Hashtbl.create 8;
  }

(* Move one fPage between limbo levels, mirroring the census into the
   per-level metrics. *)
let transition_with limbo tel ~from_level ~to_level =
  Limbo.transition limbo ~from_level ~to_level;
  Telemetry.Registry.Counter.incr tel.tel_transitions.(to_level);
  if Telemetry.Registry.Gauge.is_active tel.tel_limbo.(from_level) then begin
    Telemetry.Registry.Gauge.set tel.tel_limbo.(from_level)
      (float_of_int (Limbo.count limbo ~level:from_level));
    Telemetry.Registry.Gauge.set tel.tel_limbo.(to_level)
      (float_of_int (Limbo.count limbo ~level:to_level))
  end

type t = {
  config : config;
  geometry : Flash.Geometry.t;
  profile : Tiredness.t;
  chip : Flash.Chip.t;
  engine : Ftl.Engine.t;
  limbo : Limbo.t;
  registry : Minidisk.Registry.t; (* and the LBA translation all paths read *)
  events : Events.Queue.t;
  levels : int array; (* tiredness per fPage, indexed block*ppb + page *)
  pending_check : bool ref;
      (* set by the erase hook (which outlives [create]'s scope), consumed
         by [maintain] once the engine call that triggered it returns *)
  initial_mdisks : int;
  tel : tel;
  mutable dead : bool;
}

type write_error = [ `Dead | `Unknown_mdisk | `No_space ]
type read_error = [ `Dead | `Unknown_mdisk | `Unmapped | `Uncorrectable ]

let page_index geometry ~block ~page =
  (block * geometry.Flash.Geometry.pages_per_block) + page

let create ?(config = default_config) ?registry ~geometry ~model ~rng () =
  let tel_registry =
    match registry with Some r -> r | None -> Telemetry.Registry.null
  in
  if config.mdisk_opages <= 0 then invalid_arg "Device.create: mdisk_opages";
  let max_level = match config.mode with Shrink_s -> 0 | Regen_s -> config.max_level in
  let profile = Tiredness.profile ~max_level geometry in
  let chip =
    Flash.Chip.create ~registry:tel_registry ~rng:(Sim.Rng.split rng) ~geometry
      ~model ()
  in
  let levels = Array.make (Flash.Geometry.fpages geometry) 0 in
  let limbo = Limbo.create profile in
  let total_opages = Flash.Geometry.total_opages geometry in
  let slots = total_opages / config.mdisk_opages in
  if slots = 0 then invalid_arg "Device.create: minidisk larger than device";
  let pending_check = ref false in
  let tel = make_tel tel_registry profile config.mode in
  (* Health-monitor input: the deepest tiredness level's code sets the
     RBER ceiling this device can ever correct past. *)
  Ftl.Device_intf.set_tolerable_rber tel_registry
    (Tiredness.info profile (Tiredness.max_level profile)).Tiredness.tolerable_rber;
  let policy =
    {
      Ftl.Policy.data_slots =
        (fun ~block ~page ->
          Tiredness.data_slots profile
            levels.(page_index geometry ~block ~page));
      read_fail_prob =
        (fun ~rber ~block ~page ->
          let level = levels.(page_index geometry ~block ~page) in
          (* Per-level ECC decode metering.  Corrected bits are sampled
             from the binomial raw-error count over the codewords one
             oPage read decodes; the rare reads that turn out
             uncorrectable are metered separately, so this slightly
             overcounts corrected bits — by less than the residual UBER. *)
          Telemetry.Registry.Counter.incr tel.tel_decode_attempts.(level);
          (if Telemetry.Registry.Counter.is_active tel.tel_corrected_bits.(level)
           then
             match (Tiredness.info profile level).Tiredness.tail with
             | Some { Ecc.Reliability.params; codewords; _ } ->
                 let n = params.Ecc.Code_params.n_bits * codewords in
                 Telemetry.Registry.Counter.incr
                   tel.tel_corrected_bits.(level)
                   ~by:(Sim.Dist.binomial tel.tel_rng ~n ~p:rber)
             | None -> ());
          Tiredness.read_fail_prob profile ~level ~rber);
      should_reclaim =
        (fun ~rber ~block ~page ->
          (* read-reclaim against the page's own level threshold *)
          let level = levels.(page_index geometry ~block ~page) in
          let info = Tiredness.info profile level in
          info.Tiredness.tolerable_rber > 0.
          && rber
             > Ftl.Ecc_profile.reclaim_margin *. info.Tiredness.tolerable_rber);
      on_block_erased = (fun ~block:_ -> ());
    }
  in
  let engine =
    Ftl.Engine.create ~registry:tel_registry ~chip ~rng:(Sim.Rng.split rng)
      ~policy ~logical_capacity:(slots * config.mdisk_opages) ()
  in
  (* Tiredness transitions happen at erase time, when the block's pages
     are about to be reused at their new wear level (§3.1). *)
  policy.Ftl.Policy.on_block_erased <-
    (fun ~block ->
      let wear = Flash.Chip.erased_wear chip ~block in
      for page = 0 to geometry.Flash.Geometry.pages_per_block - 1 do
        let index = page_index geometry ~block ~page in
        let current = levels.(index) in
        if current < Tiredness.dead_level profile then begin
          let rber = Flash.Chip.erased_rber chip ~wear ~block ~page in
          let required = Tiredness.level_for_rber profile ~rber in
          if required > current then begin
            transition_with limbo tel ~from_level:current ~to_level:required;
            levels.(index) <- required;
            pending_check := true
          end
        end
      done);
  (* Expose the initial fleet of minidisks, leaving over-provisioning
     unexported. *)
  let initial =
    Stdlib.min slots
      (int_of_float
         (float_of_int total_opages *. (1. -. over_provisioning))
      / config.mdisk_opages)
  in
  let registry =
    Minidisk.Registry.create ~opages_per_mdisk:config.mdisk_opages ~slots
      ~initial
  in
  if Telemetry.Registry.Gauge.is_active tel.tel_active_mdisks then begin
    Telemetry.Registry.Gauge.set tel.tel_limbo.(0)
      (float_of_int (Limbo.count limbo ~level:0));
    Telemetry.Registry.Gauge.set tel.tel_active_mdisks (float_of_int initial);
    Telemetry.Registry.Gauge.set tel.tel_exported_opages
      (float_of_int (Minidisk.Registry.active_opages registry))
  end;
  {
    config;
    geometry;
    profile;
    chip;
    engine;
    limbo;
    registry;
    events = Events.Queue.create ();
    levels;
    pending_check;
    initial_mdisks = initial;
    tel;
    dead = false;
  }

(* --- decommissioning and regeneration ---------------------------------- *)

let refresh_export_gauges t =
  if Telemetry.Registry.Gauge.is_active t.tel.tel_active_mdisks then begin
    Telemetry.Registry.Gauge.set t.tel.tel_active_mdisks
      (float_of_int (Minidisk.Registry.active_count t.registry));
    Telemetry.Registry.Gauge.set t.tel.tel_exported_opages
      (float_of_int (Minidisk.Registry.active_opages t.registry))
  end

(* The emptiest minidisk loses least data to re-replication; ties go to
   the oldest id for determinism. *)
let pick_victim t =
  let mdisk_live mdisk =
    Ftl.Engine.mapped_in_range t.engine
      ~lo:(mdisk.Minidisk.slot * t.config.mdisk_opages)
      ~len:t.config.mdisk_opages
  in
  match Minidisk.Registry.active t.registry with
  | [] -> None
  | first :: rest ->
      let best, best_live =
        List.fold_left
          (fun (best, best_live) mdisk ->
            let live = mdisk_live mdisk in
            if live < best_live then (mdisk, live) else (best, best_live))
          (first, mdisk_live first) rest
      in
      Some (best, best_live)

(* Retirement order: RBER (snapshotted before any relocation) descending,
   ties to the higher flat page index — the order a stable sort of the
   block-major candidate list, consed and so reversed, gave. *)
let wears_before rbers a b =
  let c = Float.compare (Float.Array.get rbers a) (Float.Array.get rbers b) in
  c > 0 || (c = 0 && a > b)

(* Retirement scratch, one per domain and shared by its devices, so a
   fleet pays for it once per worker rather than once per device:
   [rbers] is indexed like a device's [levels], [heap] holds flat page
   indices as a max-heap by [wears_before].  Retirement never re-enters
   itself: [Engine.relocate_page] only moves data into the write buffer,
   so no program, GC or hook runs inside it. *)
type worn = { mutable rbers : Float.Array.t; mutable heap : int array }

let worn_scratch =
  Domain.DLS.new_key (fun () -> { rbers = Float.Array.create 0; heap = [||] })

let rec sift_down rbers heap ~size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && wears_before rbers heap.(r) heap.(l) then r else l in
    if wears_before rbers heap.(c) heap.(i) then begin
      let top = heap.(i) in
      heap.(i) <- heap.(c);
      heap.(c) <- top;
      sift_down rbers heap ~size c
    end
  end

(* §3.3: when a minidisk is decommissioned, the SSD preemptively retires
   the most worn-out fPages — regardless of which minidisk their data
   belongs to — relocating live oPages to less worn flash and advancing
   each retired page's tiredness level.  An mSize worth of oPages is
   retired per decommissioning.  In ShrinkS (max level 0) retirement kills
   the page outright; in RegenS it moves the page to the next level, where
   most of its capacity remains usable — the source of the "available but
   not used" oPages that later regenerate into new minidisks (§3.4). *)
let retire_worn_pages t ~budget =
  let worn = Domain.DLS.get worn_scratch in
  let pages = Array.length t.levels in
  if Array.length worn.heap < pages then begin
    worn.rbers <- Float.Array.create pages;
    worn.heap <- Array.make pages 0
  end;
  let rbers = worn.rbers and heap = worn.heap in
  let size = ref 0 in
  for block = 0 to t.geometry.Flash.Geometry.blocks - 1 do
    for page = 0 to t.geometry.Flash.Geometry.pages_per_block - 1 do
      let index = page_index t.geometry ~block ~page in
      if t.levels.(index) < Tiredness.dead_level t.profile then begin
        Float.Array.set rbers index (Flash.Chip.rber t.chip ~block ~page);
        heap.(!size) <- index;
        incr size
      end
    done
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down rbers heap ~size:!size i
  done;
  (* Pop only as many pages as the budget takes: a handful of the
     device's pages per decommission. *)
  let ppb = t.geometry.Flash.Geometry.pages_per_block in
  let retired = ref 0 in
  while !retired < budget && !size > 0 do
    let index = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    sift_down rbers heap ~size:!size 0;
    let level = t.levels.(index) in
    Ftl.Engine.relocate_page t.engine ~block:(index / ppb)
      ~page:(index mod ppb);
    transition_with t.limbo t.tel ~from_level:level ~to_level:(level + 1);
    t.levels.(index) <- level + 1;
    retired := !retired + Tiredness.data_slots t.profile level
  done

let discard_mdisk_lbas t (mdisk : Minidisk.t) =
  let base = mdisk.Minidisk.slot * t.config.mdisk_opages in
  for lba = base to base + t.config.mdisk_opages - 1 do
    Ftl.Engine.discard t.engine ~logical:lba
  done

let announce_death_if_empty t =
  if
    Minidisk.Registry.active_count t.registry = 0
    && Minidisk.Registry.draining t.registry = []
    && not t.dead
  then begin
    t.dead <- true;
    Events.Queue.push t.events Events.Device_failed
  end

(* Complete a grace-period retirement: the diFS has re-replicated (or we
   are in an emergency and cannot wait); drop the data and free the
   slot. *)
let finish_drain t (mdisk : Minidisk.t) =
  let live =
    Ftl.Engine.mapped_in_range t.engine
      ~lo:(mdisk.Minidisk.slot * t.config.mdisk_opages)
      ~len:t.config.mdisk_opages
  in
  discard_mdisk_lbas t mdisk;
  ignore (Minidisk.Registry.decommission t.registry mdisk.Minidisk.id);
  (match Hashtbl.find_opt t.tel.drain_started mdisk.Minidisk.id with
  | Some started ->
      Hashtbl.remove t.tel.drain_started mdisk.Minidisk.id;
      Telemetry.Registry.Histogram.observe t.tel.tel_grace_writes
        (float_of_int (Ftl.Engine.host_writes t.engine - started))
  | None -> ());
  Events.Queue.push t.events
    (Events.Mdisk_decommissioned
       { id = mdisk.Minidisk.id; lost_opages = live });
  refresh_export_gauges t;
  announce_death_if_empty t

(* [urgent] skips the grace period: the engine is out of space *now* and
   retaining drained data would deadlock the write path. *)
let decommission_one ?(urgent = false) t =
  match pick_victim t with
  | None -> (
      (* No active victims left; an emergency may still reclaim space by
         force-finishing a draining minidisk. *)
      match (urgent, Minidisk.Registry.draining t.registry) with
      | true, mdisk :: _ ->
          finish_drain t mdisk;
          true
      | _ ->
          t.dead <- true;
          Events.Queue.push t.events Events.Device_failed;
          false)
  | Some (victim, live) ->
      if t.config.scrub_on_decommission then
        retire_worn_pages t ~budget:t.config.mdisk_opages;
      Telemetry.Registry.bump t.tel.decommissions;
      if urgent then
        Telemetry.Registry.Counter.incr t.tel.tel_urgent_decommissions;
      Telemetry.Trace.event ~registry:t.tel.tel_registry ~level:Logs.Info
        "mdisk_decommission"
        [
          ("mdisk", string_of_int victim.Minidisk.id);
          ("urgent", string_of_bool urgent);
        ];
      if t.config.decommission_grace && not urgent then begin
        ignore (Minidisk.Registry.begin_drain t.registry victim.Minidisk.id);
        Hashtbl.replace t.tel.drain_started victim.Minidisk.id
          (Ftl.Engine.host_writes t.engine);
        Events.Queue.push t.events
          (Events.Mdisk_retiring
             { id = victim.Minidisk.id; opages = victim.Minidisk.opages })
      end
      else begin
        discard_mdisk_lbas t victim;
        ignore (Minidisk.Registry.decommission t.registry victim.Minidisk.id);
        Events.Queue.push t.events
          (Events.Mdisk_decommissioned
             { id = victim.Minidisk.id; lost_opages = live })
      end;
      refresh_export_gauges t;
      announce_death_if_empty t;
      true

let dominant_tired_level t =
  (* Reported level of a regenerated minidisk: the highest usable level
     holding pages (the capacity that regeneration just unlocked). *)
  let census = t.limbo in
  let rec scan level best =
    if level > Tiredness.max_level t.profile then best
    else
      let best = if Limbo.count census ~level > 0 then level else best in
      scan (level + 1) best
  in
  scan 0 0

let check_capacity t =
  (* Eq. 2: shrink while physical slots cannot cover exported LBAs. *)
  let deficit () =
    Limbo.capacity_deficit t.limbo
      ~lbas:(Minidisk.Registry.active_opages t.registry)
      ~headroom:decommission_headroom
  in
  let continue = ref (deficit () > 0) in
  while (not t.dead) && !continue do
    if decommission_one t then continue := deficit () > 0
    else continue := false
  done;
  (* §3.4: regenerate when tired pages accumulate enough slack for a whole
     new minidisk (RegenS only), with hysteresis above the shrink
     threshold. *)
  if (not t.dead) && t.config.mode = Regen_s then begin
    let slack_for_one_more () =
      float_of_int (Limbo.total_data_opages t.limbo)
      >= regen_headroom
         *. float_of_int
              (Minidisk.Registry.active_opages t.registry
              + t.config.mdisk_opages)
    in
    let continue = ref (slack_for_one_more ()) in
    while !continue do
      match
        Minidisk.Registry.create_mdisk t.registry
          ~birth_level:(dominant_tired_level t)
      with
      | None -> continue := false
      | Some mdisk ->
          Telemetry.Registry.bump t.tel.regenerations;
          Telemetry.Trace.event ~registry:t.tel.tel_registry ~level:Logs.Info
            "mdisk_regenerated"
            [
              ("mdisk", string_of_int mdisk.Minidisk.id);
              ("level", string_of_int mdisk.Minidisk.birth_level);
            ];
          Events.Queue.push t.events
            (Events.Mdisk_created
               {
                 id = mdisk.Minidisk.id;
                 opages = mdisk.Minidisk.opages;
                 level = mdisk.Minidisk.birth_level;
               });
          continue := slack_for_one_more ()
    done;
    refresh_export_gauges t
  end

let maintain t =
  if !(t.pending_check) && not t.dead then begin
    t.pending_check := false;
    check_capacity t
  end

(* --- I/O ----------------------------------------------------------------- *)

(* Eq. 2 normally shrinks the device before space truly runs out, but a
   garbage-collection cascade can retire many blocks within a single
   host write.  Keep decommissioning until the write fits or nothing is
   left to give up.  Shared by the per-op write path and the bulk-aging
   stream wrapper, so both recover identically. *)
let recover_no_space t ~(mdisk : Minidisk.t) ~logical ~payload =
  let rec recover () =
    if t.dead then Error `No_space
    else if not (decommission_one ~urgent:true t) then begin
      t.dead <- true;
      Error `No_space
    end
    else if mdisk.Minidisk.state <> Minidisk.Active then
      (* the victim was this write's own minidisk *)
      Error `Unknown_mdisk
    else
      match Ftl.Engine.write t.engine ~logical ~payload with
      | Ok () ->
          maintain t;
          Ok ()
      | Error `No_space -> recover ()
  in
  recover ()

(* The engine-side halves of [write] and [read], shared with the flat
   adapter, which translates through the registry's view instead of
   looking the minidisk up by id. *)
let write_logical t ~mdisk ~logical ~payload =
  match Ftl.Engine.write t.engine ~logical ~payload with
  | Ok () ->
      maintain t;
      Ok ()
  | Error `No_space -> recover_no_space t ~mdisk ~logical ~payload

let read_logical t ~logical =
  match Ftl.Engine.read t.engine ~logical with
  | Error `Uncorrectable as e ->
      (* Attribute the residual-UBER event to the failing page's
         tiredness level (error path, so the lookup is free in
         aggregate). *)
      (match Ftl.Engine.locate t.engine ~logical with
      | Some { Ftl.Location.block; page; _ } ->
          Telemetry.Registry.Counter.incr
            t.tel.tel_uncorrectable.(t.levels.(page_index t.geometry ~block
                                                 ~page))
      | None -> ());
      e
  | result -> result

(* Writes and trims take only [Active] minidisks; reads also take
   [Draining] ones: the grace period exists precisely so the diFS can
   still read the retiring data.  The registry never replaces a record,
   so a caller holding one sees every state change. *)
let write_mdisk t (m : Minidisk.t) ~lba ~payload =
  if t.dead then Error `Dead
  else if m.Minidisk.state <> Minidisk.Active then Error `Unknown_mdisk
  else
    write_logical t ~mdisk:m
      ~logical:(Minidisk.Registry.engine_logical t.registry m ~lba)
      ~payload

let read_mdisk t (m : Minidisk.t) ~lba =
  if t.dead then Error `Dead
  else
    match m.Minidisk.state with
    | Minidisk.Decommissioned -> Error `Unknown_mdisk
    | Minidisk.Active | Minidisk.Draining ->
        (read_logical t
           ~logical:(Minidisk.Registry.engine_logical t.registry m ~lba)
          :> (int, read_error) result)

let trim_mdisk t (m : Minidisk.t) ~lba =
  if (not t.dead) && m.Minidisk.state = Minidisk.Active then
    Ftl.Engine.discard t.engine
      ~logical:(Minidisk.Registry.engine_logical t.registry m ~lba)

(* The id-keyed calls look the record up and delegate; an unknown id
   fails like a decommissioned one, after the death check. *)
let write t ~mdisk ~lba ~payload =
  match Minidisk.Registry.find t.registry mdisk with
  | Some m -> write_mdisk t m ~lba ~payload
  | None -> if t.dead then Error `Dead else Error `Unknown_mdisk

let read t ~mdisk ~lba =
  match Minidisk.Registry.find t.registry mdisk with
  | Some m -> read_mdisk t m ~lba
  | None -> if t.dead then Error `Dead else Error `Unknown_mdisk

let trim t ~mdisk ~lba =
  match Minidisk.Registry.find t.registry mdisk with
  | Some m -> trim_mdisk t m ~lba
  | None -> ()

(* Engine logicals are slot-addressed; the view's owner table maps one
   back to the minidisk holding that slot.  Draining minidisks still own
   their slot — their reads can escalate into live repair like any
   other. *)
let set_recovery_hook t ?config hook =
  Ftl.Engine.set_recovery_hook t.engine ?config
    (Option.map
       (fun f ~logical ->
         let per = t.config.mdisk_opages in
         match (Minidisk.Registry.view t.registry).owner.(logical / per) with
         | None -> None
         | Some m -> f ~mdisk:m.Minidisk.id ~lba:(logical mod per))
       hook)

let acknowledge_decommission t ~mdisk =
  if not t.dead then
    match Minidisk.Registry.find t.registry mdisk with
    | Some m when m.Minidisk.state = Minidisk.Draining ->
        finish_drain t m;
        maintain t
    | Some _ | None -> ()

let flush t =
  if not t.dead then begin
    (match Ftl.Engine.flush t.engine with Ok () -> () | Error `No_space -> ());
    maintain t
  end

let poll_events t = Events.Queue.drain t.events

(* --- state --------------------------------------------------------------- *)

let alive t = not t.dead
let mode t = t.config.mode
let config t = t.config
let profile t = t.profile
let engine t = t.engine
let limbo t = t.limbo
let registry t = t.registry
let active_mdisks t = Minidisk.Registry.active t.registry
let active_opages t = Minidisk.Registry.active_opages t.registry
let total_data_opages t = Limbo.total_data_opages t.limbo

let level_of_page t ~block ~page =
  t.levels.(page_index t.geometry ~block ~page)

let level_census t =
  let census = Array.make (Tiredness.dead_level t.profile + 1) 0 in
  Array.iter (fun level -> census.(level) <- census.(level) + 1) t.levels;
  census

let force_page_level t ~block ~page ~level =
  let index = page_index t.geometry ~block ~page in
  let current = t.levels.(index) in
  if level <= current || level > Tiredness.dead_level t.profile then
    invalid_arg "Device.force_page_level: level must increase within range";
  Ftl.Engine.relocate_page t.engine ~block ~page;
  transition_with t.limbo t.tel ~from_level:current ~to_level:level;
  t.levels.(index) <- level;
  t.pending_check := true;
  maintain t

let decommissions t = t.tel.decommissions.n
let regenerations t = t.tel.regenerations.n
let host_writes t = Ftl.Engine.host_writes t.engine
let write_amplification t = Ftl.Engine.write_amplification t.engine

(* --- flat adapter ---------------------------------------------------------- *)

module As_device = struct
  type nonrec t = t

  let label t =
    match t.config.mode with Shrink_s -> "shrinks" | Regen_s -> "regens"

  (* Flat LBA [lba] is position [lba / per] of the view's active array,
     which holds the live minidisks in id order. *)
  let write t ~lba ~payload =
    let v = Minidisk.Registry.view t.registry in
    let per = t.config.mdisk_opages in
    if t.dead then Error `Dead
    else if lba < 0 || lba >= Array.length v.active * per then
      Error `Out_of_range
    else
      let i = lba / per in
      match
        write_logical t ~mdisk:v.active.(i)
          ~logical:(v.base.(i) + (lba mod per))
          ~payload
      with
      | Ok () -> Ok ()
      | Error `No_space as e -> e
      | Error `Unknown_mdisk -> Error `Out_of_range

  (* Bulk segments between maintenance points.  The view only moves when
     maintenance decommissions or regenerates, and maintenance only runs
     after erases, so one view serves a whole no-erase segment.
     [Stream_erased] re-enters [maintain] at the same point the per-op
     path would (right after the triggering write), and the next segment
     reads whatever view maintenance left.  A [`No_space] replays the
     exact per-op recovery ([recover_no_space], including its host-write
     re-count on retry) before resuming.  Budget before death, matching
     the per-op loop's stop-then-alive order. *)
  let write_stream t ~rng ~window ~payload_base ~budget =
    if not (Ftl.Engine.stream_capable t.engine) then
      {
        Ftl.Device_intf.accepted = 0;
        status = Ftl.Device_intf.Stream_unsupported;
      }
    else
      let per = t.config.mdisk_opages in
      let rec go accepted =
        if accepted >= budget then
          { Ftl.Device_intf.accepted; status = Ftl.Device_intf.Stream_filled }
        else if t.dead then
          { Ftl.Device_intf.accepted; status = Ftl.Device_intf.Stream_dead }
        else begin
          let v = Minidisk.Registry.view t.registry in
          let base = v.base in
          let limit = Array.length base * per in
          let translate lba =
            let i = lba / per in
            base.(i) + (lba - (i * per))
          in
          let n, stop =
            Ftl.Engine.write_stream t.engine ~rng ~window ~limit ~translate
              ~payload_base:(payload_base + accepted)
              ~budget:(budget - accepted)
          in
          let accepted = accepted + n in
          match stop with
          | Ftl.Engine.Stream_budget ->
              {
                Ftl.Device_intf.accepted;
                status = Ftl.Device_intf.Stream_filled;
              }
          | Ftl.Engine.Stream_out_of_window ->
              {
                Ftl.Device_intf.accepted;
                status = Ftl.Device_intf.Stream_resync;
              }
          | Ftl.Engine.Stream_erased ->
              maintain t;
              go accepted
          | Ftl.Engine.Stream_no_space lba -> (
              match
                recover_no_space t ~mdisk:v.active.(lba / per)
                  ~logical:(translate lba)
                  ~payload:(payload_base + accepted)
              with
              | Ok () -> go (accepted + 1)
              | Error `Unknown_mdisk ->
                  {
                    Ftl.Device_intf.accepted;
                    status = Ftl.Device_intf.Stream_resync;
                  }
              | Error `No_space ->
                  {
                    Ftl.Device_intf.accepted;
                    status = Ftl.Device_intf.Stream_dead;
                  })
        end
      in
      go 0

  let read t ~lba =
    let v = Minidisk.Registry.view t.registry in
    let per = t.config.mdisk_opages in
    if t.dead then Error `Dead
    else if lba < 0 || lba >= Array.length v.active * per then
      Error `Out_of_range
    else
      (read_logical t ~logical:(v.base.(lba / per) + (lba mod per))
        :> (int, Ftl.Device_intf.read_error) result)

  let trim t ~lba =
    let v = Minidisk.Registry.view t.registry in
    let per = t.config.mdisk_opages in
    if (not t.dead) && lba >= 0 && lba < Array.length v.active * per then
      Ftl.Engine.discard t.engine ~logical:(v.base.(lba / per) + (lba mod per))

  let alive = alive
  let logical_capacity t = if t.dead then 0 else active_opages t
  let initial_capacity t = t.initial_mdisks * t.config.mdisk_opages
  let host_writes = host_writes
  let write_amplification = write_amplification

  let bg_stats t = Ftl.Device_intf.engine_bg_stats t.engine

  let wear_stats t =
    Ftl.Device_intf.engine_wear_stats t.engine
      ~tolerable_rber:
        (Tiredness.info t.profile (Tiredness.max_level t.profile))
          .Tiredness.tolerable_rber

  let set_recovery_hook t ?config hook =
    (* reverse of [read]: engine logical -> slot -> position in the
       active array -> flat LBA (draining minidisks are not addressable
       through the flat adapter, so their escalations find no owner) *)
    Ftl.Engine.set_recovery_hook t.engine ?config
      (Option.map
         (fun f ~logical ->
           let per = t.config.mdisk_opages in
           let v = Minidisk.Registry.view t.registry in
           let i = v.position.(logical / per) in
           if i < 0 then None else f ~lba:((i * per) + (logical mod per)))
         hook)
end

let pack t = Ftl.Device_intf.Packed ((module As_device), t)
