type backend = Target.backend =
  | Monolithic of Ftl.Device_intf.packed
  | Salamander of Salamander.Device.t

type placement = Spread_devices | Spread_targets

type redundancy =
  | Replication of int
  | Erasure of { data_shares : int; parity_shares : int }

type config = {
  redundancy : redundancy;
  chunk_opages : int;
  placement : placement;
}

let default_config =
  { redundancy = Replication 3; chunk_opages = 16; placement = Spread_devices }

let default_ec_config =
  {
    redundancy = Erasure { data_shares = 4; parity_shares = 2 };
    chunk_opages = 16;
    placement = Spread_devices;
  }

type count = Telemetry.Registry.count

let bump = Telemetry.Registry.bump

(* Event counts and telemetry handles bound at cluster creation.  The
   degraded/live-target gauges are refreshed after every event sweep;
   [degraded_chunk_rounds] integrates the degraded census over
   event-processing rounds — the discrete-time analogue of
   under-replicated chunk-seconds.  It and [scrub_repair_failures] are
   registry-only: no accessor reads them. *)
type tel = {
  registry : Telemetry.Registry.t;
  recovery_written : count;
  recovery_read : count;
  recovery_events : count;
  rebuilt : count;
  lost : count;
  unrecoverable : count;
  degraded : Telemetry.Registry.Gauge.t;
  degraded_chunk_rounds : Telemetry.Registry.Counter.t;
  live_targets : Telemetry.Registry.Gauge.t;
  kill_ignored : count;
  rebuild_aborts : count;
  scrub_sweeps : count;
  scrub_mismatches : count;
  scrub_repairs : count;
  scrub_repair_failures : Telemetry.Registry.Counter.t;
  live_repair_attempts : count;
  live_repair_successes : count;
  live_repair_replica_reads : count;
  live_repair_rewritten : count;
  live_repair_failures : count;
  corrupt_served : count;
  corrupt_with_replica : count;
}

let make_tel registry =
  let counter name help = Telemetry.Registry.counter registry ~help name in
  let count name help = Telemetry.Registry.count registry ~help name in
  {
    registry;
    recovery_written =
      count "difs_recovery_write_opages_total"
        "oPages written by failure recovery (re-replication volume)";
    recovery_read =
      count "difs_recovery_read_opages_total"
        "oPages read to feed recovery (EC repair amplification)";
    recovery_events =
      count "difs_recovery_events_total" "Target failures handled";
    rebuilt =
      count "difs_rebuilt_shares_total"
        "Shares re-materialized on a fresh target";
    lost =
      count "difs_lost_chunks_total" "Chunks that fell below the read quorum";
    unrecoverable =
      count "difs_unrecoverable_opages_total"
        "oPages recovery could not reconstruct";
    degraded =
      Telemetry.Registry.gauge registry
        ~help:"Chunks currently below full redundancy but readable"
        "difs_degraded_chunks";
    degraded_chunk_rounds =
      counter "difs_degraded_chunk_rounds_total"
        "Degraded-chunk census summed over event-processing rounds \
         (under-replication exposure)";
    live_targets =
      Telemetry.Registry.gauge registry ~help:"Active placement targets"
        "difs_live_targets";
    kill_ignored =
      count "difs_kill_ignored_total"
        "kill_device calls ignored (double-kill, unknown device, or \
         kill during recovery)";
    rebuild_aborts =
      count "difs_rebuild_aborts_total"
        "Share rebuilds abandoned because the destination died mid-copy";
    scrub_sweeps = count "difs_scrub_sweeps_total" "Scrub sweeps run";
    scrub_mismatches =
      count "difs_scrub_mismatches_total"
        "oPages whose content failed scrub verification";
    scrub_repairs =
      count "difs_scrub_repairs_total"
        "Scrub repairs (in-place rewrites + share rebuilds)";
    scrub_repair_failures =
      counter "difs_scrub_repair_failures_total"
        "Unreadable shares the scrubber could not rebuild";
    live_repair_attempts =
      count "difs_live_repair_attempts_total"
        "Foreground (read-path) repair attempts";
    live_repair_successes =
      count "difs_live_repair_successes_total"
        "Foreground repairs that reconstructed the oPage from a healthy \
         replica or EC quorum";
    live_repair_replica_reads =
      count "difs_live_repair_replica_reads_total"
        "Replica/share reads consumed by foreground repair";
    live_repair_rewritten =
      count "difs_live_repair_rewritten_opages_total"
        "oPages rewritten in place through the normal FTL write path by \
         foreground repair";
    live_repair_failures =
      count "difs_live_repair_failures_total"
        "Foreground repairs that degraded to the unrecoverable outcome \
         (no healthy share, or no owning chunk)";
    corrupt_served =
      count "difs_corrupt_reads_served_total"
        "Corrupt oPages handed to a reader (degraded service: no healthy \
         replica existed)";
    corrupt_with_replica =
      count "difs_corrupt_reads_with_replica_total"
        "Corrupt oPages handed to a reader while a healthy replica \
         existed (the live-repair invariant: must stay 0)";
  }

module Ids = Set.Make (Int)

type t = {
  config : config;
  coder : Ecc.Reed_solomon.t option; (* Some for erasure coding *)
  devices : (int, Target.device) Hashtbl.t;
  targets : (Target.key, Target.t) Hashtbl.t;
  chunks : (int, Chunk.t) Hashtbl.t;
  mutable ids : Ids.t; (* the keys of [chunks], in the scrubber's order *)
  tel : tel;
  mutable next_device : int;
  mutable in_recovery : bool;
  mutable in_live_repair : bool;
      (* reentrancy guard: replica reads issued by a live repair can
         themselves escalate; the nested escalation must degrade (so the
         outer repair just moves to the next share) instead of recursing *)
  mutable scrub_cursor : int;
}

let create ?(config = default_config) ?registry () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.null
  in
  if config.chunk_opages <= 0 then invalid_arg "Cluster.create: chunk_opages";
  let coder =
    match config.redundancy with
    | Replication n ->
        if n <= 0 then invalid_arg "Cluster.create: replication must be > 0";
        None
    | Erasure { data_shares; parity_shares } ->
        if config.chunk_opages mod data_shares <> 0 then
          invalid_arg
            "Cluster.create: chunk_opages must be divisible by data_shares";
        Some (Ecc.Reed_solomon.create ~data_shares ~parity_shares)
  in
  {
    config;
    coder;
    devices = Hashtbl.create 16;
    targets = Hashtbl.create 64;
    chunks = Hashtbl.create 256;
    ids = Ids.empty;
    tel = make_tel registry;
    next_device = 0;
    in_recovery = false;
    in_live_repair = false;
    scrub_cursor = -1;
  }

let config t = t.config

(* Recovery spans (failure handling, drains, truncations, repair, scrub)
   mark the cluster busy so [kill_device] cannot fire while share
   bookkeeping is mid-flight — see the kill-ignored semantics in the
   interface. *)
let with_recovery t f =
  if t.in_recovery then f ()
  else begin
    t.in_recovery <- true;
    Fun.protect ~finally:(fun () -> t.in_recovery <- false) f
  end

let total_shares t =
  match t.config.redundancy with
  | Replication n -> n
  | Erasure { data_shares; parity_shares } -> data_shares + parity_shares

let read_quorum t =
  match t.config.redundancy with
  | Replication _ -> 1
  | Erasure { data_shares; _ } -> data_shares

let share_opages t =
  match t.config.redundancy with
  | Replication _ -> t.config.chunk_opages
  | Erasure { data_shares; _ } -> t.config.chunk_opages / data_shares

let storage_overhead t =
  float_of_int (total_shares t * share_opages t)
  /. float_of_int t.config.chunk_opages

(* --- expected share contents --------------------------------------------- *)

(* What share [index] of the chunk must contain at [offset] (an offset
   within the share): replication copies the chunk verbatim; erasure data
   shares hold slices, parity shares the Reed-Solomon combination. *)
let expected_payload t (chunk : Chunk.t) ~index ~offset =
  match t.config.redundancy with
  | Replication _ -> Chunk.data_payload chunk ~offset
  | Erasure { data_shares; _ } ->
      let per_share = share_opages t in
      if index < data_shares then
        Chunk.data_payload chunk ~offset:((index * per_share) + offset)
      else
        let coder = Option.get t.coder in
        let data =
          Array.init data_shares (fun i ->
              Chunk.payload_bytes
                (Chunk.data_payload chunk ~offset:((i * per_share) + offset)))
        in
        let parity = Ecc.Reed_solomon.encode coder data in
        Chunk.payload_of_bytes parity.(index - data_shares)

let add_target t device io ~capacity =
  let target =
    Target.create ~device io ~capacity ~chunk_opages:(share_opages t)
  in
  Hashtbl.replace t.targets target.Target.key target

let add_device t ~node backend =
  let id = t.next_device in
  t.next_device <- t.next_device + 1;
  let device = Target.device ~id ~node backend in
  Hashtbl.replace t.devices id device;
  (match backend with
  | Monolithic d ->
      add_target t device (Target.Whole d)
        ~capacity:(Ftl.Device_intf.logical_capacity d)
  | Salamander d ->
      List.iter
        (fun m ->
          add_target t device
            (Target.Mdisk { device = d; mdisk = m })
            ~capacity:m.Salamander.Minidisk.opages)
        (Salamander.Device.active_mdisks d));
  id

(* --- share walks ---------------------------------------------------------- *)

let share_key (share : Chunk.share) = share.Chunk.target.Target.key

(* Visit a share's oPages in order while [step offset] succeeds; [true]
   when every oPage passed.  The walk stops at its first failed I/O and
   never touches the oPages past it. *)
let walk_share t step =
  let n = share_opages t in
  let rec go offset = offset >= n || (step offset && go (offset + 1)) in
  go 0

(* Hand a share's range back to its target while the target is still
   active, trimming the stale mapping first; a failed target's ranges
   are gone with it. *)
let release_share t (share : Chunk.share) =
  let target = share.Chunk.target in
  if Target.is_active target then begin
    for offset = 0 to share_opages t - 1 do
      Target.trim target ~lba:(share.Chunk.base + offset)
    done;
    Target.release target share.Chunk.base
  end

(* Drop the chunk's share on [key], counting the chunk lost if this
   takes it below the read quorum. *)
let drop_share t chunk key =
  let quorum = read_quorum t in
  let before = List.length chunk.Chunk.shares in
  Chunk.drop_share chunk key;
  if before >= quorum && List.length chunk.Chunk.shares < quorum then begin
    bump t.tel.lost;
    Telemetry.Trace.event ~registry:t.tel.registry ~level:Logs.Warning
      "chunk_lost"
      [ ("chunk", string_of_int chunk.Chunk.id) ]
  end

(* --- placement ------------------------------------------------------------ *)

(* Least-loaded active target compatible with the placement policy. *)
let choose_target t chunk =
  let conflicts (target : Target.t) share =
    let key = share_key share in
    match t.config.placement with
    | Spread_devices -> key.Target.device = target.Target.key.Target.device
    | Spread_targets -> Target.key_equal key target.Target.key
  in
  let allowed target =
    Target.is_active target
    && Target.free_count target > 0
    && not (List.exists (conflicts target) chunk.Chunk.shares)
  in
  Hashtbl.fold
    (fun _ target best ->
      if not (allowed target) then best
      else
        match best with
        | Some b when Target.free_count b >= Target.free_count target -> best
        | _ -> Some target)
    t.targets None

(* --- rebuilding share contents from survivors ------------------------------ *)

(* The content of share [index] at [offset], recovered from whatever
   shares still answer.  Replication reads the same offset off any
   survivor; erasure coding gathers a read quorum and runs the RS
   decoder.  Every successful read is metered as recovery-read traffic
   when [metered]. *)
let recover_payload ?(metered = true) t chunk ~index ~offset =
  let meter () = if metered then bump t.tel.recovery_read in
  match t.config.redundancy with
  | Replication _ ->
      let rec go = function
        | [] -> None
        | share :: rest -> (
            match
              Target.read share.Chunk.target ~lba:(share.Chunk.base + offset)
            with
            | Ok payload ->
                meter ();
                Some payload
            | Error `Unreadable -> go rest)
      in
      go chunk.Chunk.shares
  | Erasure _ ->
      let coder = Option.get t.coder in
      let quorum = read_quorum t in
      (* A survivor holding the wanted index serves it with one read;
         otherwise gather exactly a quorum and decode — never more, since
         repair reads are the cost EC pays (k-fold amplification). *)
      let direct =
        List.find_opt (fun s -> s.Chunk.index = index) chunk.Chunk.shares
      in
      let read_share share =
        match
          Target.read share.Chunk.target ~lba:(share.Chunk.base + offset)
        with
        | Ok payload ->
            meter ();
            Some (share.Chunk.index, Chunk.payload_bytes payload)
        | Error `Unreadable -> None
      in
      let direct_value =
        Option.bind direct (fun share ->
            Option.map (fun (_, b) -> Chunk.payload_of_bytes b)
              (read_share share))
      in
      (match direct_value with
      | Some payload -> Some payload
      | None ->
          let rec gather acc = function
            | [] -> acc
            | _ when List.length acc >= quorum -> acc
            | share :: rest -> (
                match read_share share with
                | Some entry -> gather (entry :: acc) rest
                | None -> gather acc rest)
          in
          let readable =
            gather []
              (List.filter (fun s -> s.Chunk.index <> index) chunk.Chunk.shares)
          in
          if List.length readable < quorum then None
          else
            Some
              (Chunk.payload_of_bytes
                 (Ecc.Reed_solomon.reconstruct coder ~shares:readable index)))

(* --- foreground (read-path) live repair ----------------------------------- *)

(* A content-verified value for share [index] at [offset], derived from
   healthy shares only — unlike [recover_payload], a copy that answers
   with silently-corrupted data is not a source.  Replication accepts any
   surviving copy whose payload verifies; erasure coding accepts a
   verified direct read, falling back to a verified quorum of distinct
   other indices.  The verified shares pin the decode output to the
   oracle value, so that value is returned directly (the same in-place
   repair content the scrubber writes).  [exclude] drops the failing
   copy's target from consideration.  Reads are metered as live-repair
   replica reads. *)
let live_source ?exclude t chunk ~index ~offset =
  let expected = expected_payload t chunk ~index ~offset in
  let excluded (share : Chunk.share) =
    match exclude with
    | Some key -> Target.key_equal (share_key share) key
    | None -> false
  in
  let shares =
    List.sort
      (fun a b -> compare a.Chunk.index b.Chunk.index)
      (List.filter (fun s -> not (excluded s)) chunk.Chunk.shares)
  in
  let read_verified (share : Chunk.share) =
    match Target.read share.Chunk.target ~lba:(share.Chunk.base + offset) with
    | Ok payload ->
        bump t.tel.live_repair_replica_reads;
        payload = expected_payload t chunk ~index:share.Chunk.index ~offset
    | Error `Unreadable -> false
  in
  match t.config.redundancy with
  | Replication _ ->
      if List.exists read_verified shares then Some expected else None
  | Erasure _ ->
      let direct_ok =
        List.exists read_verified
          (List.filter (fun s -> s.Chunk.index = index) shares)
      in
      (* Otherwise verify a quorum of distinct other indices, reading no
         share past the one that completes it. *)
      let quorum = read_quorum t in
      let rec gather seen = function
        | [] -> false
        | (share : Chunk.share) :: rest ->
            let i = share.Chunk.index in
            if i <> index && (not (List.mem i seen)) && read_verified share
            then List.length seen + 1 >= quorum || gather (i :: seen) rest
            else gather seen rest
      in
      if direct_ok || gather [] shares then Some expected else None

(* Repair one oPage in the foreground: find a healthy source, rewrite the
   damaged copy through the normal FTL write path (so wear accounting and
   GC see the traffic), and return the repaired payload.  [None] means no
   healthy source existed — the caller degrades to serving what it has. *)
let repair_opage ?exclude ?rewrite t chunk ~index ~offset =
  bump t.tel.live_repair_attempts;
  match live_source ?exclude t chunk ~index ~offset with
  | None ->
      bump t.tel.live_repair_failures;
      None
  | Some payload ->
      bump t.tel.live_repair_successes;
      (match rewrite with
      | None -> ()
      | Some (target, lba) -> (
          match Target.write target ~lba ~payload with
          | Ok () -> bump t.tel.live_repair_rewritten
          | Error `Target_failed ->
              (* The data is already rescued; the dead rewrite target is
                 the event loop's problem. *)
              ()));
      Some payload

(* Book a corrupt oPage that is about to reach a reader.  [healthy] is
   whether a verified source existed at serve time: every serving path
   attempts repair first, so the with-replica counter moving means the
   live-repair invariant broke. *)
let serve_corrupt t ~healthy =
  bump t.tel.corrupt_served;
  if healthy then bump t.tel.corrupt_with_replica

(* Escalation entry point, invoked from a device's recovery hook when a
   read's retry ladder exhausts: locate the chunk owning the failing
   (target, LBA), reconstruct the oPage from healthy shares, rewrite the
   failing copy in place, and hand the payload back to the engine.  Runs
   as a recovery span so kills landing mid-repair stay counted no-ops;
   nested escalations (a replica read failing during the repair) degrade
   immediately via [in_live_repair]. *)
let recover_opage ?mdisk t ~device ~lba =
  if t.in_live_repair then None
  else begin
    t.in_live_repair <- true;
    Fun.protect
      ~finally:(fun () -> t.in_live_repair <- false)
      (fun () ->
        with_recovery t @@ fun () ->
        let key = { Target.device; mdisk } in
        let per_share = share_opages t in
        let owner =
          Hashtbl.fold
            (fun _ (chunk : Chunk.t) acc ->
              match acc with
              | Some _ -> acc
              | None ->
                  Option.map
                    (fun share -> (chunk, share))
                    (List.find_opt
                       (fun (s : Chunk.share) ->
                         Target.key_equal (share_key s) key
                         && s.Chunk.base <= lba
                         && lba < s.Chunk.base + per_share)
                       chunk.Chunk.shares))
            t.chunks None
        in
        match owner with
        | None ->
            (* Not cluster data (or the share was already dropped):
               nothing to repair from. *)
            bump t.tel.live_repair_attempts;
            bump t.tel.live_repair_failures;
            None
        | Some (chunk, share) ->
            repair_opage ~exclude:key ~rewrite:(share.Chunk.target, lba) t
              chunk ~index:share.Chunk.index
              ~offset:(lba - share.Chunk.base))
  end

(* Arm every device's engine-level recovery hook to escalate into
   [recover_opage].  From then on a read whose retry ladder exhausts is
   repaired from cluster redundancy before the host ever sees
   [`Uncorrectable]. *)
let enable_live_repair ?config t =
  Hashtbl.iter
    (fun id (device : Target.device) ->
      match device.Target.backend with
      | Monolithic d ->
          Ftl.Device_intf.set_recovery_hook d ?config
            (Some (fun ~lba -> recover_opage t ~device:id ~lba))
      | Salamander d ->
          Salamander.Device.set_recovery_hook d ?config
            (Some (fun ~mdisk ~lba -> recover_opage ~mdisk t ~device:id ~lba)))
    t.devices

(* Materialize share [index] on a fresh target, feeding it from
   survivors.  Returns [false] when no compatible target with space
   exists. *)
let rec rebuild_share t chunk ~index =
  match choose_target t chunk with
  | None -> false (* under-redundant until capacity appears *)
  | Some target -> (
      match Target.allocate target with
      | None -> false
      | Some base ->
          let written = ref 0 in
          let copied =
            walk_share t (fun offset ->
                match recover_payload t chunk ~index ~offset with
                | None ->
                    bump t.tel.unrecoverable;
                    true
                | Some payload -> (
                    let lba = base + offset in
                    match Target.write target ~lba ~payload with
                    | Ok () ->
                        incr written;
                        true
                    | Error `Target_failed -> false))
          in
          bump t.tel.recovery_written ~by:!written;
          if copied then begin
            Chunk.add_share chunk { Chunk.index; target; base };
            bump t.tel.rebuilt;
            true
          end
          else begin
            (* The destination died mid-copy; its own failure event will
               be picked up by the processing loop.  Try elsewhere. *)
            bump t.tel.rebuild_aborts;
            rebuild_share t chunk ~index
          end)

(* Bring one chunk back toward its full share count. *)
let ensure_redundancy t chunk =
  with_recovery t (fun () ->
      let rec go () =
        match Chunk.missing_indices chunk ~total:(total_shares t) with
        | [] -> true
        | index :: _ ->
            if List.length chunk.Chunk.shares < read_quorum t then false
            else if rebuild_share t chunk ~index then go ()
            else false
      in
      go ())

(* Fail the active target [key] as a recovery event and run [recover];
   unknown and already-failed targets are left alone. *)
let with_failed_target t key recover =
  match Hashtbl.find_opt t.targets key with
  | Some target when Target.is_active target ->
      with_recovery t @@ fun () ->
      Target.fail target;
      bump t.tel.recovery_events;
      recover ()
  | _ -> ()

let fail_target t key =
  with_failed_target t key @@ fun () ->
  let affected = ref [] in
  Hashtbl.iter
    (fun _ chunk ->
      if Option.is_some (Chunk.share_on chunk key) then begin
        drop_share t chunk key;
        affected := chunk :: !affected
      end)
    t.chunks;
  List.iter (fun chunk -> ignore (ensure_redundancy t chunk)) !affected

(* Grace-period retirement (§4.3): the target is leaving but its data is
   still readable, so rebuild every affected share *before* dropping the
   retiring copy, then acknowledge so the device reclaims the space.
   With enough cluster capacity no chunk ever dips below full
   redundancy. *)
let drain_target t key ~ack =
  (with_failed_target t key @@ fun () ->
   Hashtbl.iter
     (fun _ chunk ->
       match Chunk.share_on chunk key with
       | None -> ()
       | Some retiring ->
           (* Rebuild the replacement while the retiring share is still
              listed: recovery may read from it, and its device stays
              excluded from placement.  The duplicate index resolves when
              the retiring copy is dropped below. *)
           ignore (rebuild_share t chunk ~index:retiring.Chunk.index);
           drop_share t chunk key)
     t.chunks);
  ack ()

let fail_device_targets t device_id =
  let keys =
    Hashtbl.fold
      (fun (key : Target.key) target acc ->
        if key.Target.device = device_id && Target.is_active target then
          key :: acc
        else acc)
      t.targets []
  in
  List.iter (fail_target t) keys

let handle_truncation t (device : Target.device) capacity =
  let key = { Target.device = device.Target.id; mdisk = None } in
  match Hashtbl.find_opt t.targets key with
  | None -> ()
  | Some target ->
      with_recovery t @@ fun () ->
      let lost_ranges = Target.truncate target ~capacity in
      if lost_ranges <> [] then begin
        bump t.tel.recovery_events;
        Hashtbl.iter
          (fun _ chunk ->
            match Chunk.share_on chunk key with
            | Some share when List.mem share.Chunk.base lost_ranges ->
                drop_share t chunk key;
                ignore (ensure_redundancy t chunk)
            | _ -> ())
          t.chunks
      end

let process_device_events t (device : Target.device) =
  let progress = ref false in
  let mdisk_key id = { Target.device = device.Target.id; mdisk = Some id } in
  (if device.Target.killed then ()
   else
     match device.Target.backend with
     | Salamander d ->
         List.iter
           (fun event ->
             progress := true;
             match event with
             | Salamander.Events.Mdisk_retiring { id; _ } ->
                 drain_target t (mdisk_key id) ~ack:(fun () ->
                     Salamander.Device.acknowledge_decommission d ~mdisk:id)
             | Salamander.Events.Mdisk_decommissioned { id; _ } ->
                 fail_target t (mdisk_key id)
             | Salamander.Events.Mdisk_created { id; opages; _ } ->
                 (* The registry keeps every record it ever created, so
                    the new minidisk's is there even if it has already
                    retired again. *)
                 let mdisk =
                   Option.get
                     (Salamander.Minidisk.Registry.find
                        (Salamander.Device.registry d) id)
                 in
                 add_target t device
                   (Target.Mdisk { device = d; mdisk })
                   ~capacity:opages
             | Salamander.Events.Device_failed ->
                 fail_device_targets t device.Target.id)
           (Salamander.Device.poll_events d)
     | Monolithic d ->
         if device.Target.alive_seen && not (Ftl.Device_intf.alive d)
         then begin
           device.Target.alive_seen <- false;
           progress := true;
           fail_device_targets t device.Target.id
         end
         else if device.Target.alive_seen then begin
           let capacity = Ftl.Device_intf.logical_capacity d in
           if capacity < device.Target.capacity_seen then begin
             progress := true;
             handle_truncation t device capacity;
             device.Target.capacity_seen <- capacity
           end
         end);
  !progress

(* A kill only proceeds against a known, live device while no recovery
   span is active; everything else is counted and ignored rather than
   left to silently diverge (double-kills used to re-fail targets,
   kills under recovery could interleave with share bookkeeping). *)
let kill_device t id =
  match Hashtbl.find_opt t.devices id with
  | Some device when not (device.Target.killed || t.in_recovery) ->
      device.Target.killed <- true;
      fail_device_targets t id
  | _ -> bump t.tel.kill_ignored

let is_device_killed t id =
  match Hashtbl.find_opt t.devices id with
  | None -> false
  | Some device -> device.Target.killed

(* Poll every device for failures and new minidisks and run recovery to
   a fixed point: handling one failure can wear flash into the next. *)
let process_events t =
  let progress = ref true in
  let rounds = ref 0 in
  let any_progress = ref false in
  while !progress && !rounds < 1000 do
    incr rounds;
    progress := false;
    Hashtbl.iter
      (fun _ device ->
        if process_device_events t device then progress := true)
      t.devices;
    if !progress then any_progress := true
  done;
  (* Refresh the redundancy census only when this sweep actually handled
     events, so idle polls stay O(1) even with telemetry enabled. *)
  if !any_progress && Telemetry.Registry.Gauge.is_active t.tel.degraded
  then begin
    let degraded = ref 0 in
    Hashtbl.iter
      (fun _ chunk ->
        let n = List.length chunk.Chunk.shares in
        if n < total_shares t && n >= read_quorum t then incr degraded)
      t.chunks;
    Telemetry.Registry.Gauge.set t.tel.degraded (float_of_int !degraded);
    Telemetry.Registry.Counter.incr t.tel.degraded_chunk_rounds
      ~by:!degraded;
    let live = ref 0 in
    Hashtbl.iter
      (fun _ target -> if Target.is_active target then incr live)
      t.targets;
    Telemetry.Registry.Gauge.set t.tel.live_targets (float_of_int !live)
  end

(* --- client operations ------------------------------------------------------ *)

type io_error = [ `No_capacity | `Unknown_chunk | `Insufficient_shares ]

let write_share t chunk (share : Chunk.share) =
  walk_share t (fun offset ->
      let payload =
        expected_payload t chunk ~index:share.Chunk.index ~offset
      in
      Result.is_ok
        (Target.write share.Chunk.target ~lba:(share.Chunk.base + offset)
           ~payload))

let write_chunk t id =
  let chunk =
    match Hashtbl.find_opt t.chunks id with
    | Some c -> c
    | None ->
        let c = Chunk.create ~id ~opages:t.config.chunk_opages in
        Hashtbl.replace t.chunks id c;
        t.ids <- Ids.add id t.ids;
        c
  in
  chunk.Chunk.version <- chunk.Chunk.version + 1;
  (* Place missing shares first (fresh chunk, or after losses). *)
  let rec place () =
    match Chunk.missing_indices chunk ~total:(total_shares t) with
    | [] -> ()
    | index :: _ -> (
        match choose_target t chunk with
        | None -> ()
        | Some target -> (
            match Target.allocate target with
            | None -> ()
            | Some base ->
                Chunk.add_share chunk { Chunk.index; target; base };
                place ()))
  in
  place ();
  if List.length chunk.Chunk.shares < read_quorum t then Error `No_capacity
  else begin
    (* Overwrite every share with the new version; drop the ones whose
       target died under us. *)
    let survivors =
      List.filter (fun share -> write_share t chunk share) chunk.Chunk.shares
    in
    chunk.Chunk.shares <- survivors;
    process_events t;
    ignore (ensure_redundancy t chunk);
    if List.length chunk.Chunk.shares < read_quorum t then
      Error `Insufficient_shares
    else Ok ()
  end

let read_chunk t id =
  match Hashtbl.find_opt t.chunks id with
  | None -> Error `Unknown_chunk
  | Some chunk -> (
      match t.config.redundancy with
      | Replication _ ->
          let rec try_shares = function
            | [] -> Error `Insufficient_shares
            | (share : Chunk.share) :: rest ->
                let matches = ref 0 in
                let readable =
                  walk_share t (fun offset ->
                      let lba = share.Chunk.base + offset in
                      match Target.read share.Chunk.target ~lba with
                      | Error `Unreadable -> false
                      | Ok payload ->
                          (if
                             payload
                             = expected_payload t chunk
                                 ~index:share.Chunk.index ~offset
                           then incr matches
                           else
                             (* Silent corruption caught on the read path:
                                repair from a healthy replica and serve the
                                verified content (Tai et al.'s live
                                recovery) — corrupt data reaches the reader
                                only when no healthy copy exists. *)
                             match
                               repair_opage ~exclude:(share_key share)
                                 ~rewrite:(share.Chunk.target, lba) t chunk
                                 ~index:share.Chunk.index ~offset
                             with
                             | Some _ -> incr matches
                             | None -> serve_corrupt t ~healthy:false);
                          true)
                in
                if readable then Ok !matches else try_shares rest
          in
          try_shares chunk.Chunk.shares
      | Erasure { data_shares; _ } ->
          (* Verify the chunk's data: present data shares read directly,
             missing ones reconstruct through the decoder. *)
          let per_share = share_opages t in
          let matches = ref 0 in
          let short = ref false in
          for index = 0 to data_shares - 1 do
            for offset = 0 to per_share - 1 do
              match recover_payload ~metered:false t chunk ~index ~offset with
              | None -> short := true
              | Some payload ->
                  if payload = expected_payload t chunk ~index ~offset then
                    incr matches
                  else begin
                    (* The direct share (or a quorum member feeding the
                       decode) is silently corrupt.  Re-derive the value
                       from verified shares only; rewrite the direct copy
                       in place when one exists and serve the verified
                       content. *)
                    let rewrite =
                      Option.map
                        (fun (s : Chunk.share) ->
                          (s.Chunk.target, s.Chunk.base + offset))
                        (List.find_opt
                           (fun (s : Chunk.share) -> s.Chunk.index = index)
                           chunk.Chunk.shares)
                    in
                    match repair_opage ?rewrite t chunk ~index ~offset with
                    | Some _ -> incr matches
                    | None -> serve_corrupt t ~healthy:false
                  end
            done
          done;
          if !short then Error `Insufficient_shares else Ok !matches)

let delete_chunk t id =
  match Hashtbl.find_opt t.chunks id with
  | None -> ()
  | Some chunk ->
      List.iter (release_share t) chunk.Chunk.shares;
      Hashtbl.remove t.chunks id;
      t.ids <- Ids.remove id t.ids

let repair t =
  with_recovery t @@ fun () ->
  process_events t;
  Hashtbl.iter (fun _ chunk -> ignore (ensure_redundancy t chunk)) t.chunks;
  process_events t

(* --- background scrubber --------------------------------------------------- *)

type scrub_report = {
  mutable chunks_scanned : int;
  mutable opages_verified : int;
  mutable mismatches : int;
  mutable unreadable_shares : int;
  mutable repairs : int;
  mutable repair_failures : int;
  mutable skipped_backoff : int;
}

(* One backoff step never exceeds this many sweeps. *)
let scrub_backoff_cap = 64

(* Verify one chunk share-by-share in index order, tallying into the
   sweep's [report].  Content mismatches on a live target are repaired
   in place (the payload is recomputable from the chunk's identity); a
   share that stops answering — or dies under the repair write — is
   dropped and rebuilt from survivors like any failed share.  Returns
   whether every needed repair landed. *)
let scrub_chunk t report chunk =
  report.chunks_scanned <- report.chunks_scanned + 1;
  let failures = report.repair_failures in
  let repaired () =
    report.repairs <- report.repairs + 1;
    bump t.tel.scrub_repairs
  in
  let scrub_share (share : Chunk.share) =
    walk_share t (fun offset ->
        let expected =
          expected_payload t chunk ~index:share.Chunk.index ~offset
        in
        let lba = share.Chunk.base + offset in
        match Target.read share.Chunk.target ~lba with
        | Error `Unreadable -> false
        | Ok payload when payload = expected ->
            report.opages_verified <- report.opages_verified + 1;
            true
        | Ok _ -> (
            report.opages_verified <- report.opages_verified + 1;
            report.mismatches <- report.mismatches + 1;
            bump t.tel.scrub_mismatches;
            match Target.write share.Chunk.target ~lba ~payload:expected with
            | Ok () ->
                repaired ();
                true
            | Error `Target_failed -> false))
  in
  let dead =
    List.filter
      (fun share -> not (scrub_share share))
      (List.sort
         (fun a b -> compare a.Chunk.index b.Chunk.index)
         chunk.Chunk.shares)
  in
  List.iter
    (fun (share : Chunk.share) ->
      (* Unlike the target-failure paths, the share's target is still
         alive here — hand its range back or the allocation leaks. *)
      report.unreadable_shares <- report.unreadable_shares + 1;
      release_share t share;
      drop_share t chunk (share_key share);
      if rebuild_share t chunk ~index:share.Chunk.index then repaired ()
      else begin
        report.repair_failures <- report.repair_failures + 1;
        Telemetry.Registry.Counter.incr t.tel.scrub_repair_failures
      end)
    dead;
  report.repair_failures = failures

let scrub ?limit t =
  with_recovery t @@ fun () ->
  (* Settle pending failure events first so the sweep verifies the
     post-recovery state, not a target mid-death. *)
  process_events t;
  bump t.tel.scrub_sweeps;
  let sweep = t.tel.scrub_sweeps.n in
  (* Resume after the cursor so a [limit]ed scrubber still covers every
     chunk across consecutive sweeps (deterministic round-robin): the
     ids past the cursor, then the rest, each in increasing order. *)
  let below, at, above = Ids.split t.scrub_cursor t.ids in
  let upto = if at then Ids.add t.scrub_cursor below else below in
  let ordered = Seq.append (Ids.to_seq above) (Ids.to_seq upto) in
  let scan =
    match limit with
    | None -> List.of_seq ordered
    | Some n ->
        if n < 0 then invalid_arg "Cluster.scrub: negative limit";
        List.of_seq (Seq.take n ordered)
  in
  (match (limit, List.rev scan) with
  | None, _ | _, [] -> t.scrub_cursor <- -1
  | Some _, last :: _ -> t.scrub_cursor <- last);
  let report =
    {
      chunks_scanned = 0;
      opages_verified = 0;
      mismatches = 0;
      unreadable_shares = 0;
      repairs = 0;
      repair_failures = 0;
      skipped_backoff = 0;
    }
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.chunks id with
      | None -> ()
      | Some chunk when sweep < chunk.Chunk.scrub_next ->
          report.skipped_backoff <- report.skipped_backoff + 1
      | Some chunk ->
          (* Exponential backoff: a chunk that cannot be repaired (no
             capacity, too few survivors) must not eat every sweep. *)
          if scrub_chunk t report chunk then begin
            chunk.Chunk.scrub_failures <- 0;
            chunk.Chunk.scrub_next <- 0
          end
          else begin
            let fails = chunk.Chunk.scrub_failures + 1 in
            chunk.Chunk.scrub_failures <- fails;
            chunk.Chunk.scrub_next <-
              sweep + Stdlib.min scrub_backoff_cap (1 lsl Stdlib.min fails 6)
          end)
    scan;
  process_events t;
  report

(* --- placement audit ------------------------------------------------------- *)

(* Structural invariants the fault-tolerance machinery must preserve no
   matter what the fault schedule does; [Faults.Verdict] folds these
   into its cluster check.  Returns human-readable violations, sorted
   for deterministic output. *)
let audit t =
  let violations = ref [] in
  let add fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let placed = Hashtbl.create 64 in
  let seen_slot = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id (chunk : Chunk.t) ->
      let indices = ref [] in
      List.iter
        (fun (share : Chunk.share) ->
          indices := share.Chunk.index :: !indices;
          let key = share_key share in
          (match Hashtbl.find_opt t.targets key with
          | None ->
              add "chunk %d share %d placed on unknown target %a" id
                share.Chunk.index Target.pp_key key
          | Some target ->
              if not (Target.is_active target) then
                add "chunk %d share %d placed on failed target %a" id
                  share.Chunk.index Target.pp_key key
              else
                Hashtbl.replace placed key
                  (1
                  +
                  match Hashtbl.find_opt placed key with
                  | None -> 0
                  | Some n -> n));
          let slot = (key, share.Chunk.base) in
          (match Hashtbl.find_opt seen_slot slot with
          | Some other ->
              add "chunks %d and %d collide on target %a base %d"
                (Stdlib.min id other) (Stdlib.max id other) Target.pp_key
                key share.Chunk.base
          | None -> Hashtbl.replace seen_slot slot id))
        chunk.Chunk.shares;
      let sorted = List.sort_uniq compare !indices in
      if List.length sorted <> List.length !indices then
        add "chunk %d carries duplicate share indices" id)
    t.chunks;
  Hashtbl.iter
    (fun key target ->
      if Target.is_active target then begin
        let shares =
          match Hashtbl.find_opt placed key with None -> 0 | Some n -> n
        in
        let used = Target.used_count target in
        if used <> shares then
          add "target %a has %d allocated range%s but %d share%s placed"
            Target.pp_key key used
            (if used = 1 then "" else "s")
            shares
            (if shares = 1 then "" else "s")
      end)
    t.targets;
  List.sort compare !violations

(* --- introspection ------------------------------------------------------------ *)

type health = { intact : int; degraded : int; lost : int }

let health t =
  Hashtbl.fold
    (fun _ chunk acc ->
      let n = List.length chunk.Chunk.shares in
      if n >= total_shares t then { acc with intact = acc.intact + 1 }
      else if n >= read_quorum t then { acc with degraded = acc.degraded + 1 }
      else { acc with lost = acc.lost + 1 })
    t.chunks
    { intact = 0; degraded = 0; lost = 0 }

let verify_chunk t id =
  match Hashtbl.find_opt t.chunks id with
  | None -> false
  | Some chunk ->
      List.length chunk.Chunk.shares >= read_quorum t
      && List.for_all
           (fun share ->
             let ok = ref true in
             for offset = 0 to share_opages t - 1 do
               match
                 Target.read share.Chunk.target
                   ~lba:(share.Chunk.base + offset)
               with
               | Ok payload ->
                   if
                     payload
                     <> expected_payload t chunk ~index:share.Chunk.index
                          ~offset
                   then ok := false
               | Error `Unreadable -> ok := false
             done;
             !ok)
           chunk.Chunk.shares

let chunks t = Hashtbl.fold (fun id _ acc -> id :: acc) t.chunks []

let share_count t id =
  Option.map
    (fun chunk -> List.length chunk.Chunk.shares)
    (Hashtbl.find_opt t.chunks id)

let live_targets t =
  Hashtbl.fold
    (fun _ target acc -> if Target.is_active target then acc + 1 else acc)
    t.targets 0

let total_free_ranges t =
  Hashtbl.fold (fun _ target acc -> acc + Target.free_count target) t.targets 0

let recovery_opages t = t.tel.recovery_written.n
let recovery_read_opages t = t.tel.recovery_read.n
let recovery_events t = t.tel.recovery_events.n
let lost_chunks t = t.tel.lost.n
let unrecoverable_opages t = t.tel.unrecoverable.n
let rebuilt_shares t = t.tel.rebuilt.n
let rebuild_aborts t = t.tel.rebuild_aborts.n
let kill_ignored t = t.tel.kill_ignored.n
let scrub_sweeps t = t.tel.scrub_sweeps.n
let scrub_mismatches t = t.tel.scrub_mismatches.n
let scrub_repairs t = t.tel.scrub_repairs.n
let live_repair_attempts t = t.tel.live_repair_attempts.n
let live_repair_successes t = t.tel.live_repair_successes.n
let live_repair_replica_reads t = t.tel.live_repair_replica_reads.n
let live_repair_rewritten_opages t = t.tel.live_repair_rewritten.n
let live_repair_failures t = t.tel.live_repair_failures.n
let corrupt_reads_served t = t.tel.corrupt_served.n
let corrupt_reads_with_replica t = t.tel.corrupt_with_replica.n

let devices_alive t =
  Hashtbl.fold
    (fun _ (device : Target.device) acc ->
      let alive =
        (not device.Target.killed)
        &&
        match device.Target.backend with
        | Monolithic d -> Ftl.Device_intf.alive d
        | Salamander d -> Salamander.Device.alive d
      in
      if alive then acc + 1 else acc)
    t.devices 0
