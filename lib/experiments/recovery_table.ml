type row = {
  kind : [ `Baseline | `Cvss | `Shrinks | `Regens ];
  recovery_opages : int;
  recovery_events : int;
  host_writes : int;
  lost_chunks : int;
  recovery_per_host_write : float;
}

let kinds : [ `Baseline | `Cvss | `Shrinks | `Regens ] list =
  [ `Baseline; `Cvss; `Shrinks; `Regens ]

let backend ~registry kind ~seed =
  match kind with
  | `Shrinks ->
      Difs.Cluster.Salamander
        (Salamander.Device.create
           ~config:(Defaults.salamander_config ~mode:Salamander.Device.Shrink_s)
           ~registry ~geometry:Defaults.geometry ~model:Defaults.model
           ~rng:(Sim.Rng.create seed) ())
  | `Regens ->
      Difs.Cluster.Salamander
        (Salamander.Device.create
           ~config:(Defaults.salamander_config ~mode:Salamander.Device.Regen_s)
           ~registry ~geometry:Defaults.geometry ~model:Defaults.model
           ~rng:(Sim.Rng.create seed) ())
  | (`Baseline | `Cvss) as k ->
      Difs.Cluster.Monolithic (Defaults.make_device ~registry k ~seed)

let measure_kind ~registry kind ~devices ~seed =
  let cluster = Difs.Cluster.create ~registry () in
  List.iter
    (fun i ->
      ignore
        (Difs.Cluster.add_device cluster ~node:i
           (backend ~registry kind ~seed:(seed + (61 * i)))))
    (List.init devices Fun.id);
  (* Populate to ~40% of raw cluster capacity, then rewrite until the
     cluster can no longer maintain the working set (most devices dead or
     shrunk away). *)
  let physical_per_chunk =
    Difs.Cluster.share_opages cluster * Difs.Cluster.total_shares cluster
  in
  let raw_capacity =
    devices * Flash.Geometry.total_opages Defaults.geometry
  in
  let chunk_count = raw_capacity * 40 / 100 / physical_per_chunk in
  for id = 0 to chunk_count - 1 do
    ignore (Difs.Cluster.write_chunk cluster id)
  done;
  let rng = Sim.Rng.create (seed + 7) in
  let host_writes = ref 0 in
  let consecutive_failures = ref 0 in
  while !consecutive_failures < 200 && !host_writes < 30_000_000 do
    let id = Sim.Rng.int rng chunk_count in
    match Difs.Cluster.write_chunk cluster id with
    | Ok () ->
        host_writes := !host_writes + physical_per_chunk;
        consecutive_failures := 0
    | Error _ -> incr consecutive_failures
  done;
  Difs.Cluster.repair cluster;
  {
    kind;
    recovery_opages = Difs.Cluster.recovery_opages cluster;
    recovery_events = Difs.Cluster.recovery_events cluster;
    host_writes = !host_writes;
    lost_chunks = Difs.Cluster.lost_chunks cluster;
    recovery_per_host_write =
      float_of_int (Difs.Cluster.recovery_opages cluster)
      /. float_of_int (Stdlib.max 1 !host_writes);
  }

let measure ?(devices = 6) ?(seed = 4242) ?(ctx = Ctx.default) () =
  (* One cluster per kind, each fully self-contained: the pool runs the
     four cluster lifetimes concurrently. *)
  Ctx.map ctx kinds (fun sub kind ->
      measure_kind ~registry:sub.Ctx.registry kind ~devices ~seed)

(* Same aging protocol, but comparing redundancy schemes on identical
   RegenS fleets: replication recovers a lost share with one read; (4,2)
   erasure coding needs four — the §4.3 recovery-traffic question under
   the redundancy datacenters actually deploy. *)
let measure_redundancy ?(devices = 8) ?(seed = 5353) ?(ctx = Ctx.default) () =
  Ctx.map ctx
    [
      ("replication x3", Difs.Cluster.default_config);
      ("erasure (4,2)", Difs.Cluster.default_ec_config);
    ]
    (fun sub (label, cluster_config) ->
      let registry = sub.Ctx.registry in
      let cluster = Difs.Cluster.create ~config:cluster_config ~registry () in
      List.iter
        (fun i ->
          ignore
            (Difs.Cluster.add_device cluster ~node:i
               (backend ~registry `Regens ~seed:(seed + (61 * i)))))
        (List.init devices Fun.id);
      let physical_per_chunk =
        Difs.Cluster.share_opages cluster * Difs.Cluster.total_shares cluster
      in
      let raw_capacity =
        devices * Flash.Geometry.total_opages Defaults.geometry
      in
      let chunk_count = raw_capacity * 40 / 100 / physical_per_chunk in
      for id = 0 to chunk_count - 1 do
        ignore (Difs.Cluster.write_chunk cluster id)
      done;
      let rng = Sim.Rng.create (seed + 7) in
      let host_writes = ref 0 in
      let consecutive_failures = ref 0 in
      while !consecutive_failures < 200 && !host_writes < 30_000_000 do
        match Difs.Cluster.write_chunk cluster (Sim.Rng.int rng chunk_count) with
        | Ok () ->
            host_writes := !host_writes + physical_per_chunk;
            consecutive_failures := 0
        | Error _ -> incr consecutive_failures
      done;
      Difs.Cluster.repair cluster;
      (label, cluster, !host_writes))

let run ?(ctx = Ctx.default) fmt =
  Report.section fmt
    "TAB-RECOV: diFS recovery traffic over device lifetime (paper §4.3)";
  let rows = measure ~ctx () in
  Report.table fmt
    ~header:
      [ "cluster"; "host oPage writes"; "recovery oPages"; "recovery events";
        "recovery/host write"; "lost chunks" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Defaults.kind_label r.kind;
             string_of_int r.host_writes;
             string_of_int r.recovery_opages;
             string_of_int r.recovery_events;
             Printf.sprintf "%.4f" r.recovery_per_host_write;
             string_of_int r.lost_chunks;
           ])
         rows);
  Report.note fmt
    "paper: ShrinkS recovery volume comparable to baseline (same LBAs \
     fail overall, in finer units); RegenS adds traffic because \
     regenerated minidisks fail again.  Salamander clusters absorb far \
     more writes before losing capacity, so compare recovery per host \
     write.";
  Report.section fmt
    "TAB-RECOV (redundancy): replication vs erasure coding on RegenS fleets";
  let schemes = measure_redundancy ~ctx () in
  Report.table fmt
    ~header:
      [ "redundancy"; "storage overhead"; "host oPage writes";
        "recovery written"; "recovery read"; "read amplification";
        "lost chunks" ]
    ~rows:
      (List.map
         (fun (label, cluster, host_writes) ->
           [
             label;
             Printf.sprintf "%.2fx" (Difs.Cluster.storage_overhead cluster);
             string_of_int host_writes;
             string_of_int (Difs.Cluster.recovery_opages cluster);
             string_of_int (Difs.Cluster.recovery_read_opages cluster);
             Printf.sprintf "%.1fx"
               (float_of_int (Difs.Cluster.recovery_read_opages cluster)
               /. float_of_int
                    (Stdlib.max 1 (Difs.Cluster.recovery_opages cluster)));
             string_of_int (Difs.Cluster.lost_chunks cluster);
           ])
         schemes);
  Report.note fmt
    "erasure coding halves the storage overhead of Salamander's shrink \
     events but multiplies recovery reads by k: minidisk-granular \
     failures interact with EC repair amplification, a cost the paper's \
     replication-centric analysis does not surface"
