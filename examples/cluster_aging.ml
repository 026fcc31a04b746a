(* A distributed storage cluster on Salamander drives, aged until devices
   start failing, demonstrating the end-to-end story of the paper: the
   diFS absorbs minidisk decommissionings with small recoveries and no
   data loss while redundancy holds.

   Run with: dune exec examples/cluster_aging.exe *)

let printf = Format.printf

let () =
  (* Six drives on the experiments' shared scale: 8 MiB of flash wearing
     out within ~60 erase cycles, 256 KiB minidisks, RegenS. *)
  let cluster = Difs.Cluster.create () in
  let devices =
    List.init 6 (fun i ->
        let d =
          Experiments.Defaults.salamander ~mode:Salamander.Device.Regen_s
            ~rng:(Sim.Rng.create (100 + i)) ()
        in
        ignore
          (Difs.Cluster.add_device cluster ~node:i (Difs.Cluster.Salamander d));
        d)
  in
  printf "cluster: 6 Salamander devices, %d minidisk targets, %d shares/chunk@."
    (Difs.Cluster.live_targets cluster)
    (Difs.Cluster.total_shares cluster);

  (* Store a working set of chunks. *)
  let chunk_count = 60 in
  for id = 0 to chunk_count - 1 do
    match Difs.Cluster.write_chunk cluster id with
    | Ok () -> ()
    | Error _ -> failwith "initial placement failed"
  done;
  printf "stored %d chunks (%d oPages each, 3 replicas)@." chunk_count
    (Difs.Cluster.config cluster).Difs.Cluster.chunk_opages;

  (* Rewrite chunks until the fleet has shrunk noticeably. *)
  let rng = Sim.Rng.create 9 in
  let rounds = ref 0 in
  let decommissions () =
    List.fold_left
      (fun acc d -> acc + Salamander.Device.decommissions d)
      0 devices
  in
  while decommissions () < 12 && !rounds < 200_000 do
    incr rounds;
    ignore (Difs.Cluster.write_chunk cluster (Sim.Rng.int rng chunk_count))
  done;
  Difs.Cluster.repair cluster;

  let health = Difs.Cluster.health cluster in
  printf "@.after %d chunk rewrites:@." !rounds;
  printf "  minidisk decommissions handled: %d@." (decommissions ());
  printf "  regenerated minidisks: %d@."
    (List.fold_left
       (fun acc d -> acc + Salamander.Device.regenerations d)
       0 devices);
  printf "  recovery events: %d, recovery traffic: %d oPages@."
    (Difs.Cluster.recovery_events cluster)
    (Difs.Cluster.recovery_opages cluster);
  printf "  chunk health: %d intact, %d degraded, %d lost@."
    health.Difs.Cluster.intact health.Difs.Cluster.degraded
    health.Difs.Cluster.lost;

  (* Verify every byte of every surviving replica. *)
  let verified =
    List.filter (Difs.Cluster.verify_chunk cluster)
      (List.init chunk_count Fun.id)
  in
  printf "  verified end-to-end: %d/%d chunks@." (List.length verified)
    chunk_count
