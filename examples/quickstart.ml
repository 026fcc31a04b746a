(* Quickstart: create a Salamander SSD, do I/O against its minidisks,
   then wear it out and watch it shrink and regenerate.

   Run with: dune exec examples/quickstart.exe *)

let printf = Format.printf

let () =
  (* An 8 MiB flash device (scaled; see DESIGN.md) whose pages wear out
     after ~60 erase cycles, with 256 KiB minidisks and RegenS enabled. *)
  let geometry = Flash.Geometry.create ~pages_per_block:16 ~blocks:32 () in
  let profile = Salamander.Tiredness.profile ~max_level:1 geometry in
  let model =
    Flash.Rber_model.calibrate
      ~target_rber:
        (Salamander.Tiredness.info profile 0).Salamander.Tiredness.tolerable_rber
      ~target_pec:60 ()
  in
  let device =
    Salamander.Device.create
      ~config:
        {
          Salamander.Device.default_config with
          Salamander.Device.mdisk_opages = 64;
        }
      ~geometry ~model
      ~rng:(Sim.Rng.create 2025)
      ()
  in

  (* 1. The device presents itself as many tiny independent drives. *)
  let mdisks = Salamander.Device.active_mdisks device in
  printf "device exposes %d minidisks of %d oPages each@."
    (List.length mdisks)
    (List.hd mdisks).Salamander.Minidisk.opages;

  (* 2. Ordinary I/O, addressed as (minidisk, LBA). *)
  let first = (List.hd mdisks).Salamander.Minidisk.id in
  (match Salamander.Device.write device ~mdisk:first ~lba:0 ~payload:42 with
  | Ok () -> printf "wrote payload 42 to minidisk %d, LBA 0@." first
  | Error _ -> assert false);
  (match Salamander.Device.read device ~mdisk:first ~lba:0 with
  | Ok payload -> printf "read it back: %d@." payload
  | Error _ -> assert false);

  (* 3. Age the device with random overwrites through the flat adapter. *)
  printf "@.aging the device...@.";
  let pattern =
    Workload.Aging.uniform ~read_fraction:0. (Salamander.Device.pack device)
  in
  let rec age_until_events tries =
    let outcome =
      Workload.Aging.run_epoch ~quota:5_000 ~rng:(Sim.Rng.create tries)
        ~pattern ~device:(Salamander.Device.pack device) ()
    in
    let events = Salamander.Device.poll_events device in
    if events = [] && Salamander.Device.alive device && tries < 200 then
      age_until_events (tries + 1)
    else (outcome, events)
  in
  let _, events = age_until_events 1 in
  List.iter (fun e -> printf "event: %a@." Salamander.Events.pp e) events;

  (* 4. Inspect wear state: the limbo census and capacity accounting. *)
  printf "@.limbo: %a@." Salamander.Limbo.pp (Salamander.Device.limbo device);
  printf "exported LBAs: %d, physical data slots: %d@."
    (Salamander.Device.active_opages device)
    (Salamander.Device.total_data_opages device);
  printf "decommissions so far: %d, regenerations: %d@."
    (Salamander.Device.decommissions device)
    (Salamander.Device.regenerations device);

  (* 5. Keep going until the device gives up entirely. *)
  let outcome =
    Workload.Aging.to_death ~rng:(Sim.Rng.create 7) ~pattern
      ~device:(Salamander.Device.pack device) ()
  in
  printf
    "@.device absorbed %d more writes before dying; final decommissions %d, \
     regenerations %d@."
    outcome.Workload.Aging.host_writes
    (Salamander.Device.decommissions device)
    (Salamander.Device.regenerations device)
