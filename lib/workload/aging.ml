type outcome = {
  host_writes : int;
  reads : int;
  unmapped_reads : int;
  uncorrectable_reads : int;
  died : bool;
}

let window ?(utilization = 0.85) device =
  Stdlib.max 1
    (int_of_float
       (float_of_int (Ftl.Device_intf.logical_capacity device) *. utilization))

let uniform ?utilization ~read_fraction device =
  Pattern.uniform ~window:(window ?utilization device) ~read_fraction

let sync_window ?utilization pattern device =
  let window = window ?utilization device in
  if
    window <> Pattern.window pattern
    && Ftl.Device_intf.logical_capacity device > 0
  then Pattern.resize pattern ~window

(* The pattern window is resynced to the device's current capacity every
   [resync_every] accepted writes, so a shrink is noticed within one
   stride. *)
let resync_every = 256

let per_op ~utilization ~rng ~pattern ~device ~quota =
  let host_writes = ref 0 in
  let reads = ref 0 in
  let unmapped_reads = ref 0 in
  let uncorrectable_reads = ref 0 in
  let died = ref false in
  (try
     while !host_writes < quota do
       if not (Ftl.Device_intf.alive device) then begin
         died := true;
         raise Exit
       end;
       if !host_writes mod resync_every = 0 then
         sync_window ?utilization pattern device;
       let access = Pattern.next pattern rng in
       match access.Access.kind with
       | Access.Write -> (
           match
             Ftl.Device_intf.write device ~lba:access.Access.lba
               ~payload:!host_writes
           with
           | Ok () -> incr host_writes
           | Error (`Dead | `No_space) ->
               died := true;
               raise Exit
           | Error `Out_of_range -> sync_window ?utilization pattern device)
       | Access.Read -> (
           incr reads;
           match Ftl.Device_intf.read device ~lba:access.Access.lba with
           | Ok _ -> ()
           | Error `Unmapped -> incr unmapped_reads
           | Error `Uncorrectable -> incr uncorrectable_reads
           | Error `Dead ->
               died := true;
               raise Exit
           | Error `Out_of_range -> sync_window ?utilization pattern device)
       | Access.Trim -> Ftl.Device_intf.trim device ~lba:access.Access.lba
     done
   with Exit -> ());
  { host_writes = !host_writes; reads = !reads;
    unmapped_reads = !unmapped_reads;
    uncorrectable_reads = !uncorrectable_reads; died = !died }

type path = Auto | Per_op

(* The bulk path keeps [per_op]'s loop structure — quota check, then
   alive check, then the window resync every [resync_every] accepted
   writes — but delegates the writes between those decision points
   wholesale to the device's bulk-aging stream.  Each segment's budget
   runs exactly to the next resync boundary (or the quota), so every
   per-op decision point is hit at the same write counts with the same
   device state, and the RNG stream is identical: the fast path is
   bit-exact with [Per_op], which survives as the oracle for the
   differential suite. *)
let run_epoch ?(path = Auto) ?utilization ~rng ~pattern ~device ~quota () =
  let per_op () = per_op ~utilization ~rng ~pattern ~device ~quota in
  match path with
  | Per_op -> per_op ()
  | Auto when not (Pattern.write_only_uniform pattern) -> per_op ()
  | Auto ->
      let host_writes = ref 0 in
      let died = ref false in
      let fallback = ref false in
      (try
         while !host_writes < quota do
           if not (Ftl.Device_intf.alive device) then begin
             died := true;
             raise Exit
           end;
           if !host_writes mod resync_every = 0 then
             sync_window ?utilization pattern device;
           let budget =
             Stdlib.min (quota - !host_writes)
               (resync_every - (!host_writes mod resync_every))
           in
           let r =
             Ftl.Device_intf.write_stream device ~rng
               ~window:(Pattern.window pattern) ~payload_base:!host_writes
               ~budget
           in
           host_writes := !host_writes + r.Ftl.Device_intf.accepted;
           match r.Ftl.Device_intf.status with
           | Ftl.Device_intf.Stream_filled -> ()
           | Ftl.Device_intf.Stream_resync ->
               sync_window ?utilization pattern device
           | Ftl.Device_intf.Stream_dead ->
               died := true;
               raise Exit
           | Ftl.Device_intf.Stream_unsupported ->
               (* nothing consumed (guaranteed by the contract); replay
                  the whole epoch through the per-op loop *)
               fallback := true;
               raise Exit
         done
       with Exit -> ());
      if !fallback then per_op ()
      else
        {
          host_writes = !host_writes;
          reads = 0;
          unmapped_reads = 0;
          uncorrectable_reads = 0;
          died = !died;
        }

let lifetime_writes = 50_000_000

let to_death ?utilization ~rng ~pattern ~device () =
  run_epoch ?utilization ~rng ~pattern ~device ~quota:lifetime_writes ()
