type config = { arrival_rate_ops_per_s : float; batch : int }

let default_config = { arrival_rate_ops_per_s = 5_000.; batch = 16 }

(* Device charges: the flash timing model every other experiment uses. *)
let flash = Flash.Latency.default
let read_us = flash.Flash.Latency.read_us
let retry_us = flash.Flash.Latency.retry_us
let gc_us = Flash.Latency.erase_us flash
let relocate_us = flash.Flash.Latency.read_us +. flash.Flash.Latency.program_us
let reclaim_us = flash.Flash.Latency.read_us

(* Costs that are not flash timings. *)
let submit_us = 20.
let per_op_us = 2.
(* A write acks from the controller's buffer; the program it eventually
   costs is amortized into this charge. *)
let write_us = 180.
let trim_us = 5.
(* One live-repair escalation ~ a replica read off another node plus the
   in-place rewrite: network round-trip dominated, far cheaper than
   surfacing the error to the application but well above a local read. *)
let repair_us = 2_000.
(* Host-level recovery of an uncorrectable read: the layer above
   reconstructs the data from elsewhere. *)
let error_us = 10_000.

type outcome = {
  issued : int;
  completed : int;
  read_errors : int;
  unmapped_reads : int;
  write_errors : int;
  throttled_ops : int;
  throttle_us : float;
  slo_violations : int;
  died : bool;
  end_us : float;
  all : Lathist.t;
  reads : Lathist.t;
  writes : Lathist.t;
  accounts : Tenant.Accounts.t;
  cause_mix : int array;
}

(* The contention charge: every GC pass, relocation, retry rung, reclaim
   and live-repair escalation between two snapshots, at its cost. *)
let[@inline] bg_cost (before : Ftl.Device_intf.bg_stats)
    (after : Ftl.Device_intf.bg_stats) =
  (float_of_int (after.gc_runs - before.gc_runs) *. gc_us)
  +. float_of_int (after.relocated_opages - before.relocated_opages)
     *. relocate_us
  +. float_of_int (after.read_retries - before.read_retries) *. retry_us
  +. float_of_int (after.read_reclaims - before.read_reclaims)
     *. reclaim_us
  (* live repair prices into the op that triggered it — the recovery
     latency lands in the tail percentiles instead of the flat
     [error_us] host penalty an unrecoverable read would pay *)
  +. float_of_int (after.live_repair_attempts - before.live_repair_attempts)
     *. repair_us

(* The simulated clock.  All-float, so the record is flat and the loop's
   stores do not box. *)
type clock = {
  mutable arrival : float;
  mutable device_free : float;
  mutable throttle_us : float;
  mutable start : float;  (** the current op's service start *)
}

(* [Stdlib.max] at a known float type, so the comparison is not the
   polymorphic one. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* Queue the op behind its tenant's bucket: re-admit after each delay,
   and after four let it through — refill rounding can leave the bucket
   a hair short of a full token.  Returns how many delays it took. *)
let rec wait qos ~tenant clock delays =
  match Qos.admit qos ~tenant ~now_us:clock.start with
  | `Ok -> delays
  | `Delay d ->
      clock.throttle_us <- clock.throttle_us +. d;
      clock.start <- clock.start +. d;
      if delays < 3 then wait qos ~tenant clock (delays + 1) else delays + 1

let run ?(config = default_config) ?qos ?intensity ?on_batch ~population ~trace
    ~device () =
  if config.batch < 1 then invalid_arg "Replay.run: batch must be >= 1";
  if config.arrival_rate_ops_per_s <= 0. then
    invalid_arg "Replay.run: arrival rate must be positive";
  let qos =
    Option.map
      (fun c -> Qos.create c ~weights:(Tenant.qos_weights population))
      qos
  in
  let accounts = Tenant.Accounts.create population in
  let cause_mix = Array.make (1 lsl Obs.Cause.width) 0 in
  let all = Lathist.create () in
  let read_lat = Lathist.create () in
  let write_lat = Lathist.create () in
  let issued = ref 0 in
  let completed = ref 0 in
  let read_errors = ref 0 in
  let unmapped_reads = ref 0 in
  let write_errors = ref 0 in
  let throttled_ops = ref 0 in
  let slo_violations = ref 0 in
  let died = ref false in
  let clock = { arrival = 0.; device_free = 0.; throttle_us = 0.; start = 0. } in
  let capacity = ref (Ftl.Device_intf.logical_capacity device) in
  let base_gap = 1e6 /. config.arrival_rate_ops_per_s in
  let n_tenants = Tenant.tenants population in
  let slo_us =
    Array.init n_tenants (fun id -> (Tenant.profile_of population id).Tenant.slo_us)
  in
  (* One contention snapshot per op: op k's [after] is op k+1's [before].
     Nothing between two ops touches the device's counters except the
     batch hook, so the snapshot is re-taken after it. *)
  let snapshot = ref (Ftl.Device_intf.bg_stats device) in
  let op = ref 0 in
  (try
     Workload.Trace.iter_events trace (fun event ->
         let k = !op in
         incr op;
         (* Batch boundary: fire the hook (chaos injection), refresh the
            capacity a shrinking device exports, pay the submission
            overhead once. *)
         let batch_head = k mod config.batch = 0 in
         if batch_head then begin
           (match on_batch with
           | Some f ->
               f ~batch:(k / config.batch);
               snapshot := Ftl.Device_intf.bg_stats device
           | None -> ());
           capacity := Ftl.Device_intf.logical_capacity device;
           if !capacity <= 0 || not (Ftl.Device_intf.alive device) then begin
             died := true;
             raise Exit
           end
         end;
         let gap =
           match intensity with
           | Some f -> base_gap /. fmax 1e-6 (f ~op:k)
           | None -> base_gap
         in
         clock.arrival <- clock.arrival +. gap;
         incr issued;
         let tenant =
           ((event.Workload.Trace.tenant mod n_tenants) + n_tenants)
           mod n_tenants
         in
         let lba =
           let raw = event.Workload.Trace.access.Workload.Access.lba in
           ((raw mod !capacity) + !capacity) mod !capacity
         in
         (* Queue behind the device, then behind the tenant's bucket. *)
         clock.start <- fmax clock.arrival clock.device_free;
         let delays =
           match qos with None -> 0 | Some qos -> wait qos ~tenant clock 0
         in
         if delays > 0 then begin
           incr throttled_ops;
           Tenant.Accounts.record_throttle accounts ~tenant
         end;
         let kind = event.Workload.Trace.access.Workload.Access.kind in
         let base =
           match kind with
           | Workload.Access.Read -> (
               match Ftl.Device_intf.read device ~lba with
               | Ok _ -> read_us
               | Error `Unmapped ->
                   incr unmapped_reads;
                   read_us
               | Error `Uncorrectable ->
                   incr read_errors;
                   read_us +. error_us
               | Error (`Dead | `Out_of_range) ->
                   incr read_errors;
                   read_us +. error_us)
           | Workload.Access.Write -> (
               match Ftl.Device_intf.write device ~lba ~payload:k with
               | Ok () -> write_us
               | Error `Out_of_range ->
                   (* The device shrank under this batch; retry inside the
                      fresh window before giving up on the op. *)
                   let capacity' =
                     Stdlib.max 1 (Ftl.Device_intf.logical_capacity device)
                   in
                   capacity := capacity';
                   (match
                      Ftl.Device_intf.write device ~lba:(lba mod capacity')
                        ~payload:k
                    with
                   | Ok () -> ()
                   | Error _ -> incr write_errors);
                   write_us
               | Error (`Dead | `No_space) ->
                   incr write_errors;
                   died := true;
                   raise Exit)
           | Workload.Access.Trim ->
               Ftl.Device_intf.trim device ~lba;
               trim_us
         in
         let before = !snapshot in
         let after = Ftl.Device_intf.bg_stats device in
         snapshot := after;
         let service =
           per_op_us
           +. (if batch_head then submit_us else 0.)
           +. base
           +. bg_cost before after
         in
         let completion = clock.start +. service in
         clock.device_free <- completion;
         let latency = completion -. clock.arrival in
         incr completed;
         (* Root-cause attribution: which background activities billed
            time into this op's latency. *)
         let causes =
           Obs.Cause.of_flags ~gc:(after.gc_runs > before.gc_runs)
             ~relocation:(after.relocated_opages > before.relocated_opages)
             ~retry:(after.read_retries > before.read_retries)
             ~escalation:
               (after.live_repair_attempts > before.live_repair_attempts)
             ~scrub:(after.read_reclaims > before.read_reclaims)
             ~qos_throttle:(delays > 0)
         in
         Lathist.observe_tagged all latency ~tags:causes;
         (match kind with
         | Workload.Access.Read -> Lathist.observe_tagged read_lat latency ~tags:causes
         | Workload.Access.Write ->
             Lathist.observe_tagged write_lat latency ~tags:causes
         | Workload.Access.Trim -> ());
         cause_mix.(causes) <- cause_mix.(causes) + 1;
         Tenant.Accounts.record_op accounts ~tenant
           ~read:(kind = Workload.Access.Read);
         if latency > slo_us.(tenant) then begin
           incr slo_violations;
           Tenant.Accounts.record_violation accounts ~tenant
         end)
   with Exit -> ());
  {
    issued = !issued;
    completed = !completed;
    read_errors = !read_errors;
    unmapped_reads = !unmapped_reads;
    write_errors = !write_errors;
    throttled_ops = !throttled_ops;
    throttle_us = clock.throttle_us;
    slo_violations = !slo_violations;
    died = !died;
    end_us = clock.device_free;
    all;
    reads = read_lat;
    writes = write_lat;
    accounts;
    cause_mix;
  }
