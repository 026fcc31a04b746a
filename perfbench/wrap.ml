(* Timing wrapper around a packed device: the [device] layer's boundary.
   Every call is forwarded unchanged to the wrapped device — same
   arguments, same results, same order — so a wrapped device is
   observably identical to the bare one; the calls that carry work
   (writes, reads, trims, the bulk stream, the counter snapshots the
   replayer diffs) are timed as [device.*] spans. *)

module D = Ftl.Device_intf

let k_create = Spans.kind ~layer:"device" "device.create"
let k_write = Spans.kind ~layer:"device" "device.write"
let k_write_stream = Spans.kind ~layer:"device" "device.write_stream"
let k_read = Spans.kind ~layer:"device" "device.read"
let k_trim = Spans.kind ~layer:"device" "device.trim"
let k_bg_stats = Spans.kind ~layer:"device" "device.bg_stats"

module Timed : D.S with type t = D.packed = struct
  type t = D.packed

  let label = D.label

  let write d ~lba ~payload =
    Spans.span k_write (fun () ->
        let r = D.write d ~lba ~payload in
        if Result.is_ok r then Spans.add k_write 1;
        r)

  let write_stream d ~rng ~window ~payload_base ~budget =
    Spans.span k_write_stream (fun () ->
        let r = D.write_stream d ~rng ~window ~payload_base ~budget in
        Spans.add k_write_stream r.D.accepted;
        r)

  let read d ~lba = Spans.span k_read (fun () -> D.read d ~lba)
  let trim d ~lba = Spans.span k_trim (fun () -> D.trim d ~lba)
  let alive = D.alive
  let logical_capacity = D.logical_capacity
  let initial_capacity = D.initial_capacity
  let host_writes = D.host_writes
  let write_amplification = D.write_amplification
  let bg_stats d = Spans.span k_bg_stats (fun () -> D.bg_stats d)
  let wear_stats = D.wear_stats
  let set_recovery_hook = D.set_recovery_hook
end

let device d = D.Packed ((module Timed), d)
