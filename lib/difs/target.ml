type key = { device : int; mdisk : int option }

let key_equal a b = a.device = b.device && a.mdisk = b.mdisk

let pp_key fmt k =
  match k.mdisk with
  | None -> Format.fprintf fmt "dev%d" k.device
  | Some m -> Format.fprintf fmt "dev%d/md%d" k.device m

type backend =
  | Monolithic of Ftl.Device_intf.packed
  | Salamander of Salamander.Device.t

type device = {
  id : int;
  node : int;
  backend : backend;
  mutable killed : bool;
  mutable alive_seen : bool;
  mutable capacity_seen : int;
}

let device ~id ~node backend =
  let capacity_seen =
    match backend with
    | Monolithic d -> Ftl.Device_intf.logical_capacity d
    | Salamander _ -> 0
  in
  { id; node; backend; killed = false; alive_seen = true; capacity_seen }

type io =
  | Whole of Ftl.Device_intf.packed
  | Mdisk of { device : Salamander.Device.t; mdisk : Salamander.Minidisk.t }

type state = Active | Failed

type t = {
  key : key;
  device : device;
  io : io;
  capacity : int;
  chunk_opages : int;
  mutable state : state;
  mutable free_ranges : int list;
  mutable free : int;
}

let create ~device io ~capacity ~chunk_opages =
  if chunk_opages <= 0 then invalid_arg "Target.create: chunk_opages";
  let mdisk =
    match io with
    | Whole _ -> None
    | Mdisk { mdisk; _ } -> Some mdisk.Salamander.Minidisk.id
  in
  let ranges = capacity / chunk_opages in
  {
    key = { device = device.id; mdisk };
    device;
    io;
    capacity;
    chunk_opages;
    state = Active;
    free_ranges = List.init ranges (fun i -> i * chunk_opages);
    free = ranges;
  }

(* --- I/O ------------------------------------------------------------------ *)

let failed r = Result.map_error (fun _ -> `Target_failed) r
let unreadable r = Result.map_error (fun _ -> `Unreadable) r

let write t ~lba ~payload =
  if t.device.killed then Error `Target_failed
  else
    match t.io with
    | Whole d -> failed (Ftl.Device_intf.write d ~lba ~payload)
    | Mdisk { device; mdisk } ->
        failed (Salamander.Device.write_mdisk device mdisk ~lba ~payload)

let read t ~lba =
  if t.device.killed then Error `Unreadable
  else
    match t.io with
    | Whole d -> unreadable (Ftl.Device_intf.read d ~lba)
    | Mdisk { device; mdisk } ->
        unreadable (Salamander.Device.read_mdisk device mdisk ~lba)

let trim t ~lba =
  if not t.device.killed then
    match t.io with
    | Whole d -> Ftl.Device_intf.trim d ~lba
    | Mdisk { device; mdisk } -> Salamander.Device.trim_mdisk device mdisk ~lba

(* --- range allocator ------------------------------------------------------ *)

let allocate t =
  match t.state with
  | Failed -> None
  | Active -> (
      match t.free_ranges with
      | [] -> None
      | base :: rest ->
          t.free_ranges <- rest;
          t.free <- t.free - 1;
          Some base)

let release t base =
  if t.state = Active then begin
    t.free_ranges <- base :: t.free_ranges;
    t.free <- t.free + 1
  end

let fail t =
  t.state <- Failed;
  t.free_ranges <- [];
  t.free <- 0

let truncate t ~capacity =
  if capacity >= t.capacity then []
  else begin
    let in_bounds base = base + t.chunk_opages <= capacity in
    let was_free = t.free_ranges in
    t.free_ranges <- List.filter in_bounds was_free;
    t.free <- List.length t.free_ranges;
    (* Allocated ranges now out of bounds: every range past the new
       capacity that was not sitting in the free pool. *)
    let lost = ref [] in
    (* The first affected range is the one containing [capacity] (or
       starting at it when the cut is range-aligned). *)
    let base = ref (capacity - (capacity mod t.chunk_opages)) in
    while !base + t.chunk_opages <= t.capacity do
      if not (in_bounds !base) && not (List.mem !base was_free) then
        lost := !base :: !lost;
      base := !base + t.chunk_opages
    done;
    !lost
  end

let is_active t = t.state = Active
let free_count t = t.free
let used_count t = (t.capacity / t.chunk_opages) - t.free
