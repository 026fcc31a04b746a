type t = {
  geometry : Flash.Geometry.t;
  logical_opages : int;
  forward : int array; (* logical oPage -> flat slot index; -1 = unmapped *)
  reverse : int array; (* indexed by flat slot index; -1 = stale/free *)
  valid_per_block : int array;
  mutable mapped : int;
}

let slots_per_block geometry =
  geometry.Flash.Geometry.pages_per_block
  * geometry.Flash.Geometry.opages_per_fpage

(* Both directions speak flat slot indices; locations are decoded only at
   the option-returning [find], so the per-write hot path (bind_flat /
   find_flat) never boxes a [Location.t]. *)
let location_of_flat t flat =
  let spb = slots_per_block t.geometry in
  let opages = t.geometry.Flash.Geometry.opages_per_fpage in
  let block = flat / spb in
  let rem = flat - (block * spb) in
  let page = rem / opages in
  { Location.block; page; slot = rem - (page * opages) }

let create ~geometry ~logical_opages =
  if logical_opages <= 0 then invalid_arg "Mapping.create: logical_opages";
  {
    geometry;
    logical_opages;
    forward = Array.make logical_opages (-1);
    reverse = Array.make (geometry.Flash.Geometry.blocks * slots_per_block geometry) (-1);
    valid_per_block = Array.make geometry.Flash.Geometry.blocks 0;
    mapped = 0;
  }

let logical_opages t = t.logical_opages

let check_logical t logical =
  if logical < 0 || logical >= t.logical_opages then
    invalid_arg "Mapping: logical index out of range"

let find_flat t logical =
  check_logical t logical;
  t.forward.(logical)

let find t logical =
  check_logical t logical;
  let flat = t.forward.(logical) in
  if flat < 0 then None else Some (location_of_flat t flat)

let invalidate_flat t flat =
  if t.reverse.(flat) >= 0 then begin
    t.reverse.(flat) <- -1;
    let block = flat / slots_per_block t.geometry in
    t.valid_per_block.(block) <- t.valid_per_block.(block) - 1
  end

let unbind_logical t logical =
  check_logical t logical;
  let flat = t.forward.(logical) in
  if flat >= 0 then begin
    invalidate_flat t flat;
    t.forward.(logical) <- -1;
    t.mapped <- t.mapped - 1
  end

let bind_flat t ~logical flat =
  check_logical t logical;
  (* Evict any previous occupant of the slot and any previous location of
     the logical index, keeping both directions consistent. *)
  let previous_owner = t.reverse.(flat) in
  if previous_owner >= 0 && previous_owner <> logical then begin
    t.forward.(previous_owner) <- -1;
    t.mapped <- t.mapped - 1
  end;
  invalidate_flat t flat;
  let old = t.forward.(logical) in
  if old >= 0 then invalidate_flat t old else t.mapped <- t.mapped + 1;
  t.forward.(logical) <- flat;
  t.reverse.(flat) <- logical;
  let block = flat / slots_per_block t.geometry in
  t.valid_per_block.(block) <- t.valid_per_block.(block) + 1

let mapped_count t = t.mapped

let valid_in_block t ~block = t.valid_per_block.(block)

let live_slots_in_page t ~block ~page =
  let opages = t.geometry.Flash.Geometry.opages_per_fpage in
  let base =
    (block * slots_per_block t.geometry) + (page * opages)
  in
  let rec collect slot acc =
    if slot < 0 then acc
    else
      let logical = t.reverse.(base + slot) in
      if logical >= 0 then collect (slot - 1) ((slot, logical) :: acc)
      else collect (slot - 1) acc
  in
  collect (opages - 1) []

let iter_block t ~block f =
  let opages = t.geometry.Flash.Geometry.opages_per_fpage in
  for page = 0 to t.geometry.Flash.Geometry.pages_per_block - 1 do
    let base = (block * slots_per_block t.geometry) + (page * opages) in
    for slot = 0 to opages - 1 do
      let logical = t.reverse.(base + slot) in
      if logical >= 0 then f ~page ~slot ~logical
    done
  done
