type share = { index : int; target : Target.t; base : int }

type t = {
  id : int;
  opages : int;
  mutable version : int;
  mutable shares : share list;
  payloads : int array;
  mutable payloads_version : int;
  mutable scrub_failures : int;
  mutable scrub_next : int;
}

let create ~id ~opages =
  {
    id;
    opages;
    version = 0;
    shares = [];
    payloads = Array.make opages 0;
    payloads_version = -1;
    scrub_failures = 0;
    scrub_next = 0;
  }

let payload ~id ~offset ~version =
  (* 32-bit fingerprint: survives the byte-level erasure coder while
     staying collision-poor enough that version/offset confusion cannot
     go unnoticed. *)
  Hashtbl.hash (id, offset, version) land 0xFFFFFFFF

(* The first lookup after a version bump fills the whole chunk: a write
   or a scrub then reads every offset, so no hash is wasted. *)
let data_payload t ~offset =
  if t.payloads_version <> t.version then begin
    for i = 0 to t.opages - 1 do
      t.payloads.(i) <- payload ~id:t.id ~offset:i ~version:t.version
    done;
    t.payloads_version <- t.version
  end;
  t.payloads.(offset)

let payload_bytes payload =
  let b = Bytes.create 4 in
  for i = 0 to 3 do
    Bytes.set b i (Char.chr ((payload lsr (8 * i)) land 0xFF))
  done;
  b

let payload_of_bytes b =
  let acc = ref 0 in
  for i = 3 downto 0 do
    acc := (!acc lsl 8) lor Char.code (Bytes.get b i)
  done;
  !acc

let on key s = Target.key_equal s.target.Target.key key
let share_on t key = List.find_opt (on key) t.shares

let drop_share t key =
  t.shares <- List.filter (fun s -> not (on key s)) t.shares

let add_share t share = t.shares <- share :: t.shares

let present_indices t = List.map (fun s -> s.index) t.shares

let missing_indices t ~total =
  let present = present_indices t in
  List.filter (fun i -> not (List.mem i present)) (List.init total Fun.id)
