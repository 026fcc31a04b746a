type level_info = {
  level : int;
  data_slots : int;
  tail : Ecc.Reliability.tail option;
  tolerable_rber : float;
  code_rate : float;
}

type t = {
  geometry : Flash.Geometry.t;
  max_level : int;
  levels : level_info array; (* indices 0 .. max_level + 1 (dead) *)
}

(* Code parameters of a level-L page: the surviving data oPages keep their
   codeword count, and the parity pool (spare area + L repurposed oPages)
   is split evenly among them. *)
let level_params geometry ~level ~target =
  let opages = geometry.Flash.Geometry.opages_per_fpage in
  let data_slots = opages - level in
  if data_slots <= 0 then None
  else begin
    let codewords = data_slots * geometry.Flash.Geometry.codewords_per_opage in
    let parity_pool =
      geometry.Flash.Geometry.spare_bytes
      + (level * geometry.Flash.Geometry.opage_bytes)
    in
    let data_bytes =
      geometry.Flash.Geometry.opage_bytes
      / geometry.Flash.Geometry.codewords_per_opage
    in
    let spare_bytes = parity_pool / codewords in
    let params = Ecc.Code_params.for_sector ~data_bytes ~spare_bytes in
    let tolerable = Ecc.Reliability.tolerable_rber ~target params in
    Some (data_slots, params, tolerable)
  end

let profile ?(target = Ecc.Reliability.default_codeword_target) ?(max_level = 1)
    geometry =
  let opages = geometry.Flash.Geometry.opages_per_fpage in
  if max_level < 0 || max_level > opages - 1 then
    invalid_arg "Tiredness.profile: max_level out of range";
  let fpage_bytes =
    Flash.Geometry.fpage_data_bytes geometry + geometry.Flash.Geometry.spare_bytes
  in
  let dead level =
    { level; data_slots = 0; tail = None; tolerable_rber = 0.; code_rate = 0. }
  in
  let make level =
    (* The level past [max_level] is terminal by definition, even when the
       geometry could in principle support deeper repurposing. *)
    if level > max_level then dead level
    else
      match level_params geometry ~level ~target with
    | Some (data_slots, params, tolerable_rber) ->
        {
          level;
          data_slots;
          tail =
            Some
              (Ecc.Reliability.tail params
                 ~codewords:geometry.Flash.Geometry.codewords_per_opage);
          tolerable_rber;
          code_rate =
            float_of_int (data_slots * geometry.Flash.Geometry.opage_bytes)
            /. float_of_int fpage_bytes;
        }
    | None -> dead level
  in
  let levels = Array.init (max_level + 2) make in
  { geometry; max_level; levels }

let geometry t = t.geometry
let max_level t = t.max_level
let dead_level t = t.max_level + 1

let info t level =
  if level < 0 || level >= Array.length t.levels then
    invalid_arg "Tiredness.info: level out of range";
  t.levels.(level)

let data_slots t level = (info t level).data_slots

let level_for_rber t ~rber =
  let rec search level =
    if level > t.max_level then dead_level t
    else if rber <= t.levels.(level).tolerable_rber then level
    else search (level + 1)
  in
  search 0

let read_fail_prob t ~level ~rber =
  match (info t level).tail with
  | None -> 1.
  | Some tail -> Ecc.Reliability.tail_prob tail ~rber

let pp_level t fmt level =
  let i = info t level in
  match i.tail with
  | None -> Format.fprintf fmt "L%d (dead)" level
  | Some { Ecc.Reliability.params; _ } ->
      Format.fprintf fmt "L%d: %d oPages, rate %.3f, t=%d, rber<=%.2e" level
        i.data_slots i.code_rate params.Ecc.Code_params.capability
        i.tolerable_rber
