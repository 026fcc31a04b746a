type t = { tolerable_rber : float; tail : Ecc.Reliability.tail }

let of_geometry ?(target = Ecc.Reliability.default_codeword_target) geometry =
  let codewords = Flash.Geometry.codewords_per_fpage geometry in
  let data_bytes =
    geometry.Flash.Geometry.opage_bytes
    / geometry.Flash.Geometry.codewords_per_opage
  in
  let spare_bytes = geometry.Flash.Geometry.spare_bytes / codewords in
  let params = Ecc.Code_params.for_sector ~data_bytes ~spare_bytes in
  {
    tolerable_rber = Ecc.Reliability.tolerable_rber ~target params;
    tail =
      Ecc.Reliability.tail params
        ~codewords:geometry.Flash.Geometry.codewords_per_opage;
  }

let opage_read_fail_prob t ~rber = Ecc.Reliability.tail_prob t.tail ~rber

let page_is_tired t ~rber = rber > t.tolerable_rber
let reclaim_margin = 0.9
let should_reclaim t ~rber = rber > reclaim_margin *. t.tolerable_rber
