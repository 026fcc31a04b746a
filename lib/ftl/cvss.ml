(* CVSS, the shrinking SSD: [Conventional] under [Shrink] retirement. *)
include Conventional

let create = create ~retirement:Shrink
