(* The bricking baseline SSD: [Conventional] under [Brick] retirement. *)
include Conventional

let create = create ~retirement:Brick
