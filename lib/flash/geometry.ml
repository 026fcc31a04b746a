type t = {
  opage_bytes : int;
  opages_per_fpage : int;
  spare_bytes : int;
  pages_per_block : int;
  blocks : int;
  codewords_per_opage : int;
}

let create ?(opages_per_fpage = 4) ?(spare_bytes = 2048) ~pages_per_block
    ~blocks () =
  let positive name v =
    if v <= 0 then
      invalid_arg (Printf.sprintf "Geometry.create: %s must be > 0" name)
  in
  positive "opages_per_fpage" opages_per_fpage;
  positive "spare_bytes" spare_bytes;
  positive "pages_per_block" pages_per_block;
  positive "blocks" blocks;
  {
    opage_bytes = 4096;
    opages_per_fpage;
    spare_bytes;
    pages_per_block;
    blocks;
    codewords_per_opage = 2;
  }

let fpage_data_bytes t = t.opage_bytes * t.opages_per_fpage
let fpages t = t.blocks * t.pages_per_block
let total_opages t = fpages t * t.opages_per_fpage
let physical_data_bytes t = fpages t * fpage_data_bytes t
let codewords_per_fpage t = t.opages_per_fpage * t.codewords_per_opage

let pp fmt t =
  Format.fprintf fmt
    "%d blocks x %d fPages x (%d x %dB oPages + %dB spare) = %d MiB" t.blocks
    t.pages_per_block t.opages_per_fpage t.opage_bytes t.spare_bytes
    (physical_data_bytes t / (1024 * 1024))
