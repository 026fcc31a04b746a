type t = { bits : int; data : Bytes.t }

let create bits =
  if bits < 0 then invalid_arg "Bitarray.create: negative length";
  { bits; data = Bytes.make ((bits + 7) / 8) '\000' }

let length t = t.bits

let check t i =
  if i < 0 || i >= t.bits then invalid_arg "Bitarray: index out of bounds"

let get t i =
  check t i;
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i value =
  check t i;
  let byte = Char.code (Bytes.get t.data (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  let byte = if value then byte lor mask else byte land lnot mask in
  Bytes.set t.data (i lsr 3) (Char.chr (byte land 0xff))

let flip t i = set t i (not (get t i))
let copy t = { bits = t.bits; data = Bytes.copy t.data }

let popcount_byte =
  let table = Array.make 256 0 in
  for b = 1 to 255 do
    table.(b) <- table.(b lsr 1) + (b land 1)
  done;
  fun b -> table.(b)

let popcount t =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + popcount_byte (Char.code c)) t.data;
  !acc

let equal a b = a.bits = b.bits && Bytes.equal a.data b.data

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t i true
      | _ -> invalid_arg "Bitarray.of_string: expected '0' or '1'")
    s;
  t

let to_string t =
  String.init t.bits (fun i -> if get t i then '1' else '0')

let randomize rng t =
  for i = 0 to Bytes.length t.data - 1 do
    Bytes.set t.data i (Char.chr (Sim.Rng.int rng 256))
  done;
  (* Clear padding bits past [t.bits] so popcount/equal stay meaningful. *)
  let tail = t.bits land 7 in
  if tail <> 0 && Bytes.length t.data > 0 then begin
    let last = Bytes.length t.data - 1 in
    let mask = (1 lsl tail) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land mask))
  end

let iter_set t f =
  for byte_index = 0 to Bytes.length t.data - 1 do
    let byte = Char.code (Bytes.get t.data byte_index) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then f ((byte_index lsl 3) lor bit)
      done
  done
