type t = {
  order : int; (* 2^m - 1 *)
  antilog_table : int array; (* alpha^i at index i, doubled for easy reduction *)
  log_table : int array; (* log_table.(x) = i with alpha^i = x, x >= 1 *)
}

(* One standard primitive polynomial per degree (Lin & Costello tables). *)
let primitive_poly_for = function
  | 3 -> 0b1011
  | 4 -> 0b10011
  | 5 -> 0b100101
  | 6 -> 0b1000011
  | 7 -> 0b10001001
  | 8 -> 0b100011101
  | 9 -> 0b1000010001
  | 10 -> 0b10000001001
  | 11 -> 0b100000000101
  | 12 -> 0b1000001010011
  | 13 -> 0b10000000011011
  | 14 -> 0b100010001000011
  | 15 -> 0b1000000000000011
  | m -> invalid_arg (Printf.sprintf "Galois.create: unsupported m = %d" m)

let create m =
  let primitive_poly = primitive_poly_for m in
  let order = (1 lsl m) - 1 in
  let antilog_table = Array.make (2 * order) 0 in
  let log_table = Array.make (order + 1) 0 in
  let x = ref 1 in
  for i = 0 to order - 1 do
    antilog_table.(i) <- !x;
    antilog_table.(i + order) <- !x;
    log_table.(!x) <- i;
    x := !x lsl 1;
    if !x land (1 lsl m) <> 0 then x := !x lxor primitive_poly
  done;
  { order; antilog_table; log_table }

let order t = t.order
let add _ a b = a lxor b

let mul t a b =
  if a = 0 || b = 0 then 0
  else t.antilog_table.(t.log_table.(a) + t.log_table.(b))

let inv t a =
  if a = 0 then raise Division_by_zero
  else t.antilog_table.(t.order - t.log_table.(a))

let div t a b = mul t a (inv t b)

let alpha_pow t i =
  let i = ((i mod t.order) + t.order) mod t.order in
  t.antilog_table.(i)
