type t = int array

let zero = [| 0 |]
let one = [| 1 |]

let normalize coefficients =
  let last = ref (Array.length coefficients - 1) in
  while !last > 0 && coefficients.(!last) = 0 do
    decr last
  done;
  Array.sub coefficients 0 (!last + 1)

let degree p = if Array.length p = 1 && p.(0) = 0 then -1 else Array.length p - 1
let is_zero p = degree p = -1
let coefficient p i = if i < Array.length p then p.(i) else 0

let add field a b =
  let len = Stdlib.max (Array.length a) (Array.length b) in
  normalize
    (Array.init len (fun i ->
         Galois.add field (coefficient a i) (coefficient b i)))

let mul field a b =
  if is_zero a || is_zero b then zero
  else begin
    let result = Array.make (degree a + degree b + 1) 0 in
    Array.iteri
      (fun i ai ->
        if ai <> 0 then
          Array.iteri
            (fun j bj ->
              if bj <> 0 then
                result.(i + j) <-
                  Galois.add field result.(i + j) (Galois.mul field ai bj))
            b)
      a;
    normalize result
  end

let scale field s p =
  if s = 0 then zero else normalize (Array.map (Galois.mul field s) p)

let shift p k =
  if is_zero p then zero
  else begin
    let result = Array.make (Array.length p + k) 0 in
    Array.blit p 0 result k (Array.length p);
    result
  end

let eval field p x =
  let acc = ref 0 in
  for i = Array.length p - 1 downto 0 do
    acc := Galois.add field (Galois.mul field !acc x) p.(i)
  done;
  !acc

let minimal_polynomial field e =
  let order = Galois.order field in
  (* Conjugacy class of alpha^e under Frobenius squaring. *)
  let rec class_of acc j =
    let j = j mod order in
    if List.mem j acc then acc else class_of (j :: acc) (2 * j)
  in
  let conjugates = class_of [] (((e mod order) + order) mod order) in
  List.fold_left
    (fun acc j ->
      (* multiply by (x + alpha^j) *)
      mul field acc [| Galois.alpha_pow field j; 1 |])
    one conjugates
