type t = {
  field : Galois.t;
  n : int;
  k : int;
  capability : int;
  generator : Gf_poly.t; (* over GF(2): coefficients 0/1 *)
  parity : int; (* deg g = n - k *)
}

let create ~m ~capability =
  if capability <= 0 then invalid_arg "Bch.create: capability must be > 0";
  let field = Galois.create m in
  let n = Galois.order field in
  (* g(x) = lcm of minimal polynomials of alpha^1 .. alpha^2t.  Conjugacy
     classes repeat, so track which exponents are already covered. *)
  let covered = Array.make n false in
  let generator = ref Gf_poly.one in
  for i = 1 to 2 * capability do
    let i = i mod n in
    if not covered.(i) then begin
      (* Mark the whole conjugacy class of alpha^i. *)
      let rec mark j =
        if not covered.(j) then begin
          covered.(j) <- true;
          mark (2 * j mod n)
        end
      in
      mark i;
      generator :=
        Gf_poly.mul field !generator (Gf_poly.minimal_polynomial field i)
    end
  done;
  let generator = !generator in
  Array.iter
    (fun c ->
      if c <> 0 && c <> 1 then
        (* The lcm of minimal polynomials always lies over GF(2); anything
           else signals a bug in the field tables. *)
        assert false)
    generator;
  let parity = Gf_poly.degree generator in
  if parity >= n then
    invalid_arg "Bch.create: capability too large for this field (k <= 0)";
  { field; n; k = n - parity; capability; generator; parity }

let n t = t.n
let k t = t.k
let capability t = t.capability
let parity_bits t = t.parity

(* Systematic encoding: parity = d(x) x^{deg g} mod g(x).  Data bit i of
   the shortened message corresponds to codeword coefficient
   x^{parity + i}; the LFSR division consumes the data highest-degree
   first, one bit per step. *)
let encode t data =
  let data_bits = Bitarray.length data in
  if data_bits > t.k then invalid_arg "Bch.encode: data longer than k";
  let parity = t.parity in
  let register = Array.make parity false in
  for i = data_bits - 1 downto 0 do
    let feedback = Bitarray.get data i <> register.(parity - 1) in
    (* Shift the register up one degree, folding in g(x) on feedback. *)
    for j = parity - 1 downto 1 do
      register.(j) <-
        (if feedback && Gf_poly.coefficient t.generator j = 1 then
           not register.(j - 1)
         else register.(j - 1))
    done;
    register.(0) <- feedback && Gf_poly.coefficient t.generator 0 = 1
  done;
  let out = Bitarray.create parity in
  Array.iteri (fun i bit -> if bit then Bitarray.set out i true) register;
  out

(* Syndrome S_i = r(alpha^i).  The received polynomial r(x) has parity bits
   at degrees [0, parity) and data bits at degrees [parity, parity+len). *)
let syndromes t ~data ~parity =
  if Bitarray.length parity <> t.parity then
    invalid_arg "Bch: parity length mismatch";
  if Bitarray.length data > t.k then invalid_arg "Bch: data longer than k";
  let count = 2 * t.capability in
  let syndromes = Array.make (count + 1) 0 in
  let accumulate position =
    for i = 1 to count do
      syndromes.(i) <-
        Galois.add t.field syndromes.(i) (Galois.alpha_pow t.field (i * position))
    done
  in
  Bitarray.iter_set parity accumulate;
  Bitarray.iter_set data (fun i -> accumulate (t.parity + i));
  syndromes

(* Berlekamp-Massey: returns the error locator polynomial sigma(x). *)
let berlekamp_massey t syndromes =
  let field = t.field in
  let count = 2 * t.capability in
  let sigma = ref Gf_poly.one in
  let prev = ref Gf_poly.one in
  let length = ref 0 in
  let shift_amount = ref 1 in
  let prev_discrepancy = ref 1 in
  for step = 0 to count - 1 do
    (* discrepancy d = S_{step+1} + sum sigma_i * S_{step+1-i} *)
    let discrepancy = ref syndromes.(step + 1) in
    for i = 1 to !length do
      let s_index = step + 1 - i in
      if s_index >= 1 then
        discrepancy :=
          Galois.add field !discrepancy
            (Galois.mul field (Gf_poly.coefficient !sigma i) syndromes.(s_index))
    done;
    if !discrepancy = 0 then incr shift_amount
    else begin
      let correction =
        Gf_poly.scale field
          (Galois.div field !discrepancy !prev_discrepancy)
          (Gf_poly.shift !prev !shift_amount)
      in
      let candidate = Gf_poly.add field !sigma correction in
      if 2 * !length <= step then begin
        prev := !sigma;
        prev_discrepancy := !discrepancy;
        length := step + 1 - !length;
        shift_amount := 1;
        sigma := candidate
      end
      else begin
        sigma := candidate;
        incr shift_amount
      end
    end
  done;
  !sigma

type decode_result = Corrected of int list | Uncorrectable

let decode t ~data ~parity =
  let syndromes = syndromes t ~data ~parity in
  if Array.for_all (fun x -> x = 0) syndromes then Corrected []
  else begin
    let sigma = berlekamp_massey t syndromes in
    let errors = Gf_poly.degree sigma in
    if errors > t.capability then Uncorrectable
    else begin
      (* Chien search: position p is in error iff sigma(alpha^{-p}) = 0.
         Only positions within the (possibly shortened) received word are
         valid; a root elsewhere means the decoder strayed outside the
         word, i.e. the error pattern was uncorrectable. *)
      let parity_len = t.parity in
      let used = parity_len + Bitarray.length data in
      let positions = ref [] in
      let root_count = ref 0 in
      for p = 0 to t.n - 1 do
        if Gf_poly.eval t.field sigma (Galois.alpha_pow t.field (-p)) = 0
        then begin
          incr root_count;
          positions := p :: !positions
        end
      done;
      if !root_count <> errors || List.exists (fun p -> p >= used) !positions
      then Uncorrectable
      else begin
        let data_positions = ref [] in
        List.iter
          (fun p ->
            if p < parity_len then Bitarray.flip parity p
            else begin
              Bitarray.flip data (p - parity_len);
              data_positions := (p - parity_len) :: !data_positions
            end)
          !positions;
        Corrected (List.sort compare !data_positions)
      end
    end
  end
