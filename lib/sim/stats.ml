module Histogram = struct
  (* A positive float's bucket is its bit pattern shifted right past all
     but the top [sub_bits] mantissa bits: exponent and sub-bucket in
     one integer, monotone in the value (IEEE-754 orders positive floats
     like their encodings).  [infinity] is index [top]; the [<= 0]
     bucket sits below index 0 in its own counter. *)
  let sub_bits = 4
  let shift = 52 - sub_bits

  let index_of_pos x =
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) shift)

  let lower_edge i =
    Int64.float_of_bits (Int64.shift_left (Int64.of_int i) shift)
  let top = index_of_pos infinity

  (* All-float record: stored flat, so updates do not allocate. *)
  type moments = { mutable sum : float; mutable lo : float; mutable hi : float }

  type t = {
    mutable counts : int array; (* counts.(j) is bucket [base + j] *)
    mutable base : int;
    mutable nonpos : int; (* observations <= 0 *)
    mutable count : int;
    m : moments;
  }

  let create () =
    { counts = [||]; base = 0; nonpos = 0; count = 0;
      m = { sum = 0.; lo = infinity; hi = neg_infinity } }

  let bucket_index x =
    if x > 0. then index_of_pos x
    else if x <= 0. then -1
    else invalid_arg "Histogram: nan has no bucket"

  (* Widen [counts] to cover bucket [i]: at least double, toward [i], so
     a range growing one bucket at a time reallocates O(log) times. *)
  let widen t i =
    let len = Array.length t.counts in
    if len = 0 then begin
      t.counts <- Array.make 16 0;
      t.base <- i
    end
    else if i < t.base || i >= t.base + len then begin
      let lo = Stdlib.min i t.base and hi = Stdlib.max i (t.base + len - 1) in
      let len' = Stdlib.max (hi - lo + 1) (2 * len) in
      let base' = if i < t.base then Stdlib.max 0 (hi + 1 - len') else lo in
      let counts = Array.make len' 0 in
      Array.blit t.counts 0 counts (t.base - base') len;
      t.counts <- counts;
      t.base <- base'
    end

  let bump t i n =
    if i < t.base || i - t.base >= Array.length t.counts then widen t i;
    t.counts.(i - t.base) <- t.counts.(i - t.base) + n

  let add t x =
    if x > 0. then bump t (index_of_pos x) 1
    else if x <= 0. then t.nonpos <- t.nonpos + 1
    else invalid_arg "Histogram.add: nan";
    t.count <- t.count + 1;
    let m = t.m in
    m.sum <- m.sum +. x;
    if x < m.lo then m.lo <- x;
    if x > m.hi then m.hi <- x

  let count t = t.count
  let sum t = t.m.sum
  let mean t = if t.count = 0 then nan else t.m.sum /. float_of_int t.count
  let min t = if t.count = 0 then nan else t.m.lo
  let max t = if t.count = 0 then nan else t.m.hi

  (* Bucket midpoint clamped to the observed range: the clamp only ever
     moves it toward the exact values, which all lie in [lo, hi]. *)
  let representative t i =
    let mid =
      if i < 0 then 0.
      else if i >= top then infinity
      else
        let lo = lower_edge i in
        lo +. (0.5 *. (lower_edge (i + 1) -. lo))
    in
    Float.min t.m.hi (Float.max t.m.lo mid)

  let percentile t q =
    if t.count = 0 then nan
    else begin
      let rank =
        if q >= 1. then t.count
        else
          Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
      in
      if rank <= t.nonpos then representative t (-1)
      else begin
        let rec walk j seen =
          let seen = seen + t.counts.(j) in
          if seen >= rank then j else walk (j + 1) seen
        in
        representative t (t.base + walk 0 t.nonpos)
      end
    end

  let count_from t x =
    let b = bucket_index x in
    if b < 0 then t.count
    else begin
      let n = ref 0 in
      for j = Stdlib.max 0 (b - t.base) to Array.length t.counts - 1 do
        n := !n + t.counts.(j)
      done;
      !n
    end

  let fold t ~init f =
    let acc = ref init in
    if t.nonpos > 0 then acc := f !acc (representative t (-1)) t.nonpos;
    Array.iteri
      (fun j n ->
        if n > 0 then acc := f !acc (representative t (t.base + j)) n)
      t.counts;
    !acc

  let merge ~into src =
    Array.iteri
      (fun j n -> if n > 0 then bump into (src.base + j) n)
      src.counts;
    into.nonpos <- into.nonpos + src.nonpos;
    into.count <- into.count + src.count;
    into.m.sum <- into.m.sum +. src.m.sum;
    if src.m.lo < into.m.lo then into.m.lo <- src.m.lo;
    if src.m.hi > into.m.hi then into.m.hi <- src.m.hi
end
