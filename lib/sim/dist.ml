let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate must be > 0";
  let u = 1. -. Rng.unit_float rng in
  -.log u /. rate

let normal rng ~mean ~stddev =
  let u1 = 1. -. Rng.unit_float rng in
  let u2 = Rng.unit_float rng in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~stddev:sigma)

let poisson_knuth rng mean =
  let threshold = exp (-.mean) in
  let rec loop k p =
    let p = p *. Rng.unit_float rng in
    if p <= threshold then k else loop (k + 1) p
  in
  loop 0 1.

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: mean must be >= 0";
  if mean = 0. then 0
  else if mean < 30. then poisson_knuth rng mean
  else
    let z = normal rng ~mean ~stddev:(sqrt mean) in
    Stdlib.max 0 (int_of_float (Float.round z))

let binomial_exact rng n p =
  let count = ref 0 in
  for _ = 1 to n do
    if Rng.chance rng p then incr count
  done;
  !count

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: n must be >= 0";
  if p <= 0. then 0
  else if p >= 1. then n
  else if n <= 64 then binomial_exact rng n p
  else
    let mean = float_of_int n *. p in
    if mean < 16. then
      (* Rare-event regime: Poisson approximation is accurate and O(count). *)
      Stdlib.min n (poisson rng ~mean)
    else
      let variance = mean *. (1. -. p) in
      let z = normal rng ~mean ~stddev:(sqrt variance) in
      Stdlib.max 0 (Stdlib.min n (int_of_float (Float.round z)))

module Zipf = struct
  type t = { cdf : float array }

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n must be > 0";
    if theta < 0. then invalid_arg "Zipf.create: theta must be >= 0";
    let weights =
      Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta)
    in
    let total = Array.fold_left ( +. ) 0. weights in
    let cdf = Array.make n 0. in
    let acc = ref 0. in
    Array.iteri
      (fun i w ->
        acc := !acc +. (w /. total);
        cdf.(i) <- !acc)
      weights;
    cdf.(n - 1) <- 1.;
    { cdf }

  let n t = Array.length t.cdf

  let sample t rng =
    let u = Rng.unit_float rng in
    (* Smallest index whose cumulative weight exceeds u. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if t.cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    search 0 (Array.length t.cdf - 1)
end
