(* Lanczos approximation, g = 7, n = 9 coefficients; accurate to ~15 digits
   for x > 0. *)
let lanczos_coefficients =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula keeps accuracy for small x. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else
    let x = x -. 1. in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

let log_choose n k =
  if k < 0 || k > n then invalid_arg "Special.log_choose";
  log_gamma (float_of_int n +. 1.)
  -. log_gamma (float_of_int k +. 1.)
  -. log_gamma (float_of_int (n - k) +. 1.)

(* Continued fraction for the incomplete beta function (Lentz's method). *)
let beta_continued_fraction a b x =
  let max_iterations = 500 in
  let tiny = 1e-300 in
  let eps = 3e-16 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if Float.abs !d < tiny then d := tiny;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= max_iterations do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    (* even step *)
    let numerator = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (numerator *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1. +. (numerator /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    (* odd step *)
    let numerator =
      -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
    in
    d := 1. +. (numerator *. !d);
    if Float.abs !d < tiny then d := tiny;
    c := 1. +. (numerator /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1. /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if Float.abs (delta -. 1.) < eps then continue := false;
    incr m
  done;
  !h

let betai a b x =
  if a <= 0. || b <= 0. then invalid_arg "Special.betai: a, b must be > 0";
  if x < 0. || x > 1. then invalid_arg "Special.betai: x outside [0,1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else
    let log_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x)
      +. (b *. log (1. -. x))
    in
    let front = exp log_front in
    (* Use the symmetry that makes the continued fraction converge fast. *)
    if x < (a +. 1.) /. (a +. b +. 2.) then
      front *. beta_continued_fraction a b x /. a
    else 1. -. (front *. beta_continued_fraction b a (1. -. x) /. b)

let binomial_cdf n p t =
  if n < 0 then invalid_arg "Special.binomial_cdf: n < 0";
  if t < 0 then 0.
  else if t >= n then 1.
  else if p <= 0. then 1.
  else if p >= 1. then 0.
  else
    (* P(X <= t) = I_{1-p}(n - t, t + 1) *)
    betai (float_of_int (n - t)) (float_of_int (t + 1)) (1. -. p)

let binomial_tail n p t = 1. -. binomial_cdf n p t

(* Log-sum-exp accumulation of P(X = k) for k in (t, n]. *)
let binomial_tail_exact_sum n p t =
  if t >= n then 0.
  else if p <= 0. then 0.
  else if p >= 1. then 1.
  else begin
    let log_p = log p and log_q = log (1. -. p) in
    let log_terms =
      List.init (n - t) (fun i ->
          let k = t + 1 + i in
          log_choose n k
          +. (float_of_int k *. log_p)
          +. (float_of_int (n - k) *. log_q))
    in
    let max_term = List.fold_left Float.max neg_infinity log_terms in
    if max_term = neg_infinity then 0.
    else
      let sum =
        List.fold_left (fun acc lt -> acc +. exp (lt -. max_term)) 0. log_terms
      in
      exp (max_term +. log sum)
  end

let solve_monotone ~f ~target ~lo ~hi =
  let lo = ref lo and hi = ref hi in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid < target then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)
