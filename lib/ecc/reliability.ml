let default_codeword_target = 1e-11

let codeword_fail_prob (params : Code_params.t) ~rber =
  Sim.Special.binomial_tail params.n_bits rber params.capability

let page_fail_prob params ~codewords ~rber =
  if codewords <= 0 then invalid_arg "Reliability.page_fail_prob: codewords";
  let p = codeword_fail_prob params ~rber in
  1. -. ((1. -. p) ** float_of_int codewords)

(* The bisection solve below is pure in (params, target) but costs dozens
   of binomial-tail evaluations; fleet experiments ask for the same handful
   of code levels once per device, so memoize.  Code_params.t is a scalar
   record, fine as a structural hash key.  The mutex keeps the table safe
   under [Parallel.Pool] domains; values are immutable floats. *)
let tolerable_cache : (Code_params.t * float, float) Hashtbl.t =
  Hashtbl.create 32

let tolerable_mutex = Mutex.create ()

let tolerable_rber ?(target = default_codeword_target)
    (params : Code_params.t) =
  Mutex.protect tolerable_mutex (fun () ->
      let key = (params, target) in
      match Hashtbl.find_opt tolerable_cache key with
      | Some rber -> rber
      | None ->
          (* codeword_fail_prob is monotonically increasing in rber. *)
          let rber =
            Sim.Special.solve_monotone
              ~f:(fun rber -> codeword_fail_prob params ~rber)
              ~target ~lo:0. ~hi:0.5
          in
          Hashtbl.add tolerable_cache key rber;
          rber)

type tail = {
  params : Code_params.t;
  codewords : int;
  zero_upto : float;
  one_from : float;
}

(* Non-negative floats order like their bit patterns, and every pattern
   up to 1.0 (0x3FF0...) fits an OCaml int. *)
let bits x = Int64.to_int (Int64.bits_of_float x)
let of_bits b = Int64.float_of_bits (Int64.of_int b)

(* [lo] satisfies [holds], [hi] does not: narrow to adjacent patterns. *)
let rec bisect_bits ~holds lo hi =
  if hi - lo <= 1 then (lo, hi)
  else
    let mid = lo + ((hi - lo) / 2) in
    if holds (of_bits mid) then bisect_bits ~holds mid hi
    else bisect_bits ~holds lo mid

(* About 62 tail evaluations per threshold, paid once per code: the read
   path asks for the same few (code, codewords) pairs on every device. *)
let tail_cache : (Code_params.t * int, tail) Hashtbl.t = Hashtbl.create 16

let tail params ~codewords =
  Mutex.protect tolerable_mutex (fun () ->
      let key = (params, codewords) in
      match Hashtbl.find_opt tail_cache key with
      | Some tail -> tail
      | None ->
          let fail rber = page_fail_prob params ~codewords ~rber in
          (* fail 0. = 0. and fail 1. = 1. through the binomial tail's
             own p <= 0 and p >= 1 branches. *)
          let zero, _ =
            bisect_bits ~holds:(fun rber -> fail rber = 0.) (bits 0.) (bits 1.)
          in
          let _, one =
            bisect_bits ~holds:(fun rber -> fail rber <> 1.) zero (bits 1.)
          in
          let tail =
            { params; codewords; zero_upto = of_bits zero;
              one_from = of_bits one }
          in
          Hashtbl.add tail_cache key tail;
          tail)

let tail_prob tail ~rber =
  if rber <= tail.zero_upto then 0.
  else if rber >= tail.one_from then 1.
  else page_fail_prob tail.params ~codewords:tail.codewords ~rber

let expected_errors (params : Code_params.t) ~rber =
  float_of_int params.n_bits *. rber
