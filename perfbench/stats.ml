let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the benchmark's quartiles match the ones its consumers
   compute from the same values. *)
let quartiles samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = Stdlib.min (n - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median samples =
  let _, m, _ = quartiles samples in
  m

let min_beyond = 10

(* Nearest-rank percentile.  A tail percentile read off fewer than
   [min_beyond] samples above it is one or two outliers, not a
   percentile, so it is withheld. *)
let percentile samples q =
  let n = Array.length samples in
  if q < 0. || q > 1. then invalid_arg "Stats.percentile: q outside [0, 1]";
  let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  if n = 0 || n - rank < min_beyond then None
  else Some (sorted samples).(rank - 1)

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n
