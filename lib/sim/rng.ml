(* xoshiro256** on 32-bit halves held in native ints.

   OCaml's [int64] is boxed (this tree is built without flambda), so a
   state representation with [int64] fields costs ~29 minor words per
   draw — at fleet scale the RNG alone becomes the dominant allocator
   and, under multi-domain runs, the dominant source of minor-GC
   stop-the-world rendezvous.  Splitting every 64-bit quantity into two
   32-bit halves keeps the whole hot path in immediate ints: zero
   allocation per draw, bit-identical output. *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* result halves of the most recent [step]; scratch, not state *)
  mutable rh : int;
  mutable rl : int;
}

let m32 = 0xFFFF_FFFF
let two31 = 0x8000_0000

(* splitmix64: used to expand a small seed into full state and to derive
   independent streams for [split].  Cold path — boxed int64 is fine. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hi64 x = Int64.to_int (Int64.shift_right_logical x 32)
let lo64 x = Int64.to_int (Int64.logand x 0xFFFF_FFFFL)

let of_halves h l =
  Int64.logor (Int64.shift_left (Int64.of_int h) 32) (Int64.of_int l)

let of_seed64 seed =
  let state = ref seed in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  {
    s0h = hi64 s0;
    s0l = lo64 s0;
    s1h = hi64 s1;
    s1l = lo64 s1;
    s2h = hi64 s2;
    s2l = lo64 s2;
    s3h = hi64 s3;
    s3l = lo64 s3;
    rh = 0;
    rl = 0;
  }

let create seed = of_seed64 (Int64.of_int seed)

let copy t =
  {
    s0h = t.s0h;
    s0l = t.s0l;
    s1h = t.s1h;
    s1l = t.s1l;
    s2h = t.s2h;
    s2l = t.s2l;
    s3h = t.s3h;
    s3l = t.s3l;
    rh = t.rh;
    rl = t.rl;
  }

let equal a b =
  a.s0h = b.s0h && a.s0l = b.s0l && a.s1h = b.s1h && a.s1l = b.s1l
  && a.s2h = b.s2h && a.s2l = b.s2l && a.s3h = b.s3h && a.s3l = b.s3l

(* One xoshiro256** step:
     result = rotl64 (s1 * 5) 7 * 9
     tmp = s1 << 17
     s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= tmp; s3 = rotl64 s3 45
   Each 64-bit op decomposes onto the halves: shifts carry bits across
   the boundary, adds propagate one carry, *5 and *9 are shift-adds, and
   rotl by k >= 32 swaps the halves first. *)
let[@inline] step t =
  let s1h = t.s1h and s1l = t.s1l in
  (* x5 = s1 * 5 = s1 + (s1 << 2) *)
  let ah = ((s1h lsl 2) lor (s1l lsr 30)) land m32 in
  let al = (s1l lsl 2) land m32 in
  let sum = s1l + al in
  let x5l = sum land m32 in
  let x5h = (s1h + ah + (sum lsr 32)) land m32 in
  (* r7 = rotl64 x5 7 *)
  let r7h = ((x5h lsl 7) lor (x5l lsr 25)) land m32 in
  let r7l = ((x5l lsl 7) lor (x5h lsr 25)) land m32 in
  (* result = r7 * 9 = r7 + (r7 << 3) *)
  let bh = ((r7h lsl 3) lor (r7l lsr 29)) land m32 in
  let bl = (r7l lsl 3) land m32 in
  let sum = r7l + bl in
  t.rl <- sum land m32;
  t.rh <- (r7h + bh + (sum lsr 32)) land m32;
  (* tmp = s1 << 17 *)
  let th = ((s1h lsl 17) lor (s1l lsr 15)) land m32 in
  let tl = (s1l lsl 17) land m32 in
  let s2h = t.s2h lxor t.s0h and s2l = t.s2l lxor t.s0l in
  let s3h = t.s3h lxor s1h and s3l = t.s3l lxor s1l in
  t.s1h <- s1h lxor s2h;
  t.s1l <- s1l lxor s2l;
  t.s0h <- t.s0h lxor s3h;
  t.s0l <- t.s0l lxor s3l;
  t.s2h <- s2h lxor th;
  t.s2l <- s2l lxor tl;
  (* s3 = rotl64 s3' 45: rotate by 32 (swap halves) then by 13 *)
  t.s3h <- ((s3l lsl 13) lor (s3h lsr 19)) land m32;
  t.s3l <- ((s3h lsl 13) lor (s3l lsr 19)) land m32

let bits64 t =
  step t;
  of_halves t.rh t.rl

let split t = of_seed64 (bits64 t)

(* Rejection sampling to avoid modulo bias, on a 63-bit draw
   raw = result >>> 1 = rh * 2^31 + (rl >>> 1).  With
   u = 2^63 mod bound, a draw is biased iff raw >= 2^63 - u, which
   on the halves is exactly rh = 2^32-1 && (rl >>> 1) >= 2^31 - u;
   and raw mod bound = ((rh mod bound) * (2^31 mod bound)
   + (rl >>> 1)) mod bound, which never overflows 63-bit ints for
   bound <= 2^31.  Top-level recursion: a local [let rec draw] would
   allocate its closure on every call. *)
let rec fast_draw t bound lim p31 =
  step t;
  let rl = t.rl lsr 1 in
  if t.rh = m32 && rl >= lim then fast_draw t bound lim p31
  else ((t.rh mod bound) * p31 + rl) mod bound

(* bounds above 2^31 are off the hot path; boxed arithmetic is fine *)
let rec slow_draw t bound64 =
  let raw = Int64.shift_right_logical (bits64 t) 1 in
  let candidate = Int64.rem raw bound64 in
  if Int64.sub raw candidate > Int64.sub Int64.max_int (Int64.sub bound64 1L)
  then slow_draw t bound64
  else Int64.to_int candidate

(* [fast_draw]'s rejection limit 2^31 - u, u = 2^63 mod bound (2^62 mod
   bound is max_int mod bound + 1, reduced).  Three constant divisions:
   a caller drawing many times under one bound computes it once through
   [bounded]. *)
let[@inline] rejection_limit bound =
  let h62 = (max_int mod bound + 1) mod bound in
  two31 - ((h62 + h62) mod bound)

(* [lim] and [p31] are [fast_draw]'s arguments; both are 0 for bounds
   above 2^31, which go through [slow_draw]. *)
type bounded = { bound : int; lim : int; p31 : int }

let bounded bound =
  if bound <= 0 then invalid_arg "Rng.bounded: bound must be positive";
  if bound <= two31 then
    { bound; lim = rejection_limit bound; p31 = two31 mod bound }
  else { bound; lim = 0; p31 = 0 }

let draw t b =
  if b.bound <= two31 then fast_draw t b.bound b.lim b.p31
  else slow_draw t (Int64.of_int b.bound)

(* [draw t (bounded bound)] without the record, so a one-off draw
   allocates nothing. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= two31 then begin
    let lim = rejection_limit bound in
    fast_draw t bound lim (two31 mod bound)
  end
  else slow_draw t (Int64.of_int bound)

(* result >>> 11 = rh * 2^21 + (rl >>> 11): 53 bits, exact as a float *)
let unit_float t =
  step t;
  float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) *. 0x1p-53

let float t bound = unit_float t *. bound

let bool t =
  step t;
  t.rl land 1 = 1

let chance t p =
  if p <= 0. then false
  else if p >= 1. then true
  else begin
    (* raw53 * 2^-53 < p <=> raw53 < p * 2^53: both scalings by a power
       of two are exact for p in (0,1), and comparing this way keeps the
       draw unboxed. *)
    step t;
    float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) < p *. 0x1p53
  end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
