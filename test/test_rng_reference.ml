(* Differential test pinning Sim.Rng to a boxed-int64 reference.

   The production generator runs xoshiro256** on 32-bit halves in
   native ints so that every draw is allocation-free; this file keeps
   the straightforward Int64 transliteration of Blackman & Vigna's
   algorithm and checks the two produce identical streams — bits,
   bounded ints (including the rejection-sampling draw count), floats,
   coins — across seeds and awkward bounds.  Any future change to the
   half-word arithmetic that perturbs a single bit fails here first. *)

module Ref = struct
  type t = {
    mutable s0 : int64;
    mutable s1 : int64;
    mutable s2 : int64;
    mutable s3 : int64;
  }

  let splitmix64_next state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let of_seed64 seed =
    let state = ref seed in
    let s0 = splitmix64_next state in
    let s1 = splitmix64_next state in
    let s2 = splitmix64_next state in
    let s3 = splitmix64_next state in
    { s0; s1; s2; s3 }

  let create seed = of_seed64 (Int64.of_int seed)

  let rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let int t bound =
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let raw = Int64.shift_right_logical (bits64 t) 1 in
      let candidate = Int64.rem raw bound64 in
      if
        Int64.sub raw candidate
        > Int64.sub Int64.max_int (Int64.sub bound64 1L)
      then draw ()
      else Int64.to_int candidate
    in
    draw ()

  let unit_float t =
    let raw = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float raw *. 0x1p-53

  let bool t = Int64.logand (bits64 t) 1L = 1L

  let chance t p =
    if p <= 0. then false else if p >= 1. then true else unit_float t < p
end

let checkb msg expected actual = Alcotest.(check bool) msg expected actual
let checki msg expected actual = Alcotest.(check int) msg expected actual

let test_bits64_stream () =
  for seed = 0 to 100 do
    let a = Ref.create seed and b = Sim.Rng.create seed in
    for _ = 1 to 500 do
      checkb "bits64 identical" true
        (Int64.equal (Ref.bits64 a) (Sim.Rng.bits64 b))
    done
  done

let awkward_bounds =
  [
    1; 2; 3; 5; 7; 15; 16; 17; 255; 256; 257; 1000; 1577; 4093; 65536;
    1_000_003;
    (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1;
    (* the fast-path boundary: 2^31 is the last half-word bound *)
    (1 lsl 31) - 1; 1 lsl 31; (1 lsl 31) + 1;
    (* the boxed fallback *)
    (1 lsl 40) + 7; max_int - 1; max_int;
    (* 2^63 mod (3 * 2^60) = 2^61: a quarter of all draws reject *)
    3 * (1 lsl 60);
  ]

let test_int_all_bounds () =
  List.iter
    (fun bound ->
      let seed = bound land 0xFFFF in
      let a = Ref.create seed and b = Sim.Rng.create seed in
      for _ = 1 to 5_000 do
        let x = Ref.int a bound and y = Sim.Rng.int b bound in
        if x <> y then
          Alcotest.failf "int %d diverged: %d vs %d" bound x y
      done;
      (* same number of raw draws consumed: next bits agree *)
      checkb "state in sync after int" true
        (Int64.equal (Ref.bits64 a) (Sim.Rng.bits64 b)))
    awkward_bounds

let test_float_bool_chance () =
  let a = Ref.create 99 and b = Sim.Rng.create 99 in
  for _ = 1 to 20_000 do
    let x = Ref.unit_float a and y = Sim.Rng.unit_float b in
    if x <> y then Alcotest.failf "unit_float diverged: %h vs %h" x y
  done;
  for _ = 1 to 20_000 do
    checkb "bool identical" (Ref.bool a) (Sim.Rng.bool b)
  done;
  let ps = [| 0.; 1.; -0.25; 0.5; 1e-9; 0.999999; 0.25; 3e-3; 0.7 |] in
  for i = 1 to 20_000 do
    let p = ps.(i mod Array.length ps) in
    checkb "chance identical" (Ref.chance a p) (Sim.Rng.chance b p)
  done;
  checkb "state in sync after floats" true
    (Int64.equal (Ref.bits64 a) (Sim.Rng.bits64 b))

(* A precomputed bound draws exactly what [int] draws: the same values
   and the same generator positions, on both sides of the 2^31 split
   between the unboxed and the boxed draw. *)
let test_draw_matches_int () =
  let pick = Sim.Rng.create 41 in
  let bounds =
    [ 1; 2; 3; 64; 1000; 1 lsl 31; (1 lsl 31) + 1; 1 lsl 40; max_int ]
    @ List.init 12 (fun _ -> 1 + Sim.Rng.int pick (1 lsl 31))
    @ List.init 4 (fun _ -> (1 lsl 31) + Sim.Rng.int pick (1 lsl 40))
  in
  List.iteri
    (fun i bound ->
      let a = Sim.Rng.create (100 + i) in
      let b = Sim.Rng.copy a in
      let bounded = Sim.Rng.bounded bound in
      for _ = 1 to 2_000 do
        checki
          (Printf.sprintf "draw = int under bound %d" bound)
          (Sim.Rng.int a bound) (Sim.Rng.draw b bounded);
        if not (Sim.Rng.equal a b) then
          Alcotest.failf "generators diverged under bound %d" bound
      done)
    bounds;
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.bounded: bound must be positive") (fun () ->
      ignore (Sim.Rng.bounded 0))

let test_int_allocation_free () =
  let r = Sim.Rng.create 3 in
  let acc = ref 0 in
  for _ = 1 to 1_000 do
    acc := !acc + Sim.Rng.int r 1577
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    acc := !acc + Sim.Rng.int r 1577
  done;
  ignore (Sys.opaque_identity !acc);
  let per_draw = (Gc.minor_words () -. w0) /. 50_000. in
  if per_draw > 0.01 then
    Alcotest.failf "Rng.int allocates %.3f words/draw (expected 0)" per_draw;
  let bounded = Sim.Rng.bounded 1577 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    acc := !acc + Sim.Rng.draw r bounded
  done;
  ignore (Sys.opaque_identity !acc);
  let per_draw = (Gc.minor_words () -. w0) /. 50_000. in
  if per_draw > 0.01 then
    Alcotest.failf "Rng.draw allocates %.3f words/draw (expected 0)" per_draw

let suite =
  [
    Alcotest.test_case "bits64 matches int64 reference" `Quick
      test_bits64_stream;
    Alcotest.test_case "int matches reference across bounds" `Quick
      test_int_all_bounds;
    Alcotest.test_case "unit_float/bool/chance match reference" `Quick
      test_float_bool_chance;
    Alcotest.test_case "draw on a precomputed bound matches int" `Quick
      test_draw_matches_int;
    Alcotest.test_case "int draws are allocation-free" `Quick
      test_int_allocation_free;
  ]
