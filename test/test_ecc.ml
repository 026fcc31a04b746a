(* Tests for the ECC library: bit arrays, GF(2^m) field laws, BCH
   encode/decode under injected errors, and the analytic reliability model
   cross-checked against the live codec. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Bitarray ------------------------------------------------------- *)

let test_bitarray_basic () =
  let b = Ecc.Bitarray.create 20 in
  checki "fresh length" 20 (Ecc.Bitarray.length b);
  checki "fresh popcount" 0 (Ecc.Bitarray.popcount b);
  Ecc.Bitarray.set b 0 true;
  Ecc.Bitarray.set b 7 true;
  Ecc.Bitarray.set b 8 true;
  Ecc.Bitarray.set b 19 true;
  checki "popcount after sets" 4 (Ecc.Bitarray.popcount b);
  checkb "bit 0" true (Ecc.Bitarray.get b 0);
  checkb "bit 1" false (Ecc.Bitarray.get b 1);
  Ecc.Bitarray.flip b 0;
  checkb "bit 0 flipped" false (Ecc.Bitarray.get b 0);
  checki "popcount after flip" 3 (Ecc.Bitarray.popcount b)

let test_bitarray_bounds () =
  let b = Ecc.Bitarray.create 8 in
  Alcotest.check_raises "get -1" (Invalid_argument "Bitarray: index out of bounds")
    (fun () -> ignore (Ecc.Bitarray.get b (-1)));
  Alcotest.check_raises "get len" (Invalid_argument "Bitarray: index out of bounds")
    (fun () -> ignore (Ecc.Bitarray.get b 8))

let test_bitarray_string_roundtrip () =
  let s = "1011001110001" in
  let b = Ecc.Bitarray.of_string s in
  check Alcotest.string "roundtrip" s (Ecc.Bitarray.to_string b)

let test_bitarray_iter_set () =
  let b = Ecc.Bitarray.of_string "0100100110" in
  let seen = ref [] in
  Ecc.Bitarray.iter_set b (fun i -> seen := i :: !seen);
  check (Alcotest.list Alcotest.int) "set positions" [ 1; 4; 7; 8 ]
    (List.rev !seen)

let test_bitarray_randomize_padding () =
  (* Padding bits beyond the length must stay clear so popcount is exact. *)
  let rng = Sim.Rng.create 7 in
  let b = Ecc.Bitarray.create 13 in
  for _ = 1 to 50 do
    Ecc.Bitarray.randomize rng b;
    let manual = ref 0 in
    for i = 0 to 12 do
      if Ecc.Bitarray.get b i then incr manual
    done;
    checki "popcount matches visible bits" !manual (Ecc.Bitarray.popcount b)
  done

(* --- Galois field ---------------------------------------------------- *)

let test_field_laws () =
  let field = Ecc.Galois.create 8 in
  let order = Ecc.Galois.order field in
  checki "order" 255 order;
  (* Spot-check associativity/commutativity/distributivity over samples. *)
  let rng = Sim.Rng.create 42 in
  for _ = 1 to 500 do
    let a = Sim.Rng.int rng 256
    and b = Sim.Rng.int rng 256
    and c = Sim.Rng.int rng 256 in
    checki "mul commutative" (Ecc.Galois.mul field a b) (Ecc.Galois.mul field b a);
    checki "mul associative"
      (Ecc.Galois.mul field a (Ecc.Galois.mul field b c))
      (Ecc.Galois.mul field (Ecc.Galois.mul field a b) c);
    checki "distributive"
      (Ecc.Galois.mul field a (Ecc.Galois.add field b c))
      (Ecc.Galois.add field (Ecc.Galois.mul field a b) (Ecc.Galois.mul field a c))
  done

let test_field_inverse () =
  let field = Ecc.Galois.create 10 in
  for a = 1 to Ecc.Galois.order field do
    checki "a * a^-1 = 1" 1 (Ecc.Galois.mul field a (Ecc.Galois.inv field a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Ecc.Galois.inv field 0))

let test_field_alpha_cycle () =
  let field = Ecc.Galois.create 6 in
  let order = Ecc.Galois.order field in
  checki "alpha^order = 1" 1 (Ecc.Galois.alpha_pow field order);
  checki "alpha^-1 * alpha = 1" 1
    (Ecc.Galois.mul field (Ecc.Galois.alpha_pow field (-1))
       (Ecc.Galois.alpha_pow field 1));
  (* alpha generates the whole multiplicative group. *)
  let seen = Hashtbl.create order in
  for i = 0 to order - 1 do
    Hashtbl.replace seen (Ecc.Galois.alpha_pow field i) ()
  done;
  checki "alpha is primitive" order (Hashtbl.length seen)

(* --- GF polynomials --------------------------------------------------- *)

let test_minimal_polynomial_has_root () =
  let field = Ecc.Galois.create 8 in
  for e = 1 to 20 do
    let poly = Ecc.Gf_poly.minimal_polynomial field e in
    (* alpha^e must be a root, and all coefficients must be binary. *)
    checki "root" 0 (Ecc.Gf_poly.eval field poly (Ecc.Galois.alpha_pow field e));
    Array.iteri
      (fun i c ->
        checkb (Printf.sprintf "binary coefficient %d" i) true (c = 0 || c = 1))
      poly
  done

(* --- BCH -------------------------------------------------------------- *)

let inject_errors rng word count =
  (* Flip [count] distinct random positions; returns the positions. *)
  let len = Ecc.Bitarray.length word in
  let chosen = Hashtbl.create count in
  let rec pick () =
    let p = Sim.Rng.int rng len in
    if Hashtbl.mem chosen p then pick ()
    else begin
      Hashtbl.add chosen p ();
      Ecc.Bitarray.flip word p;
      p
    end
  in
  List.init count (fun _ -> pick ())

let bch_roundtrip ~m ~capability ~data_bits ~errors ~seed () =
  let code = Ecc.Bch.create ~m ~capability in
  let rng = Sim.Rng.create seed in
  let data = Ecc.Bitarray.create data_bits in
  Ecc.Bitarray.randomize rng data;
  let original = Ecc.Bitarray.copy data in
  let parity = Ecc.Bch.encode code data in
  checkb "clean word passes" true
    (Ecc.Bch.decode code ~data ~parity = Ecc.Bch.Corrected []);
  (* Corrupt data and parity bits together. *)
  let total_positions = data_bits + Ecc.Bch.parity_bits code in
  let flips = Hashtbl.create errors in
  let rec corrupt remaining =
    if remaining > 0 then begin
      let p = Sim.Rng.int rng total_positions in
      if Hashtbl.mem flips p then corrupt remaining
      else begin
        Hashtbl.add flips p ();
        if p < data_bits then Ecc.Bitarray.flip data p
        else Ecc.Bitarray.flip parity (p - data_bits);
        corrupt (remaining - 1)
      end
    end
  in
  corrupt errors;
  match Ecc.Bch.decode code ~data ~parity with
  | Ecc.Bch.Uncorrectable -> Alcotest.fail "decoder gave up within capability"
  | Ecc.Bch.Corrected _ ->
      checkb "data restored" true (Ecc.Bitarray.equal data original)

let test_bch_roundtrips () =
  (* Sweep several field sizes, capabilities and error counts up to t. *)
  List.iter
    (fun (m, capability, data_bits) ->
      for errors = 0 to capability do
        bch_roundtrip ~m ~capability ~data_bits ~errors
          ~seed:((m * 1000) + (capability * 10) + errors)
          ()
      done)
    [ (5, 3, 10); (6, 2, 40); (7, 5, 60); (8, 8, 150); (10, 16, 700) ]

let test_bch_detects_overload () =
  (* Beyond capability the decoder must not silently "correct" to the
     original; it either reports Uncorrectable or miscorrects to a
     *different* valid codeword.  Either way the data differs from a
     clean decode only in detectable ways; we assert no false claim of
     success with restored data equality. *)
  let code = Ecc.Bch.create ~m:8 ~capability:4 in
  let rng = Sim.Rng.create 99 in
  let trials = 100 in
  let silent_failures = ref 0 in
  for _ = 1 to trials do
    let data = Ecc.Bitarray.create 100 in
    Ecc.Bitarray.randomize rng data;
    let original = Ecc.Bitarray.copy data in
    let parity = Ecc.Bch.encode code data in
    ignore (inject_errors rng data 9);
    (match Ecc.Bch.decode code ~data ~parity with
    | Ecc.Bch.Uncorrectable -> ()
    | Ecc.Bch.Corrected _ ->
        if Ecc.Bitarray.equal data original then incr silent_failures);
    ()
  done;
  (* With 9 errors against t=4 the decoder can never land back on the
     original codeword (distance would be <= 2t < 9... within d_min). *)
  checki "never silently restores beyond capability" 0 !silent_failures

let test_bch_k_matches_generator () =
  let code = Ecc.Bch.create ~m:8 ~capability:8 in
  checki "n" 255 (Ecc.Bch.n code);
  checki "n = k + parity" (Ecc.Bch.n code)
    (Ecc.Bch.k code + Ecc.Bch.parity_bits code);
  (* Parity never exceeds m*t, the textbook bound. *)
  checkb "parity <= m*t" true (Ecc.Bch.parity_bits code <= 8 * 8)

let test_bch_shortened_zero_data () =
  let code = Ecc.Bch.create ~m:6 ~capability:3 in
  let data = Ecc.Bitarray.create 0 in
  let parity = Ecc.Bch.encode code data in
  checki "zero data gives zero parity" 0 (Ecc.Bitarray.popcount parity)

(* Property: random code shape, random shortened data length, random
   error count within capability, always repaired. *)
let roundtrip_codes = [| (5, 3); (6, 2); (7, 4); (8, 5); (8, 8); (10, 8) |]

let prop_bch_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bch corrects <= t random errors"
    QCheck.(
      quad
        (int_range 0 (Array.length roundtrip_codes - 1))
        (int_range 0 250) small_nat small_int)
    (fun (code_index, data_bits, raw_errors, seed) ->
      let m, capability = roundtrip_codes.(code_index) in
      let code = Ecc.Bch.create ~m ~capability in
      let data_bits = Stdlib.min data_bits (Ecc.Bch.k code) in
      let rng = Sim.Rng.create seed in
      let data = Ecc.Bitarray.create data_bits in
      Ecc.Bitarray.randomize rng data;
      let original = Ecc.Bitarray.copy data in
      let parity = Ecc.Bch.encode code data in
      let total = data_bits + Ecc.Bch.parity_bits code in
      let errors = Stdlib.min (raw_errors mod (capability + 1)) total in
      let flipped = Hashtbl.create 8 in
      let injected = ref 0 in
      while !injected < errors do
        let p = Sim.Rng.int rng total in
        if not (Hashtbl.mem flipped p) then begin
          Hashtbl.add flipped p ();
          if p < data_bits then Ecc.Bitarray.flip data p
          else Ecc.Bitarray.flip parity (p - data_bits);
          incr injected
        end
      done;
      match Ecc.Bch.decode code ~data ~parity with
      | Ecc.Bch.Uncorrectable -> false
      | Ecc.Bch.Corrected _ -> Ecc.Bitarray.equal data original)

(* --- Code params and reliability -------------------------------------- *)

let test_tolerable_rber_memo_consistent () =
  let p = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  let first = Ecc.Reliability.tolerable_rber p in
  check (Alcotest.float 0.) "memoized result identical" first
    (Ecc.Reliability.tolerable_rber p);
  checkb "distinct targets solve separately" true
    (Ecc.Reliability.tolerable_rber ~target:1e-6 p > first)

let test_code_params_flash_sector () =
  (* The paper's reference geometry: 2 KiB data chunks sharing a 2 KiB
     spare across 8 codewords of a 16 KiB fPage: 256 B spare each. *)
  let p = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  checki "m" 15 p.Ecc.Code_params.m;
  checki "t = spare_bits/m" (256 * 8 / 15) p.Ecc.Code_params.capability;
  check (Alcotest.float 1e-9) "code rate 8/9" (8. /. 9.)
    p.Ecc.Code_params.code_rate

let test_code_params_invalid () =
  Alcotest.check_raises "no spare"
    (Invalid_argument "Code_params: spare_bytes must be > 0") (fun () ->
      ignore (Ecc.Code_params.for_sector ~data_bytes:512 ~spare_bytes:0))

let test_reliability_monotone_in_rber () =
  let p = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  let previous = ref 0. in
  List.iter
    (fun rber ->
      let fail = Ecc.Reliability.codeword_fail_prob p ~rber in
      checkb
        (Printf.sprintf "fail prob increases at rber %g" rber)
        true
        (fail >= !previous);
      previous := fail)
    [ 1e-5; 1e-4; 1e-3; 3e-3; 1e-2; 3e-2 ]

let test_reliability_tolerable_rber_fixed_point () =
  let p = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  let rber = Ecc.Reliability.tolerable_rber p in
  (* At the threshold the failure probability equals the target. *)
  let fail = Ecc.Reliability.codeword_fail_prob p ~rber in
  checkb "threshold achieves target" true
    (Float.abs (fail -. Ecc.Reliability.default_codeword_target)
     /. Ecc.Reliability.default_codeword_target
    < 0.05);
  (* Sanity: a few-per-thousand RBER, the realistic ballpark for this
     geometry. *)
  checkb "threshold in plausible range" true (rber > 1e-4 && rber < 2e-2)

let test_reliability_tolerable_rber_grows_with_spare () =
  let small = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  let large = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:1024 in
  checkb "more spare tolerates more errors" true
    (Ecc.Reliability.tolerable_rber large
    > Ecc.Reliability.tolerable_rber small)

let test_reliability_page_vs_codeword () =
  let p = Ecc.Code_params.for_sector ~data_bytes:2048 ~spare_bytes:256 in
  let rber = 4e-3 in
  let cw = Ecc.Reliability.codeword_fail_prob p ~rber in
  let page = Ecc.Reliability.page_fail_prob p ~codewords:8 ~rber in
  checkb "page fail above codeword fail" true (page >= cw);
  checkb "page fail below union bound" true (page <= (8. *. cw) +. 1e-12)

(* --- Exact-0 / exact-1 read tail ------------------------------------- *)

(* Every code the default geometry builds: the conventional profile's is
   Tiredness L0's, and L0-L3 carry t = 136, 546, 1280 and 3373. *)
let default_tails =
  lazy
    (let profile =
       Salamander.Tiredness.profile ~max_level:3 Experiments.Defaults.geometry
     in
     Array.init 4 (fun level ->
         Option.get
           (Salamander.Tiredness.info profile level).Salamander.Tiredness.tail))

let same_bits tail ~rber =
  Int64.equal
    (Int64.bits_of_float (Ecc.Reliability.tail_prob tail ~rber))
    (Int64.bits_of_float
       (Ecc.Reliability.page_fail_prob tail.Ecc.Reliability.params
          ~codewords:tail.Ecc.Reliability.codewords ~rber))

(* [tail_prob] only skips [page_fail_prob] outside (zero_upto, one_from),
   so it is exact unless the float tail is non-monotone near a threshold:
   exactly 0 somewhere above a nonzero value, or exactly 1 below a value
   short of 1.  The float tail carries a relative error of about 1e-10,
   and one ulp of RBER moves the tail by about (t+1) * 2^-52 relative, so
   a glitch could only sit within a few thousand ulps of a threshold.
   The sweep covers 2^18 ulps on each side, about 100x that. *)
let sweep_radius = 1 lsl 18

let test_tail_float_boundaries () =
  let tails = Lazy.force default_tails in
  check Alcotest.(list int) "capabilities" [ 136; 546; 1280; 3373 ]
    (List.map
       (fun tail -> tail.Ecc.Reliability.params.Ecc.Code_params.capability)
       (Array.to_list tails));
  checkb "conventional code is L0's" true
    ((Ftl.Ecc_profile.of_geometry Experiments.Defaults.geometry)
       .Ftl.Ecc_profile.tail
    == tails.(0));
  Array.iter
    (fun tail ->
      let params = tail.Ecc.Reliability.params in
      let codewords = tail.Ecc.Reliability.codewords in
      let fail rber = Ecc.Reliability.page_fail_prob params ~codewords ~rber in
      let label = Printf.sprintf "t=%d" params.Ecc.Code_params.capability in
      let zero = tail.Ecc.Reliability.zero_upto
      and one = tail.Ecc.Reliability.one_from in
      checkb (label ^ ": 0 at zero_upto") true (fail zero = 0.);
      checkb (label ^ ": > 0 just above") true (fail (Float.succ zero) > 0.);
      checkb (label ^ ": 1 at one_from") true (fail one = 1.);
      checkb (label ^ ": < 1 just below") true (fail (Float.pred one) < 1.);
      List.iter
        (fun threshold ->
          let centre = Int64.bits_of_float threshold in
          for ulps = -sweep_radius to sweep_radius do
            let rber =
              Int64.float_of_bits (Int64.add centre (Int64.of_int ulps))
            in
            if not (same_bits tail ~rber) then
              Alcotest.failf "%s: tail_prob differs from page_fail_prob at %h"
                label rber
          done)
        [ zero; one ])
    tails

let prop_tail_matches_page_fail_prob =
  let half = Int64.to_int (Int64.bits_of_float 0.5) in
  QCheck.Test.make ~count:4000
    ~name:"tail_prob is page_fail_prob bit for bit on [0, 0.5]"
    QCheck.(pair (int_range 0 3) int)
    (fun (level, bits) ->
      let rber =
        Int64.float_of_bits (Int64.of_int ((bits land max_int) mod (half + 1)))
      in
      same_bits (Lazy.force default_tails).(level) ~rber)

(* The codec is the oracle for the analytic tail: on small codes where
   decoding is cheap, flip each stored bit independently with probability
   [rber] and count the words the decoder fails to restore.  Bounded-
   distance decoding fails exactly when more than t bits flip, so the count
   must sit within 4 sigma of the binomial tail at the stored length (data
   plus the generator's parity bits).  [Reliability] charges the whole
   spare area, unused bits included, so it may only over-predict: the count
   is at most 4 sigma above [codeword_fail_prob] itself. *)
let test_reliability_matches_live_codec () =
  let trials = 3000 in
  let z_score ~observed ~prob =
    let mean = float_of_int trials *. prob in
    (float_of_int observed -. mean) /. Float.sqrt (mean *. (1. -. prob))
  in
  List.iteri
    (fun point (data_bytes, spare_bytes, rber) ->
      let params = Ecc.Code_params.for_sector ~data_bytes ~spare_bytes in
      let code =
        Ecc.Bch.create ~m:params.Ecc.Code_params.m
          ~capability:params.Ecc.Code_params.capability
      in
      let rng = Sim.Rng.create (2024 + point) in
      let data_bits = 8 * data_bytes in
      let failures = ref 0 in
      for _ = 1 to trials do
        let data = Ecc.Bitarray.create data_bits in
        Ecc.Bitarray.randomize rng data;
        let original = Ecc.Bitarray.copy data in
        let parity = Ecc.Bch.encode code data in
        for i = 0 to data_bits - 1 do
          if Sim.Rng.chance rng rber then Ecc.Bitarray.flip data i
        done;
        for i = 0 to Ecc.Bitarray.length parity - 1 do
          if Sim.Rng.chance rng rber then Ecc.Bitarray.flip parity i
        done;
        match Ecc.Bch.decode code ~data ~parity with
        | Ecc.Bch.Uncorrectable -> incr failures
        | Ecc.Bch.Corrected _ ->
            if not (Ecc.Bitarray.equal data original) then incr failures
      done;
      let stored_tail =
        Sim.Special.binomial_tail
          (data_bits + Ecc.Bch.parity_bits code)
          rber (Ecc.Bch.capability code)
      in
      let model = Ecc.Reliability.codeword_fail_prob params ~rber in
      let z_stored = z_score ~observed:!failures ~prob:stored_tail in
      let z_model = z_score ~observed:!failures ~prob:model in
      let label =
        Printf.sprintf
          "%d+%dB at rber %g: %d failures, stored tail %.1f (z %.2f), \
           model %.1f (z %.2f)"
          data_bytes spare_bytes rber !failures
          (float_of_int trials *. stored_tail)
          z_stored
          (float_of_int trials *. model)
          z_model
      in
      checkb (label ^ " | within 4 sigma of the stored-length tail") true
        (Float.abs z_stored <= 4.);
      checkb (label ^ " | at most 4 sigma above the model") true
        (z_model <= 4.))
    [
      (16, 8, 0.02);
      (16, 8, 0.04);
      (32, 8, 0.01);
      (32, 8, 0.025);
      (8, 4, 0.02);
      (8, 4, 0.05);
    ]

(* --- Reed-Solomon ------------------------------------------------------ *)

let random_shares rng k len =
  Array.init k (fun _ ->
      Bytes.init len (fun _ -> Char.chr (Sim.Rng.int rng 256)))

let test_rs_systematic_and_verify () =
  let rs = Ecc.Reed_solomon.create ~data_shares:4 ~parity_shares:2 in
  let rng = Sim.Rng.create 12 in
  let data = random_shares rng 4 64 in
  let parity = Ecc.Reed_solomon.encode rs data in
  Alcotest.(check int) "parity count" 2 (Array.length parity);
  let all = Array.append data parity in
  checkb "full set verifies" true (Ecc.Reed_solomon.verify rs all);
  (* flip one byte anywhere: verification fails *)
  Bytes.set all.(5) 3 (Char.chr (Char.code (Bytes.get all.(5) 3) lxor 1));
  checkb "corruption detected" true (not (Ecc.Reed_solomon.verify rs all))

let test_rs_reconstruct_each_share () =
  let rs = Ecc.Reed_solomon.create ~data_shares:4 ~parity_shares:2 in
  let rng = Sim.Rng.create 13 in
  let data = random_shares rng 4 32 in
  let parity = Ecc.Reed_solomon.encode rs data in
  let all = Array.append data parity in
  (* lose any 2 shares; rebuild each from the other 4 *)
  for lost1 = 0 to 5 do
    for lost2 = lost1 + 1 to 5 do
      let survivors =
        List.filter_map
          (fun i -> if i = lost1 || i = lost2 then None else Some (i, all.(i)))
          (List.init 6 Fun.id)
      in
      List.iter
        (fun lost ->
          let rebuilt = Ecc.Reed_solomon.reconstruct rs ~shares:survivors lost in
          checkb
            (Printf.sprintf "share %d rebuilt (lost %d,%d)" lost lost1 lost2)
            true
            (Bytes.equal rebuilt all.(lost)))
        [ lost1; lost2 ]
    done
  done

let test_rs_too_few_shares () =
  let rs = Ecc.Reed_solomon.create ~data_shares:3 ~parity_shares:2 in
  let rng = Sim.Rng.create 14 in
  let data = random_shares rng 3 8 in
  let _ = Ecc.Reed_solomon.encode rs data in
  Alcotest.check_raises "k-1 shares rejected"
    (Invalid_argument "Reed_solomon.reconstruct: need at least k shares")
    (fun () ->
      ignore
        (Ecc.Reed_solomon.reconstruct rs
           ~shares:[ (0, data.(0)); (1, data.(1)) ]
           2))

let test_rs_overhead () =
  let rs = Ecc.Reed_solomon.create ~data_shares:6 ~parity_shares:3 in
  Alcotest.(check (float 1e-9)) "overhead 1.5" 1.5
    (Ecc.Reed_solomon.storage_overhead rs)

let prop_rs_any_k_of_n =
  QCheck.Test.make ~count:50 ~name:"rs reconstructs from any k of n"
    QCheck.(triple (int_range 2 6) (int_range 1 4) small_int)
    (fun (k, m, seed) ->
      let rs = Ecc.Reed_solomon.create ~data_shares:k ~parity_shares:m in
      let rng = Sim.Rng.create (seed + 1) in
      let data = random_shares rng k 16 in
      let parity = Ecc.Reed_solomon.encode rs data in
      let all = Array.append data parity in
      (* pick a random k-subset of surviving shares *)
      let indices = Array.init (k + m) Fun.id in
      Sim.Rng.shuffle rng indices;
      let survivors =
        Array.to_list (Array.sub indices 0 k)
        |> List.map (fun i -> (i, all.(i)))
      in
      (* every share, including survivors, reconstructs correctly *)
      List.for_all
        (fun i ->
          Bytes.equal
            (Ecc.Reed_solomon.reconstruct rs ~shares:survivors i)
            all.(i))
        (List.init (k + m) Fun.id))

let suite =
  let qc = QCheck_alcotest.to_alcotest in
  [
    ("bitarray basic", `Quick, test_bitarray_basic);
    ("bitarray bounds", `Quick, test_bitarray_bounds);
    ("bitarray string roundtrip", `Quick, test_bitarray_string_roundtrip);
    ("bitarray iter_set", `Quick, test_bitarray_iter_set);
    ("bitarray randomize clears padding", `Quick, test_bitarray_randomize_padding);
    ("galois field laws", `Quick, test_field_laws);
    ("galois inverses", `Quick, test_field_inverse);
    ("galois alpha cycle", `Quick, test_field_alpha_cycle);
    ("gf_poly minimal polynomial", `Quick, test_minimal_polynomial_has_root);
    ("bch roundtrips", `Slow, test_bch_roundtrips);
    ("bch detects overload", `Quick, test_bch_detects_overload);
    ("bch k matches generator", `Quick, test_bch_k_matches_generator);
    ("bch shortened zero data", `Quick, test_bch_shortened_zero_data);
    qc prop_bch_roundtrip;
    ("reliability memo consistent", `Quick,
     test_tolerable_rber_memo_consistent);
    ("code params flash sector", `Quick, test_code_params_flash_sector);
    ("code params invalid", `Quick, test_code_params_invalid);
    ("reliability monotone in rber", `Quick, test_reliability_monotone_in_rber);
    ("reliability threshold fixed point", `Quick,
     test_reliability_tolerable_rber_fixed_point);
    ("reliability grows with spare", `Quick,
     test_reliability_tolerable_rber_grows_with_spare);
    ("reliability page vs codeword", `Quick, test_reliability_page_vs_codeword);
    ("reliability matches live codec", `Slow, test_reliability_matches_live_codec);
    ("reliability tail float boundaries", `Slow, test_tail_float_boundaries);
    qc prop_tail_matches_page_fail_prob;
    ("rs systematic and verify", `Quick, test_rs_systematic_and_verify);
    ("rs reconstruct each share", `Quick, test_rs_reconstruct_each_share);
    ("rs too few shares", `Quick, test_rs_too_few_shares);
    ("rs overhead", `Quick, test_rs_overhead);
    qc prop_rs_any_k_of_n;
  ]
