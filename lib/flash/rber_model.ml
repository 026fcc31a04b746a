type t = {
  floor_rber : float;
  coefficient : float;
  exponent : float;
  pec_scale : float;
  strength_sigma : float;
  read_disturb_per_read : float;
}

let default_exponent = 3.5
(* Lognormal sigma of the per-page RBER multiplier.  3D NAND RBER varies
   by multiples across pages of one block ([41,42]); 0.9 here maps through
   the wear exponent (3.5) to a ~0.6x-1.7x spread in per-page endurance,
   which is what makes fleets fail gradually rather than as a cliff. *)
let default_strength_sigma = 0.9
let default_floor = 1e-6

let create ?(floor_rber = default_floor) ?(exponent = default_exponent)
    ?(strength_sigma = default_strength_sigma) ?(read_disturb_per_read = 0.)
    ~coefficient ~pec_scale () =
  if coefficient <= 0. then invalid_arg "Rber_model: coefficient must be > 0";
  if pec_scale <= 0. then invalid_arg "Rber_model: pec_scale must be > 0";
  if exponent <= 0. then invalid_arg "Rber_model: exponent must be > 0";
  if read_disturb_per_read < 0. then
    invalid_arg "Rber_model: read_disturb_per_read must be >= 0";
  { floor_rber; coefficient; exponent; pec_scale; strength_sigma;
    read_disturb_per_read }

let calibrate ?(floor_rber = default_floor) ?(exponent = default_exponent)
    ?(strength_sigma = default_strength_sigma) ?(read_disturb_per_read = 0.)
    ~target_rber ~target_pec () =
  if target_pec <= 0 then invalid_arg "Rber_model.calibrate: target_pec";
  if target_rber <= floor_rber then
    invalid_arg "Rber_model.calibrate: target_rber at or below the floor";
  (* With pec_scale = target_pec the coefficient is exactly the wear term
     at the target point. *)
  {
    floor_rber;
    coefficient = target_rber -. floor_rber;
    exponent;
    pec_scale = float_of_int target_pec;
    strength_sigma;
    read_disturb_per_read;
  }

let wear t ~pec ~reads =
  if pec < 0 then invalid_arg "Rber_model.wear: negative pec";
  if reads < 0 then invalid_arg "Rber_model.wear: negative reads";
  (t.coefficient *. Float.pow (float_of_int pec /. t.pec_scale) t.exponent)
  +. (t.read_disturb_per_read *. float_of_int reads)

let[@inline] of_wear t ~wear ~strength = t.floor_rber +. (strength *. wear)

let rber ?(reads = 0) t ~pec ~strength =
  of_wear t ~wear:(wear t ~pec ~reads) ~strength

let pec_at t ~rber ~strength =
  if rber <= t.floor_rber then 0.
  else
    let wear = (rber -. t.floor_rber) /. (strength *. t.coefficient) in
    t.pec_scale *. Float.pow wear (1. /. t.exponent)

let sample_strength t rng =
  Sim.Dist.lognormal rng ~mu:0. ~sigma:t.strength_sigma
