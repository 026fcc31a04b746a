type t = {
  coefficient : float;
  pec_scale : float;
  read_disturb_per_read : float;
}

let floor_rber = 1e-6
let exponent = 3.5
(* Lognormal sigma of the per-page RBER multiplier.  3D NAND RBER varies
   by multiples across pages of one block ([41,42]); 0.9 here maps through
   the wear exponent (3.5) to a ~0.6x-1.7x spread in per-page endurance,
   which is what makes fleets fail gradually rather than as a cliff. *)
let strength_sigma = 0.9

let calibrate ?(read_disturb_per_read = 0.) ~target_rber ~target_pec () =
  if target_pec <= 0 then invalid_arg "Rber_model.calibrate: target_pec";
  if target_rber <= floor_rber then
    invalid_arg "Rber_model.calibrate: target_rber at or below the floor";
  (* With pec_scale = target_pec the coefficient is exactly the wear term
     at the target point. *)
  {
    coefficient = target_rber -. floor_rber;
    pec_scale = float_of_int target_pec;
    read_disturb_per_read;
  }

let wear t ~pec ~reads =
  if pec < 0 then invalid_arg "Rber_model.wear: negative pec";
  if reads < 0 then invalid_arg "Rber_model.wear: negative reads";
  (t.coefficient *. Float.pow (float_of_int pec /. t.pec_scale) exponent)
  +. (t.read_disturb_per_read *. float_of_int reads)

let[@inline] disturbed t ~wear ~reads =
  wear +. (t.read_disturb_per_read *. float_of_int reads)

let[@inline] of_wear _t ~wear ~strength = floor_rber +. (strength *. wear)

let rber ?(reads = 0) t ~pec ~strength =
  of_wear t ~wear:(wear t ~pec ~reads) ~strength

let pec_at t ~rber ~strength =
  if rber <= floor_rber then 0.
  else
    let wear = (rber -. floor_rber) /. (strength *. t.coefficient) in
    t.pec_scale *. Float.pow wear (1. /. exponent)

let sample_strength _t rng =
  Sim.Dist.lognormal rng ~mu:0. ~sigma:strength_sigma
