(** Raw bit-error rate as a function of wear.

    Following the characterization literature the paper builds on (Kim et
    al. FAST '19; Cai et al. 2017), RBER grows polynomially with program/
    erase cycles:

    {v rber(pec) = floor + strength * coefficient * (pec / pec_scale)^3.5 v}

    The floor (pristine flash) is 1e-6.  [strength] is a per-page
    multiplier (lognormal with sigma {!strength_sigma} across pages)
    modelling the large page-to-page endurance variance in 3D NAND that
    motivates Salamander's page-granularity retirement.  The exponent
    3.5 makes the L1/L0 lifetime ratio land at the paper's ~1.5x (see
    DESIGN.md, Calibration).  Only the endurance scale and read disturb
    vary between models. *)

type t = private {
  coefficient : float;  (** wear-induced RBER at [pec = pec_scale], strength 1 *)
  pec_scale : float;  (** normalization constant, in erase cycles *)
  read_disturb_per_read : float;
      (** RBER added per read of the page since its block's last erase
          (§2 lists read disturb among the error sources).  0 disables
          the effect; devices counter it with read-reclaim scrubbing. *)
}

val strength_sigma : float
(** Lognormal sigma of the per-page strength multiplier (0.9). *)

val calibrate :
  ?read_disturb_per_read:float ->
  target_rber:float ->
  target_pec:int ->
  unit ->
  t
(** [calibrate ~target_rber ~target_pec ()] returns a model in which a
    median-strength page reaches [target_rber] after exactly [target_pec]
    erase cycles — the standard way to pin the simulated endurance to a
    known device class (e.g. 3 000 cycles for datacenter TLC), or to an
    accelerated scale for fleet simulations.  [read_disturb_per_read]
    defaults to 0.
    @raise Invalid_argument if [target_pec <= 0] or [target_rber] is at
    or below the floor. *)

val rber : ?reads:int -> t -> pec:int -> strength:float -> float
(** Current raw bit-error rate: the wear term plus [reads] (reads of the
    page since its block's last erase, default 0) times the disturb
    coefficient, both scaled by the page strength. *)

val wear : t -> pec:int -> reads:int -> float
(** The strength-free part of {!rber}: the wear term plus the read-disturb
    term, before the page multiplier.  Every page of one block shares it
    right after an erase (same [pec], no reads), so an erase hook pays
    its [Float.pow] once per block.
    @raise Invalid_argument on a negative [pec] or [reads]. *)

val disturbed : t -> wear:float -> reads:int -> float
(** [disturbed t ~wear:(wear t ~pec ~reads:0) ~reads] is
    [wear t ~pec ~reads], bit for bit: the wear term is non-negative, so
    adding the zero disturb of no reads left it unchanged.  A chip
    caches each block's no-read wear and pays no [Float.pow] per read. *)

val of_wear : t -> wear:float -> strength:float -> float
(** [of_wear t ~wear ~strength] scales a {!wear} term by the page strength
    and adds the floor: [rber ~reads t ~pec ~strength] is exactly
    [of_wear t ~wear:(wear t ~pec ~reads) ~strength], bit for bit. *)

val pec_at : t -> rber:float -> strength:float -> float
(** Inverse of {!rber} in [pec]: the cycle count at which the page reaches
    the given error rate.  Returns 0 when the rate is at or below the
    pristine floor. *)

val sample_strength : t -> Sim.Rng.t -> float
(** Draw a page-strength multiplier (median 1). *)
