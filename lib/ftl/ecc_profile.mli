(** ECC configuration shared by the simulated devices: the code protecting
    each oPage at the default (level-0) spare budget, its retirement
    threshold, and the resulting read-failure probability. *)

type t = private {
  tolerable_rber : float;
      (** retire a page once its post-next-erase RBER exceeds this *)
  tail : Ecc.Reliability.tail;
      (** one oPage's read-failure tail: the level-0 per-codeword code
          and the oPage's codeword count *)
}

val of_geometry : ?target:float -> Flash.Geometry.t -> t
(** Split the fPage spare area evenly across its codewords and size the
    code accordingly.  [target] is the acceptable per-codeword failure
    probability (default {!Ecc.Reliability.default_codeword_target}). *)

val opage_read_fail_prob : t -> rber:float -> float
(** Probability that reading one oPage (all its codewords) fails:
    {!Ecc.Reliability.tail_prob} on [tail], bit for bit
    {!Ecc.Reliability.page_fail_prob}. *)

val page_is_tired : t -> rber:float -> bool
(** True when the error rate exceeds what this profile tolerates. *)

val reclaim_margin : float
(** Fraction of the tolerable RBER at which read-reclaim fires (0.9):
    data is moved before disturb can push the page past its code. *)

val should_reclaim : t -> rber:float -> bool
(** True when a read at this error rate should trigger read-reclaim. *)
