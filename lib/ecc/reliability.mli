(** Analytic reliability of an ECC-protected flash page.

    With raw bit-error rate [rber], bit flips are independent, so the number
    of errors in an n-bit codeword is Binomial(n, rber) and the codeword is
    uncorrectable when more than [t] bits flip.  These closed forms are what
    let the simulator age fleets of devices for simulated years without
    running the live BCH decoder on every read; the test suite checks them
    against the real codec. *)

val default_codeword_target : float
(** Default acceptable per-codeword uncorrectable probability (1e-11),
    in the range vendors engineer page UBER targets for. *)

val codeword_fail_prob : Code_params.t -> rber:float -> float
(** Probability that one codeword exceeds its correction capability. *)

val page_fail_prob : Code_params.t -> codewords:int -> rber:float -> float
(** Probability that at least one of [codewords] codewords in a page is
    uncorrectable. *)

val tolerable_rber : ?target:float -> Code_params.t -> float
(** Largest raw bit-error rate at which the codeword failure probability
    stays below [target] (default {!default_codeword_target}).  This is the
    retirement threshold: a page whose RBER exceeds it is "tired" for this
    code.  Results are memoized per [(params, target)] (the solve is pure
    and fleet runs request the same few code levels per device); the cache
    is safe to hit from multiple [Parallel.Pool] domains. *)

type tail = private {
  params : Code_params.t;
  codewords : int;
  zero_upto : float;
      (** largest RBER at which {!page_fail_prob} returns exactly [0.] *)
  one_from : float;
      (** smallest RBER at which {!page_fail_prob} returns exactly [1.] *)
}
(** A page's failure tail with its exact-0 and exact-1 float thresholds,
    found by bisection over float bit patterns with {!page_fail_prob}
    itself as the predicate. *)

val tail : Code_params.t -> codewords:int -> tail
(** The tail of a [codewords]-codeword page under [params].  Memoized per
    [(params, codewords)] like {!tolerable_rber}, under the same lock
    (about 125 tail evaluations per code, once per process). *)

val tail_prob : tail -> rber:float -> float
(** Bit for bit {!page_fail_prob}: [0.] at or below [zero_upto], [1.] at
    or above [one_from], and the binomial tail only in between, where
    almost no read lands. *)

val expected_errors : Code_params.t -> rber:float -> float
(** Mean raw errors per codeword, [n_bits * rber]; handy for latency models
    where decode effort scales with error count. *)
