(** Numeric special functions used by the reliability models.

    The ECC analysis needs exact binomial tail probabilities
    [P(X > t)] for [X ~ Binomial(n, p)] with [n] up to a few hundred thousand
    bits, far outside the range where naive summation is stable.  We compute
    them through the regularized incomplete beta function
    [I_x(a, b)], using the classic Lentz continued-fraction evaluation
    (Numerical Recipes 6.4).  Everything is implemented here from scratch so
    the library has no numeric dependencies. *)

val log_gamma : float -> float
(** Natural log of the gamma function (Lanczos approximation), for x > 0. *)

val log_choose : int -> int -> float
(** [log_choose n k] = ln (n choose k).  @raise Invalid_argument unless
    [0 <= k <= n]. *)

val betai : float -> float -> float -> float
(** [betai a b x] is the regularized incomplete beta function I_x(a,b),
    for [a, b > 0] and [x] in \[0, 1\]. *)

val binomial_tail : int -> float -> int -> float
(** [binomial_tail n p t] = P(X > t) for X ~ Binomial(n, p): the probability
    that more than [t] of [n] bits flip when each flips independently with
    probability [p].  This is the page-uncorrectable probability for an ECC
    that corrects up to [t] errors per codeword. *)

val binomial_tail_exact_sum : int -> float -> int -> float
(** Direct log-space summation of the same tail; O(n - t) terms.  Used in
    tests to validate {!binomial_tail} and available for small [n]. *)

val solve_monotone :
  f:(float -> float) -> target:float -> lo:float -> hi:float -> float
(** [solve_monotone ~f ~target ~lo ~hi] finds [x] in \[lo, hi\] with
    [f x = target] by bisection, assuming [f] is monotonically increasing on
    the interval.  Runs 200 halvings, which is enough to exhaust double
    precision. *)
