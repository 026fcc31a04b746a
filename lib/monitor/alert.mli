(** Threshold alerting with hysteresis over sampled series.

    A rule watches every ["value"] series of its metric and keeps
    one firing/resolved state per series.  An [Above] rule fires when
    the latest value reaches [fire] and resolves only once it drops
    below [resolve] (with [resolve <= fire], the hysteresis band);
    [Below] mirrors that.  Transitions are recorded at sample times on
    the simulation clock — never wall-clock — so the alert log is a
    deterministic function of the sampled data. *)

type direction = Above | Below

type rule = private {
  rule : string;
  metric : string;
  direction : direction;
  fire : float;
  resolve : float;
}

val rule :
  ?direction:direction ->
  metric:string ->
  fire:float ->
  resolve:float ->
  string ->
  rule
(** [direction] defaults to [Above].
    @raise Invalid_argument when the hysteresis band is inverted
    ([Above] needs [resolve <= fire]; [Below] the opposite). *)

type state = Firing | Resolved

type transition = {
  time : float;
  rule_name : string;
  key : Sampler.Key.t;
  state : state;
  value : float;
}

type t

val create : rule list -> t
val rules : t -> rule list

val eval : t -> time:float -> Sampler.t -> transition list
(** Evaluate every rule against the sampler's latest values; record and
    return the state changes (in rule order, series order within a
    rule). *)

val log : t -> transition list
(** Every transition recorded so far, in the order they were recorded
    (absorbed sub-logs follow the host's own, in absorption order). *)

val absorb : into:t -> ?labels:(string * string) list -> t -> unit
(** Append a sub-evaluator's log with [labels] prepended to each
    transition's series key (mirrors {!Sampler.merge}). *)

val pp : Format.formatter -> transition list -> unit
(** Render transitions sorted by (time, rule, series). *)
