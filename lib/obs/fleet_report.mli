(** Fleet-wide wear-imbalance analytics in O(K) memory.

    Every device in a run contributes one {!observation}; per-chunk
    {!Acc}s are merged in submission order, so the built report is
    byte-identical at any job count.  The report carries wear/RBER/rate
    quantiles (from {!Sim.Stats.Histogram}, whose merge does not depend
    on chunk order), the coefficient of variation and Gini coefficient
    of the P/E-cycle distribution (the wear-imbalance signals),
    per-grade device counts, and an {e exact} top-K of the worst devices
    (union of per-chunk top-Ks, each device observed once). *)

type observation = {
  id : string;  (** fleet-unique subject id, e.g. ["salamander-1742"] *)
  pec_max : int;  (** worst block's P/E count *)
  pec_min : int;  (** best block's P/E count *)
  rber_worst : float;  (** worst pure-wear RBER across the device *)
  tolerable_rber : float;  (** strongest available code's tolerance *)
  retries : int;  (** read-retry ladder invocations *)
  escalations : int;  (** retries escalated past the ladder *)
  reclaims : int;  (** read-reclaim scrubs *)
  host_writes : int;  (** host ops served (rate denominator) *)
  alive : bool;
}

val grade : Monitor.Health.thresholds -> observation -> Monitor.Health.grade
(** [Retired] when not alive; [Failing] when the worst RBER is at or
    above tolerance; [Degraded] past target P/E cycles or above the
    retry-rate threshold; [Healthy] otherwise. *)

val score : Monitor.Health.thresholds -> observation -> float
(** Worst-first ranking key: grade severity dominates, P/E count breaks
    ties.  Exposed so tests can brute-force the same ordering. *)

module Acc : sig
  type t

  val create :
    ?top_k:int -> ?thresholds:Monitor.Health.thresholds -> unit -> t
  (** [top_k] defaults to 10. *)

  val sub : t -> t
  (** Fresh empty accumulator with the same parameters — per-chunk
      scratch state, later folded back with {!merge}. *)

  val observe : t -> observation -> unit
  val merge : into:t -> t -> unit
  val devices : t -> int
end

type stats = {
  mean : float;
  smin : float;
  smax : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t = {
  epoch : string;  (** what one run covered, e.g. ["150d"] *)
  devices : int;
  grades : int array;  (** indexed by {!Monitor.Health.grade_rank} *)
  pec : stats;  (** per-device worst-block P/E count *)
  spread : stats;  (** per-device P/E max-min spread *)
  rber : stats;  (** per-device worst RBER *)
  retry : stats;  (** per-device retries per host write *)
  cv : float;  (** coefficient of variation of pec (exact) *)
  gini : float;  (** Gini coefficient of pec (from histogram buckets) *)
  fleet_retry_rate : float;
  fleet_escalation_rate : float;
  retries : int;
  escalations : int;
  reclaims : int;
  host_writes : int;
  worst : (observation * Monitor.Health.grade) list;  (** worst first *)
}

val build : epoch:string -> Acc.t -> t
val grade_count : t -> Monitor.Health.grade -> int

val pp : Format.formatter -> t -> unit
(** Human-readable report table. *)

val to_jsonl : t -> string
(** One ["fleet"] summary record, then one ["device"] record per
    worst-device entry, newline-terminated. *)
