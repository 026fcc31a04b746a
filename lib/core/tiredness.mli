(** Page tiredness levels (§3.1).

    A level-L fPage sacrifices L of its oPages for extra ECC: data capacity
    drops to [opages - L] while the parity budget grows from the 2 KiB
    spare to [spare + L * opage_bytes], so the code tolerates a higher raw
    bit-error rate and the page survives more erase cycles.  Level
    [opages] means the page can no longer store anything ("L4" in the
    paper's 4-oPage geometry).

    A {!profile} precomputes, for one flash geometry, the code parameters
    and RBER retirement threshold of every level. *)

type level_info = private {
  level : int;
  data_slots : int;  (** oPages still storing data at this level *)
  tail : Ecc.Reliability.tail option;
      (** one oPage's read-failure tail: the per-codeword code and the
          oPage's codeword count; [None] for the terminal (dead) level *)
  tolerable_rber : float;
      (** retire to the next level beyond this error rate; 0 for dead *)
  code_rate : float;  (** data / (data + spare + repurposed); 0 for dead *)
}

type t

val profile :
  ?target:float -> ?max_level:int -> Flash.Geometry.t -> t
(** Build the level table.  [max_level] caps usable tiredness (pages
    needing more are dead): 0 models ShrinkS, 1 is the paper's
    recommended RegenS setting, up to [opages_per_fpage - 1].
    [target] is the per-codeword failure budget.
    @raise Invalid_argument if [max_level] is out of range. *)

val geometry : t -> Flash.Geometry.t
val max_level : t -> int

val dead_level : t -> int
(** The terminal level index ([max_level + 1]); pages there hold no data. *)

val info : t -> int -> level_info
(** Level metadata; valid for levels 0 .. dead_level. *)

val data_slots : t -> int -> int
val level_for_rber : t -> rber:float -> int
(** Smallest usable level whose code tolerates the error rate, or
    {!dead_level} when none does. *)

val read_fail_prob : t -> level:int -> rber:float -> float
(** Probability that reading one oPage on a page of this level fails:
    the level's [tail] through {!Ecc.Reliability.tail_prob}, bit for bit
    {!Ecc.Reliability.page_fail_prob}; [1.] at the dead level. *)

val pp_level : t -> Format.formatter -> int -> unit
