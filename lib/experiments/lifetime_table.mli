(** TAB-LIFE — total write endurance of the competing designs (§4 text).

    Ages one device of each kind to wear-death under the identical random
    overwrite workload and reports the host writes each absorbed.  The
    paper's claims to reproduce: ShrinkS >= the CVSS-class ~1.2x over the
    baseline, RegenS ~1.5x ("up to 1.5x" headline), with the ordering
    baseline < CVSS <= ShrinkS < RegenS. *)

type row = {
  kind : Defaults.kind;
  host_writes : int;
  factor : float;  (** vs baseline *)
  write_amplification : float;
}

val measure : ?seeds:int list -> ?ctx:Ctx.t -> unit -> row list
(** Averages over several seeds (default 3).  With a pool in [ctx], the
    kind x seed agings run in parallel; results are identical. *)

val lifetime_factors : row list -> float * float
(** (ShrinkS, RegenS) factors, for feeding FIG4. *)

val run : ?ctx:Ctx.t -> Format.formatter -> row list
