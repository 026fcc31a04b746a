(** Published constants the paper's §4 analysis rests on, with their
    sources.  Collected in one place so every experiment cites the same
    numbers and sensitivity sweeps have an obvious anchor. *)

val f_op_ssd_servers : float
(** 0.46 — the paper's conservative 20% reduction, for SSD-heavy
    storage servers, of the 0.58 operational share of datacenter
    emissions (Wang et al., ISCA '24 [25]) (§4.1). *)

val power_effectiveness : float
(** 1.06 — operational-emissions penalty of keeping old drives instead of
    upgrading to newer, more power-efficient models [25] (§4.1). *)

val shrinks_lifetime_factor : float
(** 1.2 — ShrinkS extends lifetime by at least 20%, the CVSS-comparable
    floor (§4). *)

val regens_lifetime_factor : float
(** 1.5 — RegenS's estimated 50% extension at L1 (§4, Fig. 2). *)

val capacity_adjustment : float
(** 0.4 — the paper's "conservatively fix Ru gains by 40%" haircut for
    the capacity that shrunken drives no longer provide (§4.1). *)

val shrinks_upgrade_rate : float
(** 0.9 — Ru for ShrinkS after the capacity adjustment (§4.1). *)

val regens_upgrade_rate : float
(** 0.8 — Ru for RegenS after the capacity adjustment (§4.1). *)

val f_opex : float
(** 0.14 — operational share of datacenter-device TCO; acquisition is
    ~86% (Seagate [49], §4.4). *)

val cost_effectiveness_new : float
(** 0.25 — $/TB of drives bought five years later, from the ~4x
    improvement per five years [47] (§4.4). *)

val capacity_gap_fraction : float
(** 0.4 — fraction of a Salamander drive's capacity that must be
    backfilled with new baseline drives during its shrunken phase
    (average shrunk capacity 60% of baseline, §4.4). *)
