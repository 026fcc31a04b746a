(** FIG3A / FIG3B — functioning devices and available capacity over time
    for a deployed batch, baseline vs RegenS (ShrinkS and CVSS included
    for context).

    Expected shape (paper Fig. 3a/3b): the baseline's alive count and
    capacity fall off a cliff as the batch reaches its wear limit
    together; Salamander flattens both slopes because devices shrink
    gradually instead of failing, and RegenS flattens them further. *)

val run :
  ?days:int ->
  ?devices:int ->
  ?dwpd:float ->
  ?aging:Workload.Aging.path ->
  ?epoch_days:int ->
  ?kinds:Fleet.kind list ->
  ?ctx:Ctx.t ->
  Format.formatter ->
  unit
(** [ctx] supplies the telemetry registry and, when it carries a pool,
    ages each fleet's devices across domains (output unchanged).
    [kinds] restricts the comparison (default: all four designs) — the
    CLI's [fleet --mode regens --devices 100000] path runs one kind at
    datacenter scale; [dwpd] scales the daily write quota.

    [days] defaults to 150; [epoch_days] coalesces days into multi-day aging epochs and [aging]
    picks the epoch driver — both forwarded to {!Fleet.run}.  The report
    tables stride by 5 days, rounded up to whole epochs when epochs are
    coarser. *)
