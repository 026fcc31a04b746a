(** TAB-UBER — residual read reliability over a device's whole life.

    The paper argues (§1) that by failing gradually, Salamander reduces
    the risk of unexpected data loss, and §2 lists read disturb among the
    error sources drives must manage.  This experiment ages one device of
    each design under a mixed read/write workload with read disturb
    enabled and read-reclaim active, and reports the uncorrectable-read
    rate observed by the host across the device's entire (extended) life.

    The claim to check: Salamander's longer life does not come at the
    cost of a worse residual error rate — pages are always retired or
    re-coded at the same ECC-margin thresholds, whatever their level. *)

type row = {
  kind : Defaults.kind;
  host_writes : int;
  reads : int;
  read_errors : int;
  error_rate_ppm : float;  (** uncorrectable reads per million reads *)
  reclaims : int;  (** read-reclaim relocations performed *)
}

val measure : ?seed:int -> ?ctx:Ctx.t -> unit -> row list
(** With a pool in [ctx], the four designs age in parallel; results are
    identical. *)

val run : ?ctx:Ctx.t -> Format.formatter -> unit
