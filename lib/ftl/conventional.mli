(** The conventional SSDs the paper argues against: a page-mapped drive
    with one fixed ECC code that retires a whole erase block as soon as
    its weakest page leaves the default code's reach.

    Both foils share everything except what a retirement does next:

    - [Brick] is the baseline datacenter SSD.  Its volume has a fixed
      capacity, retired blocks are replaced from over-provisioned spare
      space, and the drive bricks (goes read-only) once retired blocks
      exceed 2.5 % of the media, per the NetApp field study the paper
      cites [14].
    - [Shrink] is the CVSS-style capacity-variant SSD (Jiao et al.,
      FAST '24), the prior work the paper positions ShrinkS against.
      Each retired block removes a block's worth of LBAs from the top of
      the address space, and the host file system must absorb the loss
      out of its free space.  The drive dies once capacity falls below
      50 % of the initial capacity, as in the paper's CVSS discussion.

    The two deltas Salamander claims over CVSS are visible here by
    construction: retirement is block- (not page-) granular, so strong
    pages die with their block's weakest one; and the shrink consumes
    *host* free space rather than being absorbed by a distributed
    system's redundancy.

    Both spare 7 % of physical space for over-provisioning.  A bricked
    drive ignores trims; a dead shrinking drive still discards. *)

type retirement = Brick | Shrink
type t

val create :
  retirement:retirement ->
  ?registry:Telemetry.Registry.t ->
  geometry:Flash.Geometry.t ->
  model:Flash.Rber_model.t ->
  rng:Sim.Rng.t ->
  unit ->
  t
(** Telemetry binds against [registry] (default: the null registry). *)

val engine : t -> Engine.t

val retired_blocks : t -> int
(** Erase blocks retired so far. *)

val shrunk_opages : t -> int
(** LBAs lost to shrinking so far, always 0 under [Brick].  Each was
    trimmed away; a host using the device re-replicates or rebalances
    that data, which is the recovery traffic the paper's §4.3 compares
    against. *)

include Device_intf.S with type t := t
