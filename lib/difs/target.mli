(** Failure domains the diFS places replicas on.

    For a conventional SSD the whole drive is one target — exactly the
    coarse failure granularity the paper criticizes.  A Salamander drive
    contributes one target per live minidisk, so wear-driven failures
    arrive in mSize units and recovery touches only that sliver.

    A target is resolved once, when the cluster creates it: it holds its
    device and the I/O handle for its own LBA space, so share I/O never
    looks a device up.  Each target also owns a trivial allocator
    handing out chunk-sized LBA ranges. *)

type key = {
  device : int;  (** cluster-wide device id *)
  mdisk : int option;  (** [None] for monolithic devices *)
}

val key_equal : key -> key -> bool
val pp_key : Format.formatter -> key -> unit

type backend =
  | Monolithic of Ftl.Device_intf.packed
      (** baseline or CVSS drive: a single failure domain *)
  | Salamander of Salamander.Device.t
      (** one failure domain per live minidisk *)

(** A cluster member and the state the cluster's event loop keeps on
    it. *)
type device = {
  id : int;  (** cluster-wide device id *)
  node : int;
  backend : backend;
  mutable killed : bool;
      (** failure-injected: every target on it refuses I/O *)
  mutable alive_seen : bool;  (** monolithic liveness last polled *)
  mutable capacity_seen : int;  (** monolithic capacity last polled *)
}

val device : id:int -> node:int -> backend -> device
(** A live, unkilled device; a monolithic one starts at its current
    logical capacity. *)

(** Where a target's LBAs live. *)
type io =
  | Whole of Ftl.Device_intf.packed  (** a monolithic device's flat space *)
  | Mdisk of { device : Salamander.Device.t; mdisk : Salamander.Minidisk.t }
      (** one minidisk, through Salamander's native per-mDisk I/O on
          its record (the registry never replaces a record, so the one
          resolved at creation tracks the minidisk's state for good) *)

type state = Active | Failed

type t = private {
  key : key;  (** derived from the device id and [io] *)
  device : device;
  io : io;
  capacity : int;  (** oPages *)
  chunk_opages : int;
  mutable state : state;
  mutable free_ranges : int list;  (** base LBAs of unallocated ranges *)
  mutable free : int;  (** length of [free_ranges] *)
}

val create : device:device -> io -> capacity:int -> chunk_opages:int -> t

(** {2 I/O}

    Every device error, and any I/O on a killed device, folds into one
    outcome: the cluster only needs to know that the target did not
    answer.  A minidisk target goes through Salamander's native
    per-mDisk calls on its record, so it answers exactly when the
    device's id-keyed calls would, with no lookup per oPage. *)

val write : t -> lba:int -> payload:int -> (unit, [ `Target_failed ]) result
val read : t -> lba:int -> (int, [ `Unreadable ]) result

val trim : t -> lba:int -> unit
(** No-op on a killed device. *)

(** {2 Range allocator} *)

val allocate : t -> int option
(** Take a free chunk-sized range; [None] when full or failed. *)

val release : t -> int -> unit
(** Return a range to the pool. *)

val fail : t -> unit
(** Mark failed; it never allocates again. *)

val truncate : t -> capacity:int -> int list
(** Shrink the usable space (a CVSS device giving up high LBAs): removes
    free ranges beyond the new capacity and returns the bases of
    *allocated* ranges that are now out of bounds — their replicas are
    lost and must be recovered elsewhere. *)

val is_active : t -> bool
val free_count : t -> int
val used_count : t -> int
