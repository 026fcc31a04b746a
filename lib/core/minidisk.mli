(** Minidisk metadata (§3.2).

    A minidisk is purely a logical construct: a small, independently
    addressable LBA space whose pages may live anywhere on flash.  The
    device keeps a registry mapping minidisk ids (monotonic, never reused)
    to {e slots} — disjoint windows of the FTL engine's flat logical
    space, which are recycled as minidisks come and go. *)

type state =
  | Active
  | Draining
      (** decommissioning announced but data retained read-only until the
          diFS acknowledges re-replication (§4.3's grace period) *)
  | Decommissioned  (** retired; its LBAs are gone *)

type t = private {
  id : int;
  slot : int;  (** index of the engine-logical window backing this mDisk *)
  opages : int;  (** LBA count (mSize / oPage size) *)
  birth_level : int;  (** tiredness level prevailing when created; 0 for
                          factory minidisks, >0 for regenerated ones *)
  mutable state : state;
}

(** Registry of every minidisk a device has ever exposed. *)
module Registry : sig
  type mdisk = t
  type t

  val create : opages_per_mdisk:int -> slots:int -> initial:int -> t
  (** [slots] bounds how many minidisks can be live at once (total engine
      logical space / mSize); the first [initial] of them (at most
      [slots]) exist from the start, at birth level 0. *)

  val opages_per_mdisk : t -> int

  val create_mdisk : t -> birth_level:int -> mdisk option
  (** Allocate a fresh minidisk in a free slot; [None] when every slot is
      occupied. *)

  val decommission : t -> int -> mdisk
  (** Retire a minidisk by id (from [Active] or [Draining]), freeing its
      slot for later reuse.
      @raise Not_found for an unknown id.
      @raise Invalid_argument if it is already decommissioned. *)

  val begin_drain : t -> int -> mdisk
  (** Move an [Active] minidisk to [Draining]: it stops counting toward
      exported LBAs and accepts no writes, but its slot (and data) are
      retained until {!decommission} completes the retirement.
      @raise Not_found for an unknown id.
      @raise Invalid_argument unless it is [Active]. *)

  val draining : t -> mdisk list
  (** Minidisks in their grace period, in increasing id order. *)

  val find : t -> int -> mdisk option
  val active : t -> mdisk list
  (** Live minidisks, in increasing id order. *)

  val active_count : t -> int

  (** The LBA translation every I/O path reads: the flat adapter's
      per-op I/O and bulk stream, and both recovery hooks.  Only the
      mutators rebuild it, so readers never check for staleness.  Its
      arrays are never written once built; callers must not write them. *)
  type view = private {
    active : mdisk array;  (** live minidisks, increasing id order *)
    base : int array;  (** first engine-logical index of [active.(i)] *)
    position : int array;
        (** slot -> index in [active]; [-1] if free or draining *)
    owner : mdisk option array;  (** slot -> its Active or Draining mdisk *)
  }

  val view : t -> view

  val active_opages : t -> int
  (** Total LBAs currently exported: |LBAs| in Eq. 2. *)

  val created_total : t -> int

  val engine_logical : t -> mdisk -> lba:int -> int
  (** Translate a minidisk-relative LBA to the engine's flat index: the
      <i, j> indexing of §3.2.
      @raise Invalid_argument if [lba] is outside the minidisk. *)
end
