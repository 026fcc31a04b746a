(** Multi-tenant population model: who issues each access.

    A handful of {!profile}s describe tenant classes (pattern, skew,
    footprint, QoS weight, SLO); a {!t} instantiates them over an
    arbitrary tenant count — profiles are striped across the id space by
    [share], so tenant ids never need a per-tenant descriptor and the
    model scales to millions of tenants with O(tenants) integers of
    state (sequential cursors and accounting), not O(tenants) records. *)

type pattern =
  | Sequential  (** wrapping sequential over the tenant's footprint *)
  | Uniform
  | Zipfian of float  (** theta; rank 0 hottest within the footprint *)

type profile = {
  name : string;
  share : int;  (** relative slice of the tenant population (>= 1) *)
  pattern : pattern;
  read_fraction : float;
  footprint : int;  (** LBAs the tenant touches (>= 1) *)
  qos_weight : float;  (** relative token-bucket share (> 0) *)
  slo_us : float;  (** per-request latency objective *)
}

val default_profiles : profile list
(** Three-class datacenter mix: skewed read-mostly [web], uniform
    mixed [batch], sequential write-heavy [logger]. *)

type t

val create : ?profiles:profile list -> tenants:int -> unit -> t
(** @raise Invalid_argument on [tenants <= 0], an empty profile list, or
    a profile with a non-positive share, footprint or qos_weight. *)

val tenants : t -> int
val profiles : t -> profile array

val profile_of : t -> int -> profile
(** Profile of a tenant id, by striping shares across the id space:
    deterministic, allocation-free. *)

val base_lba : t -> int -> window:int -> int
(** Start of the tenant's footprint inside a [window]-LBA address space,
    scattered by a hash of the id so neighbouring tenants don't overlap
    trivially. *)

val next_local : t -> int -> rng:Sim.Rng.t -> int
(** Draw the next within-footprint offset for a tenant (advances its
    sequential cursor / samples its profile's distribution). *)

val qos_weights : t -> float array
(** Per-tenant QoS weights (length [tenants]), for {!Qos.create}. *)

(** Per-tenant accounting, kept as flat arrays so a million tenants cost
    a few machine words each. *)
module Accounts : sig
  type population := t
  type t

  val create : population -> t
  val record_op : t -> tenant:int -> read:bool -> unit
  val record_throttle : t -> tenant:int -> unit
  val record_violation : t -> tenant:int -> unit

  val ops : t -> int -> int
  val reads : t -> int -> int
  val throttles : t -> int -> int
  val violations : t -> int -> int

  val totals : t -> int * int * int * int
  (** (ops, reads, throttles, violations) over all tenants. *)

  val active : t -> int
  (** Tenants with at least one op. *)

  val top : t -> n:int -> int list
  (** Ids of the [n] busiest tenants, most ops first (ties: lower id). *)

  val merge : into:t -> t -> unit
end
