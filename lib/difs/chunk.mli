(** Replicated or erasure-coded access units (the diFS equivalent of an
    HDFS block).

    A chunk's data is a fixed run of oPages.  Under n-way replication it
    is stored [n] times in full; under (k, m) erasure coding it is split
    into [k] data shares and extended with [m] parity shares, each
    share 1/k of the chunk.  Either way, each stored unit is a {e share}
    with an index, placed on its own failure domain.

    Chunk contents are synthetic but verifiable: every data oPage's
    payload is a deterministic function of (chunk id, offset, version),
    and parity payloads are the Reed-Solomon combination of the data
    payloads, so any copy can be checked and any lost share rebuilt. *)

type share = {
  index : int;  (** share number: replica ordinal, or RS share index *)
  target : Target.t;  (** where the share lives, resolved at placement *)
  base : int;  (** first LBA of the share's range within the target *)
}

type t = {
  id : int;
  opages : int;  (** chunk data size, in oPages *)
  mutable version : int;  (** bumped on every overwrite *)
  mutable shares : share list;
  payloads : int array;
      (** {!data_payload}'s cache: every data oPage's {!payload} at
          [payloads_version] *)
  mutable payloads_version : int;  (** [-1] until first filled *)
  mutable scrub_failures : int;
      (** consecutive scrub sweeps whose repair of this chunk failed *)
  mutable scrub_next : int;
      (** first scrub sweep the chunk is eligible for again (backoff) *)
}

val create : id:int -> opages:int -> t

val payload : id:int -> offset:int -> version:int -> int
(** Expected content fingerprint of data oPage [offset] of the chunk.
    Payloads fit in 32 bits so they round-trip through the erasure
    coder's byte representation. *)

val data_payload : t -> offset:int -> int
(** [payload ~id:t.id ~offset ~version:t.version], from a per-chunk
    cache refilled once per version: a scrub sweep re-verifies every
    oPage of a chunk it has not rewritten, and pays no hash for it. *)

val payload_bytes : int -> bytes
(** 4-byte little-endian encoding of a payload, for the RS coder. *)

val payload_of_bytes : bytes -> int

val share_on : t -> Target.key -> share option
val drop_share : t -> Target.key -> unit
val add_share : t -> share -> unit

val missing_indices : t -> total:int -> int list
(** Share indices not currently stored, given the redundancy's total. *)
