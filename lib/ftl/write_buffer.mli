(** The SSD's small non-volatile write buffer.

    Host writes accumulate here until enough oPages are pending to fill
    the next available fPage (§3.2 of the paper).  The buffer deduplicates
    by logical index — rewriting a buffered oPage just replaces its
    payload — and reads must consult it before the mapping. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] presizes the direct-address tables for logicals in
    [0, capacity); the engine passes its logical oPage count so the
    steady-state path never resizes.  Out-of-range logicals still work —
    the tables grow on demand. *)

val length : t -> int
(** Number of distinct logical oPages pending. *)

val is_empty : t -> bool

val put : t -> logical:int -> payload:int -> unit
(** Add or replace the pending payload for a logical oPage. *)

val payload_of : t -> int -> int option
(** Pending payload, if any (the read-path buffer hit). *)

val mem : t -> int -> bool
(** [mem t logical] without the option allocation — the GC-relocation
    hot path's "is a newer version already buffered" test. *)

val drop : t -> int -> unit
(** Remove a pending entry (trim of a buffered oPage). *)

val pop_into : t -> logicals:int array -> payloads:int array -> int -> int
(** [pop_into t ~logicals ~payloads n] removes up to [n] entries in
    arrival order (of each logical's most recent write), writes them to
    the caller-owned scratch arrays [logicals.(0..k-1)] /
    [payloads.(0..k-1)] and returns [k] — allocation-free, the engine's
    one flush path.  The arrays must have at least [n] slots. *)
