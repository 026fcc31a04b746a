(** Bidirectional logical-to-physical mapping.

    Forward: logical oPage index -> {!Location.t}.  Reverse: every
    programmed slot knows which logical index owns it (or that it is
    stale), which is what garbage collection walks.  The two directions
    are updated together so they can never disagree; the invariant is
    checked by the property tests. *)

type t

val create : geometry:Flash.Geometry.t -> logical_opages:int -> t

val logical_opages : t -> int

val find : t -> int -> Location.t option
(** Physical location of a logical index, if mapped. *)

val find_flat : t -> int -> int
(** Like {!find} but returns the flat slot index
    [(block * pages_per_block + page) * opages_per_fpage + slot], or [-1]
    if unmapped — the allocation-free lookup the hot read path and the
    bulk-aging write stream use. *)

val bind_flat : t -> logical:int -> int -> unit
(** [bind_flat t ~logical flat] maps [logical] to the flat slot index
    (as {!find_flat} returns it), invalidating both [logical]'s previous
    slot and any previous owner of [flat]; allocation-free. *)

val unbind_logical : t -> int -> unit
(** Drop the mapping for a logical index (trim/discard); its old slot
    becomes stale. *)

val mapped_count : t -> int
(** Number of logical indices currently mapped to flash. *)

val valid_in_block : t -> block:int -> int
(** Live slots in a block: the GC victim-selection metric. *)

val live_slots_in_page : t -> block:int -> page:int -> (int * int) list
(** [(slot, logical)] pairs live in an fPage, slot-ordered. *)

val iter_block : t -> block:int -> (page:int -> slot:int -> logical:int -> unit) -> unit
(** Visit every live slot of a block. *)
