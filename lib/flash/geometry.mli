(** Physical layout of a simulated flash device.

    Terminology follows the paper: an {e oPage} is the 4 KiB unit the host
    reads and writes; an {e fPage} is the physical flash page holding
    several oPages plus a spare area for ECC; a {e block} is the erase
    unit, a group of fPages. *)

type t = private {
  opage_bytes : int;  (** host page size; the paper uses 4 KiB *)
  opages_per_fpage : int;  (** data oPages per physical page (4 for 16 KiB) *)
  spare_bytes : int;  (** per-fPage spare area for ECC (2 KiB [13]) *)
  pages_per_block : int;  (** fPages per erase block *)
  blocks : int;  (** erase blocks in the device *)
  codewords_per_opage : int;
      (** ECC interleave: codewords per oPage (2 gives 2 KiB data chunks,
          the realistic controller configuration) *)
}

val create :
  ?opages_per_fpage:int ->
  ?spare_bytes:int ->
  pages_per_block:int ->
  blocks:int ->
  unit ->
  t
(** Every geometry has the paper's 4 KiB oPages and 2 codewords per
    oPage; the defaults give its reference fPage: 4 oPages (16 KiB) and
    2 KiB spare.
    @raise Invalid_argument on non-positive dimensions. *)

val fpage_data_bytes : t -> int
(** Data capacity of one fPage ([opage_bytes * opages_per_fpage]). *)

val fpages : t -> int
(** Total physical pages in the device. *)

val total_opages : t -> int
(** Total oPage slots ([fpages * opages_per_fpage]). *)

val physical_data_bytes : t -> int
(** Total data bytes excluding spare. *)

val codewords_per_fpage : t -> int

val pp : Format.formatter -> t -> unit
