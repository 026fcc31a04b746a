(** Bounded top-K tracker: exact worst-subject selection in O(K) memory
    with deterministic ordering and submission-order merges. *)

module Topk : sig
  type 'a t

  val create : k:int -> unit -> 'a t
  val k : 'a t -> int

  val offer : 'a t -> id:string -> score:float -> 'a -> unit
  (** Consider one subject.  Kept iff it ranks in the current top [k]
      (score descending, ties broken by natural id order — ["dev-2"]
      before ["dev-10"]). *)

  val merge : into:'a t -> 'a t -> unit
  (** Offer every retained entry of the source to [into].  When each
      subject is offered exactly once fleet-wide (one observation per
      device), the merged top K is exactly the global top K. *)

  val to_list : 'a t -> (string * float * 'a) list
  (** Retained entries, best first. *)
end
