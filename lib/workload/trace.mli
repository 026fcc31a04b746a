(** Access-trace recording, replay and persistence, so an experiment can
    subject two device designs to the byte-identical request stream — in
    one process or across runs via the versioned on-disk format. *)

type event = { tenant : int; access : Access.t }
(** One traced access, attributed to the simulated tenant that issued it.
    Single-tenant recorders use tenant 0. *)

type t

val create : unit -> t

val record : t -> Access.t -> unit
(** Append an access for tenant 0. *)

val record_event : t -> event -> unit

val length : t -> int

val capture : t -> Pattern.t -> Sim.Rng.t -> n:int -> unit
(** Draw [n] accesses from a pattern and append them (tenant 0). *)

val iter : t -> (Access.t -> unit) -> unit
(** Replay in recorded order. *)

val iter_events : t -> (event -> unit) -> unit

val to_list : t -> Access.t list
val of_list : Access.t list -> t

val to_events : t -> event list
val of_events : event list -> t

(** {2 On-disk format}

    A line-based, versioned format: header [salamander-trace v1], then
    one [<tenant> <op> <lba>] line per access ([r]/[w]/[d]).  Designed so
    [of_string (to_string t)] is the identity on the event list; loaders
    reject unknown versions instead of misreading them. *)

val format_version : int

val to_string : t -> string
val of_string : string -> (t, string) result

val of_file : path:string -> (t, string) result
