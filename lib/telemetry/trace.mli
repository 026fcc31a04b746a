(** Span/event tracer: wall-clock histograms over [Logs], plus an
    optional {e structured} sink recording spans on a logical clock.

    Spans time a scoped operation (a whole experiment, a recovery pass,
    a device lifetime).  Two independent recorders exist:

    - the {b registry histogram} ([span_duration_us{span=...}]): real
      elapsed time via {!set_clock}'s clock — useful for performance,
      never deterministic;
    - the {b sink} ({!Sink}): structured spans (id, parent id,
      start/finish) stamped with a {e logical tick counter} that
      advances once per span boundary and instant event.  Tick
      timelines depend only on the order of traced operations, so
      sinks merged in submission order reproduce byte-identical traces
      at any job count — the property the monitor's Chrome-trace
      export relies on.

    Both are opt-in per call ([?registry], [?sink]); with neither and
    the log level off, {!with_span} is near-free.  The only
    process-global state here is the log level behind {!set_level}. *)

val src : Logs.src
(** The ["salamander"] log source every span/event goes through; the
    CLI's [--verbosity] flag sets its level. *)

val set_level : Logs.level option -> unit
(** Set the level of {!src} (and the global [Logs] level). *)

val level_of_verbosity : int -> Logs.level option
(** 0 = off, 1 = warnings, 2 = info, >= 3 = debug. *)

val set_clock : (unit -> float) -> unit
(** Override the wall span clock (seconds; default [Sys.time], i.e.
    CPU time — ample for the simulator's coarse spans).  Does not
    affect sink ticks. *)

(** Structured span collector on a logical tick clock.

    A sink is single-domain: each parallel task records into its own
    sink, and the driver merges them back with {!merge} in submission
    order (the same discipline as [Registry.merge]).  Span ids are
    assigned sequentially from 1 within a sink and renumbered on
    merge. *)
module Sink : sig
  type span = {
    id : int;
    parent : int option;  (** enclosing span, if any *)
    name : string;
    args : (string * string) list;
    start : int;  (** tick at enter *)
    finish : int;  (** tick at exit (sink's current tick if still open) *)
  }

  type t

  val create : unit -> t

  val enter : t -> ?args:(string * string) list -> string -> int
  (** Open a span (child of the innermost open span); returns its id. *)

  val exit : t -> unit
  (** Close the innermost open span; no-op when none is open. *)

  val instant : t -> string -> (string * string) list -> unit
  (** Record a point event at the next tick. *)

  val current : t -> int option
  (** Id of the innermost open span. *)

  val spans : t -> span list
  (** All spans in enter order (nondecreasing [start]). *)

  val instants : t -> (int * string * (string * string) list) list
  (** All instant events in record order. *)

  val clock : t -> int
  (** Ticks consumed so far. *)

  val merge : into:t -> ?parent:int -> t -> unit
  (** Splice [src]'s spans and instants after [into]'s current
      timeline: ids and ticks are offset past [into]'s, and [src]'s
      root spans are re-parented under [parent] (e.g.
      [current into]). *)
end

val with_span :
  ?registry:Registry.t ->
  ?sink:Sink.t ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span ~registry ~sink name f] runs [f], records its wall
    duration into [registry] (default {!Registry.null}) and its tick
    extent into [sink] (default: none), and logs enter/exit at
    [Debug].  Exceptions propagate after the exit records. *)

val event :
  ?registry:Registry.t ->
  ?sink:Sink.t ->
  ?level:Logs.level ->
  string ->
  (string * string) list ->
  unit
(** [event name fields] logs one structured line (default level
    [Info]), counts it in [registry]'s [events_total{event=name}], and
    records it as an instant in [sink] when given. *)
