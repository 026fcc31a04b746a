(** Root-cause bitsets for tail-latency attribution.

    Each op the traffic replayer completes is tagged with the set of
    background activities that billed time into its latency: garbage
    collection, relocation, the read-retry ladder, live-repair
    escalation, the read-reclaim scrub, and QoS throttling.  A bitset
    (rather than a single cause) because one slow op routinely pays for
    several at once — a GC pass that also relocated pages, a retry that
    escalated.  The set fits the tag channel of
    {!Traffic.Lathist.observe_tagged} ([width] <=
    {!Traffic.Lathist.tags_width}), which records each set bit into that
    cause's own latency histogram. *)

type t = int
(** A union of cause bits; [none] = untagged. *)

val none : t
val gc : t
val relocation : t
val retry : t
val escalation : t
val scrub : t
val qos_throttle : t

val width : int
(** Number of defined cause bits (bits [0 .. width-1]). *)

val name_of_bit : int -> string
(** Name of bit position [i] in [0, width). *)

val union : t -> t -> t
val mem : t -> t -> bool
(** [mem set cause] is true when [set] contains [cause]. *)

val to_string : t -> string
(** ["gc+retry"]-style rendering in bit order; ["none"] when empty. *)

val of_flags :
  gc:bool ->
  relocation:bool ->
  retry:bool ->
  escalation:bool ->
  scrub:bool ->
  qos_throttle:bool ->
  t
