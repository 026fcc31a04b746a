(** Fixed-size domain pool: the execution substrate for device-parallel
    fleet aging and experiment-suite fan-out.

    A pool of [domains] domains is the caller plus [domains - 1] worker
    domains (OCaml 5 shared-memory parallelism; no dependencies beyond
    [Domain]/[Mutex]/[Condition]) pulling tasks off one queue: the caller
    of {!map} runs queued tasks too, until the queue is empty, and only
    then waits for the workers to finish theirs.  {!map} and {!map_chunked} return
    results in submission order regardless of completion order, which is
    what lets callers keep the byte-identical-output determinism
    guarantee: as long as each task is self-contained (its own RNG
    stream, its own metric registry), the reduce step observes the same
    sequence at any domain count.

    Chunked execution is the preferred shape for homogeneous work over
    an index range: one task per chunk amortizes the queue round-trip
    and the completion handshake over [chunk_size] items, and each chunk
    can build private accumulation state (registry, monitor, plain
    counters) once, fold its items into it and return it for one merge
    at the barrier — no per-item synchronization at all.  Chunk
    boundaries must depend only on the item count, never on the domain
    count, so the merged result is identical at any [--jobs].

    Tasks must not submit work back into the pool they run on: workers
    block only between tasks, so a task that waits on a nested {!map}
    against its own pool can deadlock once all domains are busy.  The
    experiment layer therefore parallelizes at exactly one level per
    entry point (devices within a fleet, or experiments within the
    suite, never both on one pool). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (none for
    [domains = 1]) and grows each worker's minor heap to at least 4M
    words, the measured sweet spot for the fleet workloads; minor heaps
    are never shrunk back.  The caller's minor heap is left as it is.
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** Number of domains that run tasks: the workers plus the caller. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], caller included: the count
    the CLI's [--jobs] flag defaults to. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] evaluates [f x] for every element on the pool's domains
    (the calling one included) and returns the results in the order of [xs].  If any application
    raised, the first raising element's exception (in submission order)
    is re-raised in the caller after all tasks have settled — the pool
    itself stays usable. *)

val map_opt : t option -> ('a -> 'b) -> 'a list -> 'b list
(** [map_opt (Some t)] is [map t]; [map_opt None] is sequential
    [List.map] — the single code path callers use so that [--jobs 1]
    and [--jobs n] run identical per-element computations. *)

(** {2 Chunked execution} *)

type chunk = { lo : int; hi : int }
(** Half-open index range [\[lo, hi)]. *)

val chunks : chunk_size:int -> n:int -> chunk list
(** Static range partition of [\[0, n)] into runs of [chunk_size]
    (the last chunk may be shorter).  Depends only on [chunk_size] and
    [n] — never on the pool size — so downstream merges are
    jobs-invariant.
    @raise Invalid_argument if [chunk_size < 1] or [n < 0]. *)

val map_chunked :
  t option -> chunk_size:int -> n:int -> (chunk -> 'r) -> 'r list
(** [map_chunked pool ~chunk_size ~n f] applies [f] to every chunk of
    [\[0, n)] — one pool task per chunk, results in chunk order.  With
    [pool = None] the chunks run sequentially in the caller. *)

val shutdown : t -> unit
(** Drain nothing, accept nothing: wake every worker and join them.
    Idempotent.  Outstanding {!map} calls must have returned. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** Scoped create/shutdown: the pool is torn down when the callback
    returns or raises. *)
