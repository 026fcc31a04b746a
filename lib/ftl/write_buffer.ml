(* Direct-address buffer: payloads and a pending flag live in arrays
   indexed by logical oPage, and arrival order is a growable int ring.
   The steady-state write path (one [put] + its share of [pop_into] per
   host write, plus one of each per GC-relocated oPage) touches only a
   handful of array words — no hashing, no per-entry cells.

   The ring's length is a power of two (64, doubled on growth), so ring
   positions wrap with [land (length - 1)] instead of a division.

   A dropped entry leaves its ring slot behind; [pop_into] skips slots whose
   logical is no longer pending, exactly like the stale-queue-entry
   semantics the hashtable version had, so arrival order is unchanged:
   a logical popped or dropped and then re-put re-enters at the back. *)

type t = {
  mutable payloads : int array; (* logical -> pending payload *)
  mutable pending : Bytes.t; (* logical -> '\001' iff pending *)
  mutable count : int; (* number of pending logicals *)
  mutable ring : int array; (* arrival order, circular; power-of-two length *)
  mutable head : int; (* next pop index *)
  mutable used : int; (* ring entries between head and tail *)
}

(* Doubling keeps a power of two a power of two. *)
let initial_ring = 64
let () = assert (initial_ring > 0 && initial_ring land (initial_ring - 1) = 0)

let create ?(capacity = 64) () =
  let capacity = Stdlib.max 1 capacity in
  {
    payloads = Array.make capacity 0;
    pending = Bytes.make capacity '\000';
    count = 0;
    ring = Array.make initial_ring 0;
    head = 0;
    used = 0;
  }

let length t = t.count
let is_empty t = t.count = 0

let ensure_logical t logical =
  let n = Array.length t.payloads in
  if logical >= n then begin
    let n' = Stdlib.max (logical + 1) (n * 2) in
    let payloads = Array.make n' 0 in
    Array.blit t.payloads 0 payloads 0 n;
    let pending = Bytes.make n' '\000' in
    Bytes.blit t.pending 0 pending 0 n;
    t.payloads <- payloads;
    t.pending <- pending
  end

let push_ring t logical =
  let cap = Array.length t.ring in
  if t.used = cap then begin
    (* grow, unrolling the circular order into the new array *)
    let ring = Array.make (cap * 2) 0 in
    let tail_len = cap - t.head in
    Array.blit t.ring t.head ring 0 tail_len;
    Array.blit t.ring 0 ring tail_len t.head;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.used) land (Array.length t.ring - 1)) <- logical;
  t.used <- t.used + 1

let mem t logical =
  logical >= 0
  && logical < Array.length t.payloads
  && Bytes.unsafe_get t.pending logical <> '\000'

let put t ~logical ~payload =
  ensure_logical t logical;
  if Bytes.unsafe_get t.pending logical = '\000' then begin
    Bytes.unsafe_set t.pending logical '\001';
    t.count <- t.count + 1;
    push_ring t logical
  end;
  t.payloads.(logical) <- payload

let payload_of t logical =
  if mem t logical then Some t.payloads.(logical) else None

let drop t logical =
  if mem t logical then begin
    Bytes.unsafe_set t.pending logical '\000';
    t.count <- t.count - 1
  end

let pop_into t ~logicals ~payloads n =
  let rec take filled =
    if filled = n || t.used = 0 then filled
    else begin
      let logical = t.ring.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.ring - 1);
      t.used <- t.used - 1;
      if Bytes.unsafe_get t.pending logical = '\000' then take filled
        (* stale: dropped, or rewritten and already popped *)
      else begin
        Bytes.unsafe_set t.pending logical '\000';
        t.count <- t.count - 1;
        logicals.(filled) <- logical;
        payloads.(filled) <- t.payloads.(logical);
        take (filled + 1)
      end
    end
  in
  take 0
