(* In-memory span recorder for the traced run.

   Spans are recorded around calls into each layer's public functions,
   from the benchmark's own code.  Every domain records into its own
   state (no synchronization on the hot path); [summary] folds all of
   them once the traced pass is over.  A span's self time is its
   duration minus the part its direct child spans (same domain) cover,
   so the self times of one domain's spans add up to its root spans.

   Fine-grained spans (millions of device calls per pass) are folded
   into per-kind totals as they close; kinds registered with
   [~samples:true] also keep every duration, for percentiles. *)

type kind = { id : int; name : string; layer : string; keep : bool }

let max_kinds = 64
let max_depth = 64
let kinds : kind array ref = ref [||]

let kind ?(samples = false) ~layer name =
  let id = Array.length !kinds in
  if id >= max_kinds then invalid_arg "Spans.kind: too many kinds";
  let k = { id; name; layer; keep = samples } in
  kinds := Array.append !kinds [| k |];
  k

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type state = {
  stack_kind : int array;
  stack_start : int array;
  stack_child : int array;
  mutable depth : int;
  count : int array;
  work : int array;
  total_ns : int array;
  self_ns : int array;
  samples : int list array;  (** newest first *)
}

let states = ref []
let states_lock = Mutex.create ()

let fresh_state () =
  let s =
    {
      stack_kind = Array.make max_depth 0;
      stack_start = Array.make max_depth 0;
      stack_child = Array.make max_depth 0;
      depth = 0;
      count = Array.make max_kinds 0;
      work = Array.make max_kinds 0;
      total_ns = Array.make max_kinds 0;
      self_ns = Array.make max_kinds 0;
      samples = Array.make max_kinds [];
    }
  in
  Mutex.protect states_lock (fun () -> states := s :: !states);
  s

let key = Domain.DLS.new_key fresh_state

let leave s stop =
  let d = s.depth - 1 in
  let k = s.stack_kind.(d) in
  let dur = stop - s.stack_start.(d) in
  s.depth <- d;
  s.count.(k) <- s.count.(k) + 1;
  s.total_ns.(k) <- s.total_ns.(k) + dur;
  s.self_ns.(k) <- s.self_ns.(k) + dur - s.stack_child.(d);
  if d > 0 then s.stack_child.(d - 1) <- s.stack_child.(d - 1) + dur;
  if (!kinds).(k).keep then s.samples.(k) <- dur :: s.samples.(k)

let span k f =
  let s = Domain.DLS.get key in
  let d = s.depth in
  if d >= max_depth then invalid_arg "Spans.span: nesting too deep";
  s.stack_kind.(d) <- k.id;
  s.stack_child.(d) <- 0;
  s.depth <- d + 1;
  s.stack_start.(d) <- now_ns ();
  match f () with
  | r ->
      leave s (now_ns ());
      r
  | exception e ->
      leave s (now_ns ());
      raise e

let add k n =
  let s = Domain.DLS.get key in
  s.work.(k.id) <- s.work.(k.id) + n

let all_states () = Mutex.protect states_lock (fun () -> !states)

let reset () =
  List.iter
    (fun s ->
      if s.depth <> 0 then invalid_arg "Spans.reset: a span is still open";
      Array.fill s.count 0 max_kinds 0;
      Array.fill s.work 0 max_kinds 0;
      Array.fill s.total_ns 0 max_kinds 0;
      Array.fill s.self_ns 0 max_kinds 0;
      Array.fill s.samples 0 max_kinds [])
    (all_states ())

(** Per-kind totals over every domain, in seconds. *)
type summary = {
  calls : int;
  work_done : int;  (** what [add] credited to the kind *)
  total_s : float;
  self_s : float;
  durations_s : float array;  (** kept samples, [~samples:true] kinds only *)
}

let s_of_ns ns = float_of_int ns *. 1e-9

let summary k =
  let ss = all_states () in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 ss in
  {
    calls = sum (fun s -> s.count.(k.id));
    work_done = sum (fun s -> s.work.(k.id));
    total_s = s_of_ns (sum (fun s -> s.total_ns.(k.id)));
    self_s = s_of_ns (sum (fun s -> s.self_ns.(k.id)));
    durations_s =
      Array.of_list
        (List.concat_map (fun s -> List.rev_map s_of_ns s.samples.(k.id)) ss);
  }

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, s_of_ns (now_ns () - t0))
