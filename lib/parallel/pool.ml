type t = {
  mutex : Mutex.t;
  wake : Condition.t; (* signalled on new task and on shutdown *)
  queue : (unit -> unit) Queue.t; (* guarded by [mutex] *)
  mutable closed : bool; (* guarded by [mutex] *)
  mutable workers : unit Domain.t array;
}

let default_domains () = Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.wake t.mutex
  done;
  if Queue.is_empty t.queue then (* closed *)
    Mutex.unlock t.mutex
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end

(* The caller's share of a batch: run queued tasks until none is left.
   Only [run_all]'s own wrappers reach the queue, and they never raise. *)
let rec help t =
  Mutex.lock t.mutex;
  match Queue.take_opt t.queue with
  | None -> Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      help t

(* Every minor collection in any domain is a stop-the-world rendezvous
   of all of them.  At the 256k-word default nursery an allocation-brisk
   fleet run syncs thousands of times per second, and each sync pays
   scheduler latency per non-running domain — the very anti-scaling
   BENCH_6 recorded.  The nursery size is per-domain in OCaml 5 and is
   NOT inherited through [Domain.spawn], so each worker grows its own
   at startup to 4M words (~32 MB), never shrunk back: 8 MB and 128 MB
   nurseries both timed measurably worse on the 40-day fleet at --jobs 4.

   The caller's nursery is left as it is.  Since the caller runs tasks
   too, the smallest nursery sets the rendezvous rate: on a 2-vCPU host
   one perfbench fleet repeat (1,600 devices aged 5 years, ~570M minor
   words) runs about 1,120 minor collections, each attended by the
   caller and its one worker, against about 95 with the caller's
   nursery grown as well.  Growing it was no faster there (8.2–8.6M
   against 9.2M simulated writes/s), but it raised perfbench's peak RSS
   from 26–31 MB to 102–106 MB. *)
let min_minor_heap_words = 4 * 1024 * 1024

let tune_gc () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < min_minor_heap_words then
    Gc.set { g with Gc.minor_heap_size = min_minor_heap_words }

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            tune_gc ();
            worker_loop t));
  t

let domains t = Array.length t.workers + 1

let submit_batch t tasks =
  if tasks <> [] then begin
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: submit after shutdown"
    end;
    List.iter (fun task -> Queue.push task t.queue) tasks;
    (* One broadcast for the whole batch: every sleeping worker races to
       the queue once, instead of one signal (and one mutex round-trip)
       per task. *)
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex
  end

(* Shared barrier for [map]/[map_chunked]: each task posts its result
   into its submission-order slot.  The caller runs tasks alongside the
   workers until the queue is empty, then sleeps until the last one lands.
   Slots are written by exactly one domain before it takes the completion
   mutex and read by the caller after the last release: the mutex orders
   every write before every read. *)
let run_all t (jobs : (unit -> 'a) array) =
  let n = Array.length jobs in
  let results = Array.make n None in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let remaining = ref n in
  let tasks =
    List.init n (fun i ->
        fun () ->
          let r =
            match jobs.(i) () with y -> Ok y | exception e -> Error e
          in
          results.(i) <- Some r;
          Mutex.lock done_mutex;
          decr remaining;
          if !remaining = 0 then Condition.signal done_cond;
          Mutex.unlock done_mutex)
  in
  submit_batch t tasks;
  help t;
  Mutex.lock done_mutex;
  while !remaining > 0 do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  Array.to_list
    (Array.map
       (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
       results)

let map t f xs =
  match xs with
  | [] -> []
  | xs -> run_all t (Array.of_list (List.map (fun x () -> f x) xs))

let map_opt pool f xs =
  match pool with None -> List.map f xs | Some t -> map t f xs

type chunk = { lo : int; hi : int }

let chunks ~chunk_size ~n =
  if chunk_size < 1 then invalid_arg "Pool.chunks: chunk_size must be >= 1";
  if n < 0 then invalid_arg "Pool.chunks: n must be >= 0";
  let rec build lo =
    if lo >= n then []
    else { lo; hi = Stdlib.min n (lo + chunk_size) } :: build (lo + chunk_size)
  in
  build 0

let map_chunked pool ~chunk_size ~n f =
  map_opt pool f (chunks ~chunk_size ~n)

let shutdown t =
  Mutex.lock t.mutex;
  let fresh = not t.closed in
  t.closed <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  if fresh then Array.iter Domain.join t.workers

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
