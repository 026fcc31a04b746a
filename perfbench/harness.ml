(* What every workload hands the runner ([runner.ml]).  A workload owns
   its inputs, generated from the run's seed by [setup]; [repeat] runs
   them once with tracing off; [traced] runs them once more under the
   span recorder and the layer ladder. *)

type repeat = {
  ops : int;  (** simulated operations completed *)
  units : int;  (** work units attempted (device lives, cells) *)
  failed : int;  (** units that raised or failed their check *)
  digest : string;  (** hash of every simulated output; equal across repeats *)
}

type traced = {
  metrics : (string * float) list;  (** per-layer metrics by name *)
  layers : (string * float) list;
      (** self seconds per layer (wall-equivalent: pool workers' time
          divided by the worker count), summing to [wall_s] *)
  wall_s : float;
      (** traced wall time of the same work one [repeat] does; the layers
          must compose to it *)
  checks : (string * bool) list;
}

type t = {
  name : string;
  seeds : int list;  (** seeds of the generated inputs *)
  setup : unit -> unit;  (** (re)build the inputs; timed, run several times *)
  repeat : unit -> repeat;
  checks : unit -> (string * bool) list;
      (** correctness checks beyond the per-repeat ones, run untimed *)
  traced : unit -> traced;
  teardown : unit -> unit;  (** stop every domain the workload started *)
}

let digest_of_string s = Digest.to_hex (Digest.string s)

(* Formatter into a buffer: the experiment reports are rendered in full
   (as users get them) and hashed into the repeat digest. *)
let with_report f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  let r = f fmt in
  Format.pp_print_flush fmt ();
  (r, Buffer.contents buf)

(* Sum [(layer, seconds)] entries per layer, sorted by layer. *)
let layer_table entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (layer, s) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl layer) in
      Hashtbl.replace tbl layer (prev +. s))
    entries;
  List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) tbl [])

(* A kind's self seconds under its layer; [scale] is the worker count
   for kinds recorded on pool workers. *)
let self_of ?(scale = 1.) k =
  (k.Spans.layer, (Spans.summary k).Spans.self_s /. scale)

(* Nanoseconds per item: median over [reps] runs of [f (prepare rep)],
   which returns how many items it processed; only [f] is timed. *)
let ns_per ?(reps = 3) ~prepare f =
  let samples =
    Array.init reps (fun rep ->
        let env = prepare rep in
        let items, s = Spans.time (fun () -> f env) in
        s *. 1e9 /. float_of_int (Stdlib.max 1 items))
  in
  Stats.median samples
