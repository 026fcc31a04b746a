module Labels = struct
  type t = (string * string) list

  let bad_key_char c = c = '"' || c = '\n' || c = '='

  (* Keys stay restricted (they name series and appear bare in every
     exposition format); values carry arbitrary payload — cell ids,
     fault specs, trace excerpts — so they accept anything, including
     quotes and newlines, and the exporters escape per format. *)
  let v pairs =
    List.iter
      (fun (k, _) ->
        if k = "" then invalid_arg "Labels.v: empty key";
        if String.exists bad_key_char k then
          invalid_arg "Labels.v: keys must avoid '\"', '=', newline")
      pairs;
    let sorted =
      List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
    in
    let rec check = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if a = b then invalid_arg "Labels.v: duplicate key";
          check rest
      | _ -> ()
    in
    check sorted;
    sorted

  (* The canonical string is an identity: two distinct label sets must
     never render alike, so the structural characters are escaped in
     both positions (keys may still contain '\' or ','). *)
  let escape s =
    if
      not
        (String.exists
           (fun c -> c = '\\' || c = ',' || c = '=' || c = '\n')
           s)
    then s
    else begin
      let buffer = Buffer.create (String.length s + 4) in
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string buffer "\\\\"
          | ',' -> Buffer.add_string buffer "\\,"
          | '=' -> Buffer.add_string buffer "\\="
          | '\n' -> Buffer.add_string buffer "\\n"
          | c -> Buffer.add_char buffer c)
        s;
      Buffer.contents buffer
    end

  let to_string t =
    String.concat ","
      (List.map (fun (k, value) -> escape k ^ "=" ^ escape value) t)
end

(* Metric cells come in three flavours.  [Inert] is the null-registry
   dummy: an update is a single predictable branch, so fully
   instrumented code paths cost nothing measurable when telemetry is
   off.  [Shared] cells are domain-safe ([Atomic], or a per-metric
   mutex for histograms): a fleet's devices may update their handles
   from pool workers against one registry.  [Local] cells are plain
   unsynchronized refs for registries owned by exactly one domain at a
   time — the chunk-local accumulators the parallel experiment layer
   creates per chunk and merges once at the barrier, where an atomic
   RMW per event would be pure overhead. *)

module Counter = struct
  type t = Inert | Shared of int Atomic.t | Local of int ref

  let dummy = Inert

  let incr ?(by = 1) t =
    if by < 0 then invalid_arg "Counter.incr: negative increment";
    match t with
    | Inert -> ()
    | Shared v -> ignore (Atomic.fetch_and_add v by)
    | Local r -> r := !r + by

  let value = function Inert -> 0 | Shared v -> Atomic.get v | Local r -> !r
  let is_active = function Inert -> false | Shared _ | Local _ -> true
end

module Gauge = struct
  type t = Inert | Shared of float Atomic.t | Local of float ref

  let dummy = Inert

  let set t x =
    match t with
    | Inert -> ()
    | Shared v -> Atomic.set v x
    | Local r -> r := x

  let add t x =
    match t with
    | Inert -> ()
    | Shared v ->
        let rec retry () =
          let current = Atomic.get v in
          if not (Atomic.compare_and_set v current (current +. x)) then
            retry ()
        in
        retry ()
    | Local r -> r := !r +. x

  let value = function Inert -> 0. | Shared v -> Atomic.get v | Local r -> !r
  let is_active = function Inert -> false | Shared _ | Local _ -> true
end

module Histogram = struct
  (* One mutex per histogram (sharded by metric, not a global lock):
     concurrent observers of *different* histograms never contend.
     Histograms of unshared (single-domain) registries skip the mutex
     entirely. *)
  type t = {
    mutex : Mutex.t;
    hist : Sim.Stats.Histogram.t;
    active : bool;
    shared : bool;
  }

  let make ?(shared = true) ~active () =
    { mutex = Mutex.create (); hist = Sim.Stats.Histogram.create (); active;
      shared }

  let dummy = make ~active:false ()

  let locked t f =
    if not t.shared then f ()
    else begin
      Mutex.lock t.mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f
    end

  let observe t x =
    if t.active then locked t (fun () -> Sim.Stats.Histogram.add t.hist x)

  let count t = locked t (fun () -> Sim.Stats.Histogram.count t.hist)
  let mean t = locked t (fun () -> Sim.Stats.Histogram.mean t.hist)

  let percentile t rank =
    locked t (fun () -> Sim.Stats.Histogram.percentile t.hist rank)

  let min t = locked t (fun () -> Sim.Stats.Histogram.min t.hist)
  let max t = locked t (fun () -> Sim.Stats.Histogram.max t.hist)
  let is_active t = t.active

  (* Fold [src] into [dst].  Only called with both histograms quiescent
     or via [Registry.merge] (single caller thread); the locks still
     guard against concurrent observers. *)
  let merge_into ~dst src =
    locked src (fun () ->
        locked dst (fun () ->
            Sim.Stats.Histogram.merge ~into:dst.hist src.hist))
end

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

type entry = { labels : Labels.t; help : string; metric : metric }

type t = {
  live : bool;
  shared : bool; (* shared: atomic cells; unshared: plain refs *)
  mutex : Mutex.t; (* guards [table] and [names] *)
  table : (string, entry) Hashtbl.t; (* key = name ^ "{" ^ labels *)
  mutable names : (string * string) list; (* (name, key) in any order *)
}

let create ?(shared = true) () =
  {
    live = true;
    shared;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    names = [];
  }

let null =
  {
    live = false;
    shared = true;
    mutex = Mutex.create ();
    table = Hashtbl.create 1;
    names = [];
  }

let is_null t = not t.live
let is_shared t = t.shared

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Registration: same (name, labels) + same kind returns the existing
   handle; a kind clash (even under different labels of one name) is a
   programming error worth failing loudly on.  Serialized under the
   registry mutex so components may be constructed from pool workers. *)
let register t ~name ~labels ~help ~kind make_metric same_kind =
  let labels = Labels.v labels in
  let key = name ^ "{" ^ Labels.to_string labels in
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some entry -> (
      match same_kind entry.metric with
      | Some m -> m
      | None ->
          invalid_arg
            (Printf.sprintf "Telemetry: %s re-registered as a different kind"
               name))
  | None ->
      List.iter
        (fun (other_name, other_key) ->
          if other_name = name then
            let other = Hashtbl.find t.table other_key in
            if kind_name other.metric <> kind then
              invalid_arg
                (Printf.sprintf "Telemetry: %s already registered as a %s"
                   name
                   (kind_name other.metric)))
        t.names;
      let metric = make_metric () in
      Hashtbl.replace t.table key { labels; help; metric };
      t.names <- (name, key) :: t.names;
      match same_kind metric with Some m -> m | None -> assert false

let counter t ?(help = "") ?(labels = []) name =
  if not t.live then Counter.dummy
  else
    register t ~name ~labels ~help ~kind:"counter"
      (fun () ->
        Counter_m
          (if t.shared then Counter.Shared (Atomic.make 0)
           else Counter.Local (ref 0)))
      (function Counter_m c -> Some c | _ -> None)

(* A component's own event tally [n], which its accessors read, beside
   the registry counter it feeds: components sharing a registry
   aggregate on the counter (and the null registry drops it), so one
   [bump] keeps each count once without losing the per-component view. *)
type count = { mutable n : int; counter : Counter.t }

let count t ?help ?labels name = { n = 0; counter = counter t ?help ?labels name }

let bump ?(by = 1) c =
  Counter.incr ~by c.counter;
  c.n <- c.n + by

let gauge t ?(help = "") ?(labels = []) name =
  if not t.live then Gauge.dummy
  else
    register t ~name ~labels ~help ~kind:"gauge"
      (fun () ->
        Gauge_m
          (if t.shared then Gauge.Shared (Atomic.make 0.)
           else Gauge.Local (ref 0.)))
      (function Gauge_m g -> Some g | _ -> None)

let histogram t ?(help = "") ?(labels = []) name =
  if not t.live then Histogram.dummy
  else
    register t ~name ~labels ~help ~kind:"histogram"
      (fun () -> Histogram_m (Histogram.make ~shared:t.shared ~active:true ()))
      (function Histogram_m h -> Some h | _ -> None)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

type value = Counter of int | Gauge of float | Histogram of summary

type sample = {
  name : string;
  labels : Labels.t;
  help : string;
  value : value;
}

let summarize (h : Histogram.t) =
  {
    count = Histogram.count h;
    mean = Histogram.mean h;
    min = Histogram.min h;
    max = Histogram.max h;
    p50 = Histogram.percentile h 0.5;
    p90 = Histogram.percentile h 0.9;
    p95 = Histogram.percentile h 0.95;
    p99 = Histogram.percentile h 0.99;
    p999 = Histogram.percentile h 0.999;
  }

let entries t = locked t (fun () -> List.map (fun (name, key) -> (name, Hashtbl.find t.table key)) t.names)

let snapshot t =
  List.map
    (fun (name, (entry : entry)) ->
      let value =
        match entry.metric with
        | Counter_m c -> Counter (Counter.value c)
        | Gauge_m g -> Gauge (Gauge.value g)
        | Histogram_m h -> Histogram (summarize h)
      in
      { name; labels = entry.labels; help = entry.help; value })
    (entries t)
  |> List.sort (fun a b ->
         match String.compare a.name b.name with
         | 0 ->
             String.compare (Labels.to_string a.labels)
               (Labels.to_string b.labels)
         | c -> c)

(* Reduce [src] into [into]: counters add, histograms add bucket counts
   (every histogram shares one layout), gauges adopt the source value
   (the merge caller orders sources, so last-merged wins
   deterministically).  Metrics absent from [into] are registered with
   the source's help text.  The per-domain registries a parallel fleet
   or experiment suite accumulates reduce to the snapshot a sequential
   run against one registry would produce — exactly, except for float
   rounding in histogram means. *)
let merge ~into src =
  if is_null into || is_null src then ()
  else begin
    let sorted =
      List.sort
        (fun (a, (ea : entry)) (b, eb) ->
          match String.compare a b with
          | 0 ->
              String.compare (Labels.to_string ea.labels)
                (Labels.to_string eb.labels)
          | c -> c)
        (entries src)
    in
    List.iter
      (fun (name, (entry : entry)) ->
        let labels = entry.labels and help = entry.help in
        match entry.metric with
        | Counter_m c ->
            Counter.incr
              (counter into ~help ~labels name)
              ~by:(Counter.value c)
        | Gauge_m g -> Gauge.set (gauge into ~help ~labels name) (Gauge.value g)
        | Histogram_m h ->
            Histogram.merge_into ~dst:(histogram into ~help ~labels name) h)
      sorted
  end
