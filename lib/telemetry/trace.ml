let src = Logs.Src.create "salamander" ~doc:"Salamander telemetry"

module Log = (val Logs.src_log src : Logs.LOG)

let set_level level =
  Logs.set_level level;
  Logs.Src.set_level src level

let level_of_verbosity = function
  | n when n <= 0 -> None
  | 1 -> Some Logs.Warning
  | 2 -> Some Logs.Info
  | _ -> Some Logs.Debug

let clock = ref Sys.time
let set_clock f = clock := f

(* --- structured span sink ------------------------------------------------- *)

module Sink = struct
  type span = {
    id : int;
    parent : int option;
    name : string;
    args : (string * string) list;
    start : int;
    finish : int;
  }

  (* Internal node: [finish] stays -1 while the span is open. *)
  type node = {
    node_id : int;
    node_parent : int option;
    node_name : string;
    node_args : (string * string) list;
    node_start : int;
    mutable node_finish : int;
  }

  type t = {
    mutable next_id : int;
    mutable ticks : int;
    mutable stack : node list;
    mutable nodes_rev : node list;
    mutable instants_rev : (int * string * (string * string) list) list;
  }

  let create () =
    { next_id = 1; ticks = 0; stack = []; nodes_rev = []; instants_rev = [] }

  let tick t =
    t.ticks <- t.ticks + 1;
    t.ticks

  let clock t = t.ticks

  let enter t ?(args = []) name =
    let node =
      {
        node_id = t.next_id;
        node_parent =
          (match t.stack with [] -> None | n :: _ -> Some n.node_id);
        node_name = name;
        node_args = args;
        node_start = tick t;
        node_finish = -1;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- node :: t.stack;
    t.nodes_rev <- node :: t.nodes_rev;
    node.node_id

  let exit t =
    match t.stack with
    | [] -> ()
    | n :: rest ->
        t.stack <- rest;
        n.node_finish <- tick t

  let instant t name fields =
    t.instants_rev <- (tick t, name, fields) :: t.instants_rev

  let current t =
    match t.stack with [] -> None | n :: _ -> Some n.node_id

  let spans t =
    List.rev_map
      (fun n ->
        {
          id = n.node_id;
          parent = n.node_parent;
          name = n.node_name;
          args = n.node_args;
          start = n.node_start;
          finish = (if n.node_finish < 0 then t.ticks else n.node_finish);
        })
      t.nodes_rev

  let instants t = List.rev t.instants_rev

  let merge ~into ?parent src =
    let id_off = into.next_id - 1 in
    let t_off = into.ticks in
    let remap n =
      {
        node_id = n.node_id + id_off;
        node_parent =
          (match n.node_parent with
          | Some p -> Some (p + id_off)
          | None -> parent);
        node_name = n.node_name;
        node_args = n.node_args;
        node_start = n.node_start + t_off;
        node_finish =
          (if n.node_finish < 0 then src.ticks + t_off
           else n.node_finish + t_off);
      }
    in
    into.nodes_rev <-
      List.rev_append (List.rev_map remap src.nodes_rev) into.nodes_rev;
    into.instants_rev <-
      List.rev_append
        (List.rev_map
           (fun (t0, name, fields) -> (t0 + t_off, name, fields))
           src.instants_rev)
        into.instants_rev;
    into.next_id <- into.next_id + src.next_id - 1;
    into.ticks <- into.ticks + src.ticks
end

(* --- spans and events ------------------------------------------------------ *)

let span_histogram registry name =
  Registry.histogram registry ~labels:[ ("span", name) ]
    ~help:"Duration of traced spans" "span_duration_us"

let with_span ?(registry = Registry.null) ?sink ?(args = []) name f =
  let inert = Registry.is_null registry in
  let no_sink = match sink with None -> true | Some _ -> false in
  if inert && no_sink && Logs.Src.level src = None then f ()
  else begin
    let histogram = span_histogram registry name in
    (match sink with
    | Some s -> ignore (Sink.enter s ~args name)
    | None -> ());
    Log.debug (fun m -> m "span %s: enter" name);
    let started = !clock () in
    let finish () =
      let us = (!clock () -. started) *. 1e6 in
      Registry.Histogram.observe histogram us;
      (match sink with Some s -> Sink.exit s | None -> ());
      Log.debug (fun m -> m "span %s: exit (%.0f us)" name us)
    in
    match f () with
    | result ->
        finish ();
        result
    | exception e ->
        finish ();
        raise e
  end

let event ?(registry = Registry.null) ?sink ?(level = Logs.Info) name fields =
  Registry.Counter.incr
    (Registry.counter registry
       ~labels:[ ("event", name) ]
       ~help:"Traced events" "events_total");
  (match sink with Some s -> Sink.instant s name fields | None -> ());
  Log.msg level (fun m ->
      m "%s%s" name
        (match fields with
        | [] -> ""
        | fields ->
            " "
            ^ String.concat " "
                (List.map (fun (k, v) -> k ^ "=" ^ v) fields)))
