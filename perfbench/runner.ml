(* One benchmark run: set up several times, repeat the workload untraced
   until the time budget is spent, check every output, and — when asked —
   add the traced run.  Prints the run's provenance and span table as
   [_meta] / [_spans] lines, then the result object as the last line. *)

let setup_reps = 9
let min_repeats = 3

(* The tolerance within which the per-layer self times must add up to
   the traced wall time. *)
let composition_tolerance = 0.05

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "peak_rss_mb: no VmHWM"
      in
      scan ())

(* --- JSON --------------------------------------------------------------- *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "json_float: not finite"

(* Every string printed is ASCII without control characters, where
   OCaml's escaping coincides with JSON's. *)
let json_string s = Printf.sprintf "%S" s
let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"
let json_list items = "[" ^ String.concat "," items ^ "]"

let metric_json metrics =
  json_obj
    (List.map
       (fun (name, v) ->
         ( name,
           json_obj
             [ ("value", json_float v); ("unit", json_string (Catalogue.unit_of name)) ]
         ))
       metrics)

(* --- the run ------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalogue order *)
  meta : (string * string) list;  (** JSON fields of the [_meta] line *)
  spans : string;  (** JSON of the [_spans] line *)
}

let quartile_json samples =
  let q1, m, q3 = Stats.quartiles samples in
  json_obj [ ("q1", json_float q1); ("median", json_float m); ("q3", json_float q3) ]

let span_table () =
  json_list
    (Array.to_list
       (Array.map
          (fun (k : Spans.kind) ->
            let s = Spans.summary k in
            json_obj
              [
                ("span", json_string k.Spans.name);
                ("layer", json_string k.Spans.layer);
                ("calls", string_of_int s.Spans.calls);
                ("total_s", json_float s.Spans.total_s);
                ("self_s", json_float s.Spans.self_s);
              ])
          !Spans.kinds))

let gc_delta f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ( r,
    ( s1.Gc.minor_words -. s0.Gc.minor_words,
      s1.Gc.promoted_words -. s0.Gc.promoted_words,
      s1.Gc.major_collections - s0.Gc.major_collections ) )

let run ~(workload : Harness.t) ~seconds ~trace =
  let setup_s =
    Array.init setup_reps (fun _ -> snd (Spans.time workload.Harness.setup))
  in
  let started = Spans.now_ns () in
  let elapsed () = Spans.s_of_ns (Spans.now_ns () - started) in
  let reps = ref [] in
  while List.length !reps < min_repeats || elapsed () < seconds do
    (* Each repeat starts from a collected major heap, as a fresh process
       would, so no repeat pays for its predecessors' garbage. *)
    Gc.full_major ();
    let (r, s), gc = gc_delta (fun () -> Spans.time workload.Harness.repeat) in
    reps := (r, s, gc) :: !reps
  done;
  let reps = List.rev !reps in
  let rss = peak_rss_mb () in
  let rep_s = Array.of_list (List.map (fun (_, s, _) -> s) reps) in
  let ops_per_s =
    Array.of_list
      (List.map (fun ((r : Harness.repeat), s, _) -> float_of_int r.Harness.ops /. s) reps)
  in
  let first, _, _ = List.hd reps in
  let attempted = List.fold_left (fun acc (r, _, _) -> acc + r.Harness.units) 0 reps in
  let failed = List.fold_left (fun acc (r, _, _) -> acc + r.Harness.failed) 0 reps in
  let stable_digest =
    List.for_all (fun (r, _, _) -> r.Harness.digest = first.Harness.digest) reps
  in
  let checks =
    ("repeats.identical_digest", stable_digest)
    :: ("repeats.no_failed_units", failed = 0)
    :: workload.Harness.checks ()
  in
  let e2e =
    [
      ("sim_ops_per_s", Stats.median ops_per_s);
      ("setup_s", Stats.median setup_s);
      ("peak_rss_mb", rss);
    ]
  in
  let metrics, checks, layers =
    if not trace then (e2e, checks, [])
    else begin
      let t = workload.Harness.traced () in
      let composed = List.fold_left (fun acc (_, s) -> acc +. s) 0. t.Harness.layers in
      let composition_error = Float.abs (composed -. t.Harness.wall_s) /. t.Harness.wall_s in
      let last, _, (minor, promoted, majors) = List.nth reps (List.length reps - 1) in
      let per_op w = w /. float_of_int (Stdlib.max 1 last.Harness.ops) in
      let extra =
        [
          ("gc.minor_words_per_op", per_op minor);
          ("gc.promoted_words_per_op", per_op promoted);
          ("gc.major_collections", float_of_int majors);
          ("trace_overhead", t.Harness.wall_s /. Stats.median rep_s);
          ("trace.composition_error", composition_error);
          ("failed_ratio", float_of_int failed /. float_of_int (Stdlib.max 1 attempted));
        ]
      in
      let found = t.Harness.metrics @ extra in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name Catalogue.per_layer) then
            invalid_arg ("Runner.run: metric outside the catalogue: " ^ name))
        found;
      let metrics =
        List.map
          (fun (name, _) -> (name, Option.value ~default:0. (List.assoc_opt name found)))
          Catalogue.per_layer
      in
      ( metrics,
        checks
        @ t.Harness.checks
        @ [ ("trace.layers_compose_to_wall", composition_error <= composition_tolerance) ],
        t.Harness.layers )
    end
  in
  let meta =
    [
      ("workload", json_string workload.Harness.name);
      ("trace", string_of_bool trace);
      ("input_seeds", json_list (List.map string_of_int workload.Harness.seeds));
      ("run_seconds", json_float seconds);
      ("repeats", string_of_int (List.length reps));
      ("setup_repeats", string_of_int setup_reps);
      ("digest", json_string first.Harness.digest);
      ( "checks",
        json_obj (List.map (fun (name, ok) -> (name, string_of_bool ok)) checks) );
      ( "quartiles",
        json_obj
          [
            ("sim_ops_per_s", quartile_json ops_per_s);
            ("setup_s", quartile_json setup_s);
            ("repeat_s", quartile_json rep_s);
          ] );
      ("ocaml_version", json_string Sys.ocaml_version);
      ("domains", string_of_int (Domain.recommended_domain_count ()));
      ("composition_tolerance", json_float composition_tolerance);
      ("layers_s", json_obj (List.map (fun (l, s) -> (l, json_float s)) layers));
    ]
  in
  {
    correct = List.for_all snd checks;
    attempted;
    failed;
    metrics;
    meta;
    spans = (if trace then span_table () else "[]");
  }

let print r =
  print_endline (json_obj [ ("_meta", json_obj r.meta) ]);
  print_endline (json_obj [ ("_spans", r.spans) ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool r.correct);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("metrics", metric_json r.metrics);
       ])
