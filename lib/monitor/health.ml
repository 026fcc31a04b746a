type grade = Healthy | Degraded | Failing | Retired

let grade_label = function
  | Healthy -> "HEALTHY"
  | Degraded -> "DEGRADED"
  | Failing -> "FAILING"
  | Retired -> "RETIRED"

let grade_rank = function
  | Healthy -> 0
  | Degraded -> 1
  | Failing -> 2
  | Retired -> 3

type attribute = {
  attr : string;
  value : float;
  worst : float;
  threshold : float option;
  flag : grade option;
}

type report = { subject : string; grade : grade; attributes : attribute list }

type thresholds = {
  target_pec : float;
  margin_degraded : float;
  retry_rate_degraded : float;
  live_repair_rate_degraded : float;
}

let default_thresholds =
  {
    target_pec = 60.;
    margin_degraded = 1.25;
    retry_rate_degraded = 1e-3;
    live_repair_rate_degraded = 1e-4;
  }

(* "regens-2" sorts before "regens-10": compare the trailing integer
   numerically when both subjects share the non-numeric prefix. *)
let natural_compare a b =
  let split s =
    let n = String.length s in
    let i = ref n in
    while !i > 0 && s.[!i - 1] >= '0' && s.[!i - 1] <= '9' do
      decr i
    done;
    if !i = n then (s, -1)
    else (String.sub s 0 !i, int_of_string (String.sub s !i (n - !i)))
  in
  let pa, na = split a and pb, nb = split b in
  match String.compare pa pb with 0 -> compare na nb | c -> c

(* Least-squares slope of the [last] values against [t1] times. *)
let slope points =
  match points with
  | [] | [ _ ] -> 0.
  | points ->
      let n = float_of_int (List.length points) in
      let sx = List.fold_left (fun a (p : Series.point) -> a +. p.t1) 0. points
      and sy =
        List.fold_left (fun a (p : Series.point) -> a +. p.last) 0. points
      in
      let mx = sx /. n and my = sy /. n in
      let cov, var =
        List.fold_left
          (fun (cov, var) (p : Series.point) ->
            let dx = p.t1 -. mx in
            (cov +. (dx *. (p.last -. my)), var +. (dx *. dx)))
          (0., 0.) points
      in
      if var = 0. then 0. else cov /. var

let assess ?(thresholds = default_thresholds) sampler =
  let all = Sampler.series sampler in
  let subject_of ((k : Sampler.Key.t), _) =
    List.assoc_opt "device" k.labels
  in
  let subjects =
    List.filter_map subject_of all
    |> List.sort_uniq String.compare
    |> List.sort natural_compare
  in
  (* A monitor watching a single unlabeled device (the [age] path) is
     one subject owning every series. *)
  let subjects, member =
    if subjects = [] then
      ([ "device" ], fun _ (_ : Sampler.Key.t * Series.t) -> true)
    else (subjects, fun subject entry -> subject_of entry = Some subject)
  in
  List.map
    (fun subject ->
      let mine = List.filter (member subject) all in
      let matching names field =
        List.filter
          (fun ((k : Sampler.Key.t), _) ->
            List.mem k.name names && k.field = field)
          mine
        |> List.map snd
      in
      let fold_last combine names =
        match
          List.filter_map (fun s -> Series.last s) (matching names "value")
        with
        | [] -> None
        | v :: rest -> Some (List.fold_left combine v rest)
      in
      let sum_last = fold_last ( +. )
      and max_last = fold_last Float.max
      and min_last = fold_last Float.min in
      let worst_of fold names =
        match matching names "value" with
        | [] -> nan
        | series ->
            List.concat_map Series.points series
            |> List.fold_left (fun a (p : Series.point) -> fold a p) nan
      in
      let fold_nan f a b = if Float.is_nan a then b else f a b in
      let attrs = ref [] in
      let attr ?threshold ?flag ?(worst = nan) name value =
        let worst = if Float.is_nan worst then value else worst in
        attrs := { attr = name; value; worst; threshold; flag } :: !attrs
      in
      (* Availability: Retired once the device stopped serving. *)
      (match min_last [ "device_alive" ] with
      | Some alive ->
          attr "alive" alive
            ~worst:(worst_of (fun a p -> fold_nan Float.min a p.vmin)
                      [ "device_alive" ])
            ~threshold:1.
            ?flag:(if alive < 1. then Some Retired else None)
      | None -> ());
      (* Wear: highest per-block P/E count against the rated target, and
         the max-min spread the wear leveler is supposed to keep tight. *)
      (match max_last [ "flash_pec_max" ] with
      | Some pec ->
          attr "pe-cycles-max" pec
            ~worst:(worst_of (fun a p -> fold_nan Float.max a p.vmax)
                      [ "flash_pec_max" ])
            ~threshold:thresholds.target_pec
            ?flag:(if pec >= thresholds.target_pec then Some Degraded else None)
      | None -> ());
      (match (max_last [ "flash_pec_max" ], min_last [ "flash_pec_min" ]) with
      | Some hi, Some lo -> attr "wear-spread" (hi -. lo)
      | _ -> ());
      (* Raw media errors vs what the (strongest available) code can
         correct: the margin Salamander spends level by level. *)
      let rber = max_last [ "flash_rber_worst" ] in
      let tolerable = max_last [ "device_tolerable_rber" ] in
      (match rber with
      | Some r ->
          attr "rber-worst" r
            ~worst:(worst_of (fun a p -> fold_nan Float.max a p.vmax)
                      [ "flash_rber_worst" ])
            ?threshold:tolerable
            ?flag:
              (match tolerable with
              | Some t when r >= t -> Some Failing
              | _ -> None);
          (match matching [ "flash_rber_worst" ] "value" with
          | s :: _ -> attr "rber-trend" (slope (Series.points s))
          | [] -> ())
      | None -> ());
      (match (rber, tolerable) with
      | Some r, Some t when r > 0. ->
          let margin = t /. r in
          attr "ecc-margin" margin ~threshold:thresholds.margin_degraded
            ?flag:
              (if margin <= 1. then Some Failing
               else if margin < thresholds.margin_degraded then Some Degraded
               else None)
      | _ -> ());
      (* Retry-ladder escalation: retries per flash read. *)
      (match
         (sum_last [ "ftl_read_retries_total" ], sum_last [ "flash_reads_total" ])
       with
      | Some retries, Some reads when reads > 0. ->
          let rate = retries /. reads in
          attr "retry-rate" rate ~threshold:thresholds.retry_rate_degraded
            ?flag:
              (if rate >= thresholds.retry_rate_degraded then Some Degraded
               else None)
      | _ -> ());
      (* Foreground live repair: escalations per flash read.  Any
         repair activity means reads are exhausting their retry ladder
         — margin is being spent even when every repair lands. *)
      (match
         ( sum_last [ "difs_live_repair_attempts_total" ],
           sum_last [ "flash_reads_total" ] )
       with
      | Some repairs, Some reads when reads > 0. ->
          let rate = repairs /. reads in
          attr "live-repair-rate" rate
            ~threshold:thresholds.live_repair_rate_degraded
            ?flag:
              (if rate >= thresholds.live_repair_rate_degraded then
                 Some Degraded
               else None)
      | _ -> ());
      (* Anything uncorrectable is (at least) lost data. *)
      (match
         sum_last
           [ "ftl_uncorrectable_reads_total"; "difs_unrecoverable_opages_total" ]
       with
      | Some u ->
          attr "uncorrectable" u ~threshold:0.
            ?flag:(if u > 0. then Some Failing else None)
      | None -> ());
      (* Salamander life-extension activity: shrinks consumed capacity,
         regens consumed spare margin — both are visible ageing. *)
      (match sum_last [ "salamander_decommissions_total" ] with
      | Some d ->
          attr "shrinks" d ~threshold:0.
            ?flag:(if d > 0. then Some Degraded else None)
      | None -> ());
      (match sum_last [ "salamander_regenerations_total" ] with
      | Some r -> attr "regens" r
      | None -> ());
      (* Cluster subjects: scrub debt (mismatches found but not yet
         repaired) and chunk loss. *)
      (match
         ( sum_last [ "difs_scrub_mismatches_total" ],
           sum_last [ "difs_scrub_repairs_total" ] )
       with
      | Some m, repairs ->
          let failures =
            Option.value ~default:0.
              (sum_last [ "difs_scrub_repair_failures_total" ])
          in
          let debt =
            Float.max 0. (m -. Option.value ~default:0. repairs) +. failures
          in
          attr "scrub-debt" debt ~threshold:0.
            ?flag:(if debt > 0. then Some Degraded else None)
      | None, _ -> ());
      (match sum_last [ "difs_lost_chunks_total" ] with
      | Some l ->
          attr "lost-chunks" l ~threshold:0.
            ?flag:(if l > 0. then Some Failing else None)
      | None -> ());
      let attributes = List.rev !attrs in
      let grade =
        List.fold_left
          (fun g a ->
            match a.flag with
            | Some f when grade_rank f > grade_rank g -> f
            | _ -> g)
          Healthy attributes
      in
      { subject; grade; attributes })
    subjects

let cell v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let pp ppf reports =
  match reports with
  | [] -> Format.fprintf ppf "  (no subjects sampled)@."
  | _ ->
      List.iter
        (fun r ->
          Format.fprintf ppf "  %s: %s@." r.subject (grade_label r.grade);
          let rows =
            List.map
              (fun a ->
                ( a.attr,
                  cell a.value,
                  cell a.worst,
                  (match a.threshold with None -> "-" | Some t -> cell t),
                  match a.flag with None -> "ok" | Some f -> grade_label f ))
              r.attributes
          in
          let w f =
            List.fold_left (fun w row -> Stdlib.max w (String.length (f row)))
              0 rows
          in
          let w1 = Stdlib.max (w (fun (a, _, _, _, _) -> a)) 9
          and w2 = Stdlib.max (w (fun (_, v, _, _, _) -> v)) 5
          and w3 = Stdlib.max (w (fun (_, _, v, _, _) -> v)) 5
          and w4 = Stdlib.max (w (fun (_, _, _, v, _) -> v)) 9 in
          Format.fprintf ppf "    %-*s  %*s  %*s  %*s  %s@." w1 "attribute" w2
            "value" w3 "worst" w4 "threshold" "status";
          List.iter
            (fun (a, v, worst, threshold, status) ->
              Format.fprintf ppf "    %-*s  %*s  %*s  %*s  %s@." w1 a w2 v w3
                worst w4 threshold status)
            rows)
        reports
