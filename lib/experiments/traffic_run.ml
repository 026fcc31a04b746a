type row = {
  label : string;
  chaos : bool;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max_us : float;
  completed : int;
  throttled : int;
  violations : int;
  read_errors : int;
  tail_cause : string;
      (* dominant cause bit among p999-and-above ops; "untagged" when
         no background work billed into the tail, "-" on empty cells *)
}

(* The generator's window is sized inside the smallest device capacity
   (32x16x4 oPages minus over-provisioning) so trace LBAs survive the
   replayer's capacity fold unwrapped on a fresh device. *)
let window = 1024

let make_spec ~tenants ~ops =
  { Traffic.Gen.default_spec with Traffic.Gen.tenants; ops; window }

let kinds = [ `Baseline; `Cvss; `Regens ]

(* Media faults only: kills and power cuts need cluster / crash-rebuild
   plumbing that belongs to the chaos experiment, not the latency one. *)
let media_only plan =
  List.filter
    (function
      | Faults.Plan.Transient_flips _ | Faults.Plan.Sticky_pages _
      | Faults.Plan.Silent_corruption _ ->
          true
      | _ -> false)
    plan

let pp_top fmt population accounts =
  List.iter
    (fun id ->
      Format.fprintf fmt " #%d(%s) ops=%d reads=%d thr=%d slo=%d" id
        (Traffic.Tenant.profile_of population id).Traffic.Tenant.name
        (Traffic.Tenant.Accounts.ops accounts id)
        (Traffic.Tenant.Accounts.reads accounts id)
        (Traffic.Tenant.Accounts.throttles accounts id)
        (Traffic.Tenant.Accounts.violations accounts id))
    (Traffic.Tenant.Accounts.top accounts ~n:3)

(* Tail root-cause attribution for one latency histogram: report the
   dominant cause bit among ops in the p999 bucket and above (strict
   max, so ties keep the lower bit), plus the worst retained tagged
   exemplar.  Returns the dominant cause name for the summary row. *)
let pp_tail_cause fmt hist =
  if Traffic.Lathist.count hist = 0 then "-"
  else begin
    let q = 0.999 in
    let n = Traffic.Lathist.count_above hist q in
    let totals = Traffic.Lathist.tag_totals_above hist q in
    let best = ref (-1) and best_n = ref 0 in
    for i = 0 to Obs.Cause.width - 1 do
      if totals.(i) > !best_n then begin
        best := i;
        best_n := totals.(i)
      end
    done;
    let cause = if !best < 0 then "untagged" else Obs.Cause.name_of_bit !best in
    Format.fprintf fmt "  tail: p999=%.1fus n=%d cause=%s"
      (Traffic.Lathist.percentile hist q)
      n cause;
    if !best >= 0 then Format.fprintf fmt " (%d/%d)" !best_n n;
    (match Traffic.Lathist.exemplar_above hist q with
    | Some (us, tags) ->
        Format.fprintf fmt " exemplar=%.1fus [%s]" us (Obs.Cause.to_string tags)
    | None -> ());
    Format.fprintf fmt "@.";
    cause
  end

(* The four most frequent cause sets among tagged ops: count
   descending, ties in natural name order. *)
let pp_cause_mix fmt mix =
  let by_count a b =
    match compare mix.(b) mix.(a) with
    | 0 ->
        Monitor.Health.natural_compare (Obs.Cause.to_string a)
          (Obs.Cause.to_string b)
    | c -> c
  in
  let tagged =
    List.init (Array.length mix - 1) succ |> List.filter (fun s -> mix.(s) > 0)
  in
  match List.sort by_count tagged with
  | [] -> ()
  | sets ->
      Format.fprintf fmt "  causes:";
      List.iteri
        (fun i s ->
          if i < 4 then
            Format.fprintf fmt " %s=%d" (Obs.Cause.to_string s) mix.(s))
        sets;
      Format.fprintf fmt "@."

let run_cell ~registry ?obs ~spec ~trace ~seed ~batch ~qos ~plan ~kind ~chaos
    fmt =
  let kind_index =
    match kind with `Baseline -> 0 | `Cvss -> 1 | `Regens -> 2
  in
  (* The device stream depends on the kind but not on the chaos flag, so
     a faulted cell ages the same device its fault-free twin does. *)
  let rng = Sim.Rng.create (seed + (17 * (kind_index + 1))) in
  (* Keep the chip handle: the packed wrapper hides the concrete type,
     but chaos cells must reach Flash.Chip.inject. *)
  let device, engine = Defaults.device ~registry (kind :> Defaults.kind) ~rng in
  let chip = Ftl.Engine.chip engine in
  let label = Ftl.Device_intf.label device in
  (* Prefill the window so trace reads hit mapped LBAs instead of
     returning `Unmapped before the first write lands there. *)
  let prefill = Stdlib.min window (Ftl.Device_intf.logical_capacity device) in
  let prefilled, _ =
    Ftl.Device_intf.write_many device (Array.init prefill (fun i -> (i, i)))
  in
  let population =
    Traffic.Tenant.create ~profiles:spec.Traffic.Gen.profiles
      ~tenants:spec.Traffic.Gen.tenants ()
  in
  let injector =
    if chaos then
      Some
        (Faults.Injector.create
           ~rng:(Sim.Rng.create (seed + 1000 + kind_index))
           (media_only plan))
    else None
  in
  let on_batch =
    Option.map
      (fun inj ~batch ->
        List.iter
          (function
            | Faults.Injector.Inject { block; page; fault } ->
                Flash.Chip.inject chip ~block ~page fault
            | Faults.Injector.Kill_device _ | Faults.Injector.Power_cut -> ())
          (Faults.Injector.step inj ~geometry:(Flash.Chip.geometry chip)
             ~step:batch))
      injector
  in
  let outcome =
    Traffic.Replay.run
      ~config:{ Traffic.Replay.default_config with Traffic.Replay.batch }
      ?qos:(if qos then Some Traffic.Qos.default_config else None)
      ~intensity:(fun ~op -> Traffic.Gen.intensity spec ~op)
      ?on_batch ~population ~trace ~device ()
  in
  let o = outcome in
  Format.fprintf fmt "cell %s%s: completed=%d/%d prefilled=%d died=%b end_ms=%.1f@."
    label
    (if chaos then "+chaos" else "")
    o.Traffic.Replay.completed (Workload.Trace.length trace) prefilled
    o.Traffic.Replay.died
    (o.Traffic.Replay.end_us /. 1000.);
  Format.fprintf fmt "  lat_us %10s %10s %10s %10s %10s@." "p50" "p95" "p99"
    "p999" "max";
  Format.fprintf fmt "  all    %a@." Traffic.Lathist.pp_row o.Traffic.Replay.all;
  Format.fprintf fmt "  read   %a@." Traffic.Lathist.pp_row
    o.Traffic.Replay.reads;
  Format.fprintf fmt "  write  %a@." Traffic.Lathist.pp_row
    o.Traffic.Replay.writes;
  let ops, reads, throttles, violations =
    Traffic.Tenant.Accounts.totals o.Traffic.Replay.accounts
  in
  Format.fprintf fmt
    "  qos: ops=%d reads=%d throttled=%d throttle_ms=%.1f slo_violations=%d \
     active_tenants=%d/%d@."
    ops reads throttles
    (o.Traffic.Replay.throttle_us /. 1000.)
    violations
    (Traffic.Tenant.Accounts.active o.Traffic.Replay.accounts)
    (Traffic.Tenant.tenants population);
  ignore throttles;
  let bg = Ftl.Device_intf.bg_stats device in
  Format.fprintf fmt
    "  bg: gc=%d relocated=%d retries=%d reclaims=%d unmapped=%d \
     uncorrectable=%d@."
    bg.Ftl.Device_intf.gc_runs bg.Ftl.Device_intf.relocated_opages
    bg.Ftl.Device_intf.read_retries bg.Ftl.Device_intf.read_reclaims
    o.Traffic.Replay.unmapped_reads o.Traffic.Replay.read_errors;
  (match injector with
  | Some inj ->
      Format.fprintf fmt "  injected:";
      List.iter
        (fun (cls, n) -> Format.fprintf fmt " %s=%d" cls n)
        (Faults.Injector.injected inj);
      Format.fprintf fmt "@."
  | None -> ());
  Format.fprintf fmt "  top:%a@."
    (fun fmt () -> pp_top fmt population o.Traffic.Replay.accounts)
    ();
  let tail_cause = pp_tail_cause fmt o.Traffic.Replay.all in
  pp_cause_mix fmt o.Traffic.Replay.cause_mix;
  let cell_id = label ^ if chaos then "+chaos" else "" in
  Option.iter
    (fun acc ->
      Obs.Fleet_report.Acc.observe acc
        (Defaults.observation ~id:cell_id
           ~alive:(Ftl.Device_intf.alive device) device))
    obs;
  let p q = Traffic.Lathist.percentile o.Traffic.Replay.all q in
  {
    label;
    chaos;
    p50 = p 0.5;
    p95 = p 0.95;
    p99 = p 0.99;
    p999 = p 0.999;
    max_us = Traffic.Lathist.max o.Traffic.Replay.all;
    completed = o.Traffic.Replay.completed;
    throttled = o.Traffic.Replay.throttled_ops;
    violations = o.Traffic.Replay.slo_violations;
    read_errors = o.Traffic.Replay.read_errors;
    tail_cause;
  }

let rows_to_json rows =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"rows\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"label\":%S,\"chaos\":%b,\"p50\":%.3f,\"p95\":%.3f,\"p99\":%.3f,\
            \"p999\":%.3f,\"max_us\":%.3f,\"completed\":%d,\"throttled\":%d,\
            \"violations\":%d,\"read_errors\":%d,\"tail_cause\":%S}"
           r.label r.chaos r.p50 r.p95 r.p99 r.p999 r.max_us r.completed
           r.throttled r.violations r.read_errors r.tail_cause))
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b

let make_trace ~tenants ~ops ~seed =
  Traffic.Gen.generate (make_spec ~tenants ~ops) ~seed

let run ?(ctx = Ctx.default) ?(tenants = 64) ?(ops = 12_000) ?(seed = 42)
    ?(batch = 16) ?(qos = true)
    ?(plan = List.assoc "media" Faults.Plan.presets) ?trace fmt =
  let spec = make_spec ~tenants ~ops in
  let trace =
    match trace with Some t -> t | None -> Traffic.Gen.generate spec ~seed
  in
  Format.fprintf fmt
    "traffic: tenants=%d ops=%d seed=%d batch=%d qos=%b plan=%a@." tenants
    (Workload.Trace.length trace)
    seed batch qos Faults.Plan.pp (media_only plan);
  let cells =
    List.concat_map (fun kind -> [ (kind, false); (kind, true) ]) kinds
  in
  (* Six self-contained cells fan out over the pool via {!Ctx.map};
     rendering and sink absorption happen in submission order, so the
     report is byte-identical at any job count. *)
  let rendered =
    Ctx.map ctx cells (fun sub (kind, chaos) ->
        let buf = Buffer.create 2048 in
        let bfmt = Format.formatter_of_buffer buf in
        let row =
          run_cell ~registry:sub.Ctx.registry ?obs:sub.Ctx.obs ~spec ~trace
            ~seed ~batch ~qos ~plan ~kind ~chaos bfmt
        in
        Format.pp_print_flush bfmt ();
        (Buffer.contents buf, row))
  in
  List.iter (fun (text, _) -> Format.pp_print_string fmt text) rendered;
  let rows = List.map snd rendered in
  Format.fprintf fmt "latency comparison (us):@.";
  Format.fprintf fmt "  %-10s %-6s %10s %10s %10s %10s  %s@." "device" "chaos"
    "p50" "p95" "p99" "p999" "tail-cause";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-10s %-6s %10.1f %10.1f %10.1f %10.1f  %s@."
        r.label
        (if r.chaos then "media" else "-")
        r.p50 r.p95 r.p99 r.p999 r.tail_cause)
    rows;
  List.iter
    (fun label ->
      match
        ( List.find_opt (fun r -> r.label = label && not r.chaos) rows,
          List.find_opt (fun r -> r.label = label && r.chaos) rows )
      with
      | Some clean, Some dirty when clean.p999 > 0. ->
          Format.fprintf fmt "  %s p999 chaos/clean = %.2fx@." label
            (dirty.p999 /. clean.p999)
      | _ -> ())
    [ "baseline"; "cvss"; "regens" ];
  rows
