(* Fleet-scale wear-imbalance analytics.

   One [observation] per device per run flows into an [Acc]: log-linear
   histograms for wear, wear spread, worst RBER and retry rate;
   exact sums for mean/CV; grade counts; and an exact top-K of the
   worst devices.  Accumulators follow the scratch/merge discipline of
   the rest of the reduction path — each parallel chunk observes into
   its own [Acc.sub], the submission-order absorb loop merges them, so
   the built report is byte-identical at any job count. *)

module Health = Monitor.Health
module Histogram = Sim.Stats.Histogram

type observation = {
  id : string;
  pec_max : int;
  pec_min : int;
  rber_worst : float;
  tolerable_rber : float;
  retries : int;
  escalations : int;
  reclaims : int;
  host_writes : int;
  alive : bool;
}

let retry_rate obs =
  if obs.host_writes <= 0 then 0.
  else float_of_int obs.retries /. float_of_int obs.host_writes

let grade thresholds obs =
  if not obs.alive then Health.Retired
  else if obs.tolerable_rber > 0. && obs.rber_worst >= obs.tolerable_rber then
    Health.Failing
  else if
    float_of_int obs.pec_max >= thresholds.Health.target_pec
    || retry_rate obs >= thresholds.Health.retry_rate_degraded
  then Health.Degraded
  else Health.Healthy

(* Worst-first ordering key: grade severity dominates, wear breaks ties
   within a grade.  The brute-force test scans with the same key. *)
let score thresholds obs =
  (float_of_int (Health.grade_rank (grade thresholds obs)) *. 1e6)
  +. float_of_int obs.pec_max

module Acc = struct
  type t = {
    top_k : int;
    thresholds : Health.thresholds;
    pec : Histogram.t;
    spread : Histogram.t;
    rber : Histogram.t;
    retry : Histogram.t;
    mutable devices : int;
    mutable pec_sum : float;
    mutable pec_sumsq : float;
    grades : int array; (* indexed by Health.grade_rank *)
    mutable retries : int;
    mutable escalations : int;
    mutable reclaims : int;
    mutable host_writes : int;
    worst : observation Topk.Topk.t;
  }

  let create ?(top_k = 10) ?(thresholds = Health.default_thresholds) () =
    {
      top_k;
      thresholds;
      pec = Histogram.create ();
      spread = Histogram.create ();
      rber = Histogram.create ();
      retry = Histogram.create ();
      devices = 0;
      pec_sum = 0.;
      pec_sumsq = 0.;
      grades = Array.make 4 0;
      retries = 0;
      escalations = 0;
      reclaims = 0;
      host_writes = 0;
      worst = Topk.Topk.create ~k:top_k ();
    }

  let sub t = create ~top_k:t.top_k ~thresholds:t.thresholds ()

  let observe t obs =
    t.devices <- t.devices + 1;
    let pec = float_of_int obs.pec_max in
    Histogram.add t.pec pec;
    Histogram.add t.spread (float_of_int (obs.pec_max - obs.pec_min));
    Histogram.add t.rber obs.rber_worst;
    Histogram.add t.retry (retry_rate obs);
    t.pec_sum <- t.pec_sum +. pec;
    t.pec_sumsq <- t.pec_sumsq +. (pec *. pec);
    let g = Health.grade_rank (grade t.thresholds obs) in
    t.grades.(g) <- t.grades.(g) + 1;
    t.retries <- t.retries + obs.retries;
    t.escalations <- t.escalations + obs.escalations;
    t.reclaims <- t.reclaims + obs.reclaims;
    t.host_writes <- t.host_writes + obs.host_writes;
    Topk.Topk.offer t.worst ~id:obs.id ~score:(score t.thresholds obs) obs

  let merge ~into src =
    into.devices <- into.devices + src.devices;
    Histogram.merge ~into:into.pec src.pec;
    Histogram.merge ~into:into.spread src.spread;
    Histogram.merge ~into:into.rber src.rber;
    Histogram.merge ~into:into.retry src.retry;
    into.pec_sum <- into.pec_sum +. src.pec_sum;
    into.pec_sumsq <- into.pec_sumsq +. src.pec_sumsq;
    Array.iteri (fun i n -> into.grades.(i) <- into.grades.(i) + n) src.grades;
    into.retries <- into.retries + src.retries;
    into.escalations <- into.escalations + src.escalations;
    into.reclaims <- into.reclaims + src.reclaims;
    into.host_writes <- into.host_writes + src.host_writes;
    Topk.Topk.merge ~into:into.worst src.worst

  let devices t = t.devices
end

(* Gini coefficient of the wear distribution from the histogram's
   buckets, in one ascending pass: over sorted groups (x_k, w_k),
   sum_ij w_i w_j |x_i - x_j| = 2 sum_k w_k x_k (W_below - W_above), and
   G = that / (2 W^2 mean) with the mean of the same representatives.
   O(buckets) — independent of fleet size. *)
let gini_of_histogram h =
  let w_total = float_of_int (Histogram.count h) in
  let pairs, weighted, _ =
    Histogram.fold h ~init:(0., 0., 0.) (fun (pairs, weighted, below) x n ->
        let w = float_of_int n in
        ( pairs +. (w *. x *. ((2. *. below) +. w -. w_total)),
          weighted +. (w *. x),
          below +. w ))
  in
  if w_total <= 0. || weighted <= 0. then 0.
  else pairs /. (w_total *. weighted)

type stats = {
  mean : float;
  smin : float;
  smax : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let stats_of_histogram h =
  {
    mean = Histogram.mean h;
    smin = Histogram.min h;
    smax = Histogram.max h;
    p50 = Histogram.percentile h 0.5;
    p90 = Histogram.percentile h 0.9;
    p99 = Histogram.percentile h 0.99;
  }

type t = {
  epoch : string;
  devices : int;
  grades : int array;
  pec : stats;
  spread : stats;
  rber : stats;
  retry : stats;
  cv : float;
  gini : float;
  fleet_retry_rate : float;
  fleet_escalation_rate : float;
  retries : int;
  escalations : int;
  reclaims : int;
  host_writes : int;
  worst : (observation * Health.grade) list;
}

let build ~epoch (acc : Acc.t) =
  let n = float_of_int acc.Acc.devices in
  let mean = if n > 0. then acc.Acc.pec_sum /. n else 0. in
  let var =
    if n > 0. then Float.max 0. ((acc.Acc.pec_sumsq /. n) -. (mean *. mean))
    else 0.
  in
  let cv = if mean > 0. then sqrt var /. mean else 0. in
  let per_write total =
    if acc.Acc.host_writes <= 0 then 0.
    else float_of_int total /. float_of_int acc.Acc.host_writes
  in
  {
    epoch;
    devices = acc.Acc.devices;
    grades = Array.copy acc.Acc.grades;
    pec = stats_of_histogram acc.Acc.pec;
    spread = stats_of_histogram acc.Acc.spread;
    rber = stats_of_histogram acc.Acc.rber;
    retry = stats_of_histogram acc.Acc.retry;
    cv;
    gini = gini_of_histogram acc.Acc.pec;
    fleet_retry_rate = per_write acc.Acc.retries;
    fleet_escalation_rate = per_write acc.Acc.escalations;
    retries = acc.Acc.retries;
    escalations = acc.Acc.escalations;
    reclaims = acc.Acc.reclaims;
    host_writes = acc.Acc.host_writes;
    worst =
      List.map
        (fun (_, _, obs) -> (obs, grade acc.Acc.thresholds obs))
        (Topk.Topk.to_list acc.Acc.worst);
  }

let grade_count t g = t.grades.(Health.grade_rank g)

let f6 v = Printf.sprintf "%.6g" v
let fnan v = if Float.is_nan v then "-" else f6 v

let pp fmt t =
  Format.fprintf fmt "fleet report (epoch=%s, devices=%d)@." t.epoch t.devices;
  Format.fprintf fmt
    "  grades : healthy %d  degraded %d  failing %d  retired %d@."
    (grade_count t Health.Healthy)
    (grade_count t Health.Degraded)
    (grade_count t Health.Failing)
    (grade_count t Health.Retired);
  let pp_stats label (s : stats) =
    Format.fprintf fmt
      "  %s: mean %s  min %s  max %s  p50 %s  p90 %s  p99 %s@." label
      (fnan s.mean) (fnan s.smin) (fnan s.smax) (fnan s.p50) (fnan s.p90)
      (fnan s.p99)
  in
  pp_stats "pec    " t.pec;
  pp_stats "spread " t.spread;
  pp_stats "rber   " t.rber;
  pp_stats "retry/w" t.retry;
  Format.fprintf fmt "  balance: cv %s  gini %s@." (f6 t.cv) (f6 t.gini);
  Format.fprintf fmt
    "  totals : retries %d (%s/w)  escalations %d (%s/w)  reclaims %d  \
     host-writes %d@."
    t.retries (f6 t.fleet_retry_rate) t.escalations
    (f6 t.fleet_escalation_rate) t.reclaims t.host_writes;
  if t.worst <> [] then begin
    Format.fprintf fmt "  worst devices:@.";
    List.iteri
      (fun i (obs, g) ->
        Format.fprintf fmt
          "    %2d. %-24s %-8s pec %d/%d  rber %s (tol %s)  retries %d  esc \
           %d%s@."
          (i + 1) obs.id (Health.grade_label g) obs.pec_max obs.pec_min
          (f6 obs.rber_worst) (f6 obs.tolerable_rber) obs.retries
          obs.escalations
          (if obs.alive then "" else "  dead"))
      t.worst
  end

(* Not [Telemetry.Export.json_float], which writes an infinity as
   [null]: the fleet JSONL prints every non-NaN float with "%.17g". *)
let jf v = if Float.is_nan v then "null" else Printf.sprintf "%.17g" v

let jstats label (s : stats) =
  Printf.sprintf
    "\"%s_mean\":%s,\"%s_min\":%s,\"%s_max\":%s,\"%s_p50\":%s,\"%s_p90\":%s,\"%s_p99\":%s"
    label (jf s.mean) label (jf s.smin) label (jf s.smax) label (jf s.p50)
    label (jf s.p90) label (jf s.p99)

let to_jsonl t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"record\":\"fleet\",\"epoch\":\"%s\",\"devices\":%d,\"healthy\":%d,\"degraded\":%d,\"failing\":%d,\"retired\":%d,%s,%s,%s,%s,\"cv\":%s,\"gini\":%s,\"retries\":%d,\"escalations\":%d,\"reclaims\":%d,\"host_writes\":%d,\"retry_rate\":%s,\"escalation_rate\":%s}\n"
       (Telemetry.Export.json_escape t.epoch) t.devices
       (grade_count t Health.Healthy)
       (grade_count t Health.Degraded)
       (grade_count t Health.Failing)
       (grade_count t Health.Retired)
       (jstats "pec" t.pec) (jstats "spread" t.spread) (jstats "rber" t.rber)
       (jstats "retry" t.retry) (jf t.cv) (jf t.gini) t.retries t.escalations
       t.reclaims t.host_writes (jf t.fleet_retry_rate)
       (jf t.fleet_escalation_rate));
  List.iteri
    (fun i (obs, g) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"record\":\"device\",\"rank\":%d,\"id\":\"%s\",\"grade\":\"%s\",\"pec_max\":%d,\"pec_min\":%d,\"rber_worst\":%s,\"tolerable_rber\":%s,\"retries\":%d,\"escalations\":%d,\"reclaims\":%d,\"host_writes\":%d,\"alive\":%b}\n"
           (i + 1) (Telemetry.Export.json_escape obs.id)
           (Health.grade_label g)
           obs.pec_max obs.pec_min (jf obs.rber_worst) (jf obs.tolerable_rber)
           obs.retries obs.escalations obs.reclaims obs.host_writes obs.alive))
    t.worst;
  Buffer.contents buf
