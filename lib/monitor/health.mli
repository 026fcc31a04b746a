(** SMART-style health grading from sampled time series.

    The assessor groups a {!Sampler}'s series by a subject label
    (default ["device"], the tag {!Sampler.merge} adds per fleet
    device or chaos cell), derives per-subject attributes — wear,
    wear spread, worst raw bit error rate and its trend slope, ECC
    correction margin, retry-ladder escalation rate, shrink/regen
    counts, scrub debt — and folds each attribute's verdict into one
    grade per subject:

    - [Retired]: the subject stopped serving ([device_alive] ended 0).
    - [Failing]: data has been or is about to be lost (uncorrectable
      reads, RBER at/above the strongest code's tolerance, lost
      chunks).
    - [Degraded]: still correct but visibly consuming margin (past
      target P/E cycles, thin ECC margin, retry storms, shrinks,
      outstanding scrub debt).
    - [Healthy]: everything else.

    Attributes whose input series were never sampled are simply
    omitted, so the same assessor serves single devices, fleets and
    diFS clusters. *)

type grade = Healthy | Degraded | Failing | Retired

val grade_label : grade -> string

val grade_rank : grade -> int
(** Severity order: [Healthy] 0 .. [Retired] 3. *)

val natural_compare : string -> string -> int
(** Subject ordering with trailing integers compared numerically
    (["dev-2"] before ["dev-10"]). *)

type attribute = {
  attr : string;  (** short SMART-ish attribute name *)
  value : float;  (** current (latest) value *)
  worst : float;  (** worst value seen over the sampled history *)
  threshold : float option;  (** the limit the verdict compares against *)
  flag : grade option;  (** the downgrade this attribute votes for, if any *)
}

type report = {
  subject : string;
  grade : grade;
  attributes : attribute list;
}

type thresholds = {
  target_pec : float;  (** rated P/E cycles; at/above votes [Degraded] *)
  margin_degraded : float;
      (** ECC margin (tolerable/observed RBER) below this votes
          [Degraded]; at/below 1.0 votes [Failing] *)
  retry_rate_degraded : float;
      (** read retries per flash read above this votes [Degraded] *)
  live_repair_rate_degraded : float;
      (** diFS live-repair escalations per flash read above this votes
          [Degraded] — reads are exhausting the retry ladder and leaning
          on cluster redundancy *)
}

val default_thresholds : thresholds
(** target_pec 60 (the experiment calibration), margin 1.25,
    retry rate 1e-3, live-repair rate 1e-4. *)

val assess : ?thresholds:thresholds -> Sampler.t -> report list
(** One report per subject — the value of each series' ["device"]
    label — in natural subject order ([regens-2] before
    [regens-10]).  Series that carry no ["device"] label are assessed
    as a single subject named ["device"] when {e no} series carries the
    label (the single-device case); otherwise unlabeled series are
    ignored. *)

val pp : Format.formatter -> report list -> unit
(** Render the health-report table: one banner line per subject with
    its grade, then the attribute rows. *)
