type payload = int

type fault =
  | Transient_rber of float
  | Sticky_rber of float
  | Silent_corruption of int

(* Injected-fault state for one fPage.  Faults touch a handful of pages
   per campaign while a chip holds thousands, so they live in a sparse
   side table keyed by fPage index instead of three words on every page;
   the page's state word carries a "has a fault cell" bit, so a read of
   a clean page never looks the table up, however many other pages of
   the chip carry faults. *)
type fault_cell = {
  mutable transient : float;
  mutable sticky : float;
  mutable corrupt : int;
}

(* Event counts and telemetry handles, bound to the registry passed to
   [create] (the null registry when omitted).  A count's [n] is this
   chip's own tally, which the accessors read; everything on the
   registry side is an inert single-branch no-op against the null
   registry.  Latency histograms record the
   *modeled* time of each operation under {!Latency.default} — the chip
   executes in zero simulated time, but the distribution of modeled op
   costs is exactly the "flash op latency" signal the experiments
   reason about. *)
type tel = {
  programs : Telemetry.Registry.count;
  reads : Telemetry.Registry.count;
  erases : Telemetry.Registry.count;
  tel_read_us : Telemetry.Registry.Histogram.t;
  tel_program_us : Telemetry.Registry.Histogram.t;
  tel_erase_us : Telemetry.Registry.Histogram.t;
  faults_transient : Telemetry.Registry.count;
  faults_sticky : Telemetry.Registry.count;
  faults_silent : Telemetry.Registry.count;
  (* Wear/health gauges, refreshed on erase (the only operation that
     moves them): the longitudinal signals the health monitor grades
     devices by.  All three are monotone over a chip's life — P/E
     counts only grow, so their max and min only grow, and the worst
     post-erase RBER is kept as a running max. *)
  tel_pec_max : Telemetry.Registry.Gauge.t;
  tel_pec_min : Telemetry.Registry.Gauge.t;
  tel_rber_worst : Telemetry.Registry.Gauge.t;
}

let make_tel registry =
  let latency op =
    Telemetry.Registry.histogram registry ~labels:[ ("op", op) ]
      ~help:"Modeled flash operation latency" "flash_op_latency_us"
  in
  let fault_count cls =
    Telemetry.Registry.count registry
      ~labels:[ ("class", cls) ]
      ~help:"Faults injected into the medium" "flash_faults_injected_total"
  in
  {
    programs =
      Telemetry.Registry.count registry ~help:"fPage programs"
        "flash_programs_total";
    reads =
      Telemetry.Registry.count registry ~help:"fPage/slot reads"
        "flash_reads_total";
    erases =
      Telemetry.Registry.count registry ~help:"Block erases"
        "flash_erases_total";
    tel_read_us = latency "read";
    tel_program_us = latency "program";
    tel_erase_us = latency "erase";
    faults_transient = fault_count "transient";
    faults_sticky = fault_count "sticky";
    faults_silent = fault_count "silent";
    tel_pec_max =
      Telemetry.Registry.gauge registry
        ~help:"Highest per-block P/E cycle count" "flash_pec_max";
    tel_pec_min =
      Telemetry.Registry.gauge registry
        ~help:"Lowest per-block P/E cycle count" "flash_pec_min";
    tel_rber_worst =
      Telemetry.Registry.gauge registry
        ~help:"Worst post-erase page RBER seen so far (running max)"
        "flash_rber_worst";
  }

(* Payload slot value that marks an ECC-reserved slot in the flat
   payload array; {!program_ints} rejects it as data. *)
let slot_none = min_int

(* Packed page store: flat arrays and no per-page records or boxes —
   one int (PEC) and one unboxed float (its no-read wear term) per
   block, one word per fPage ([reads_since_erase * 4 + fault bit * 2 +
   programmed bit] — neither a program nor a fault outlives an erase,
   so one clearable word covers all three), one unboxed float per fPage
   (strength), and one int per oPage slot (payload, [slot_none] =
   reserved).  Injected faults sit in the sparse side table. *)
type t = {
  geometry : Geometry.t;
  model : Rber_model.t;
  pecs : int array; (* per block: P/E cycle count *)
  block_wear : floatarray;
      (* per block: [Rber_model.wear ~pec ~reads:0], set by [erase] —
         the only writer of [pecs] — so a read pays no [Float.pow] *)
  words : int array; (* per fPage: reads*4 lor fault*2 lor programmed *)
  strengths : floatarray; (* per fPage: wear-independent multiplier *)
  payloads : int array; (* per oPage slot; [slot_none] = reserved *)
  faults : (int, fault_cell) Hashtbl.t; (* fPage index -> faults *)
  tel : tel;
  (* Fleet minimum P/E count, maintained incrementally so erase never
     scans the block array: [pec_min] is min over blocks of pec and
     [at_min] counts the blocks sitting at it.  When the last block
     leaves the minimum, the new minimum is exactly [pec_min + 1] (the
     block just erased landed there), and the recount scan runs at most
     once per [blocks] erases — amortized O(1). *)
  mutable pec_min : int;
  mutable at_min : int;
}

let create ?registry ~rng ~geometry ~model () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.null
  in
  (* Endurance variance has a block-level component (process corner,
     position on the die) and a page-level one (layer-to-layer variation
     within the block, [42]); split the model's lognormal sigma evenly so
     the total spread matches {!Rber_model.sample_strength}.  The draw
     order (block strength, then that block's page strengths) is part of
     the determinism contract — goldens pin it. *)
  let component_sigma = Rber_model.strength_sigma *. sqrt 0.5 in
  let blocks = geometry.Geometry.blocks in
  let ppb = geometry.Geometry.pages_per_block in
  let opages = geometry.Geometry.opages_per_fpage in
  let fpages = blocks * ppb in
  let strengths = Float.Array.create fpages in
  for block = 0 to blocks - 1 do
    let block_strength =
      Sim.Dist.lognormal rng ~mu:0. ~sigma:component_sigma
    in
    for page = 0 to ppb - 1 do
      Float.Array.set strengths
        ((block * ppb) + page)
        (block_strength *. Sim.Dist.lognormal rng ~mu:0. ~sigma:component_sigma)
    done
  done;
  {
    geometry;
    model;
    pecs = Array.make blocks 0;
    block_wear =
      Float.Array.make blocks (Rber_model.wear model ~pec:0 ~reads:0);
    words = Array.make fpages 0;
    strengths;
    payloads = Array.make (fpages * opages) slot_none;
    faults = Hashtbl.create 8;
    tel = make_tel registry;
    pec_min = 0;
    at_min = blocks;
  }

let geometry t = t.geometry
let model t = t.model

let check_block t block =
  if block < 0 || block >= t.geometry.Geometry.blocks then
    invalid_arg "Chip: block out of range"

(* Returns the page's flat fPage index. *)
let check_page t block page =
  check_block t block;
  if page < 0 || page >= t.geometry.Geometry.pages_per_block then
    invalid_arg "Chip: page out of range";
  (block * t.geometry.Geometry.pages_per_block) + page

let programmed_bit = 1
let fault_bit = 2
let one_read = 4
let is_programmed t fp = t.words.(fp) land programmed_bit <> 0
let has_fault t fp = t.words.(fp) land fault_bit <> 0
let page_reads t fp = t.words.(fp) lsr 2

(* The page's fault cell; only called when its fault bit is set, which
   [fault_cell] and [drop_if_clear] keep in step with the table. *)
let faults_of t fp = Hashtbl.find t.faults fp

let corrupt_mask t fp = if has_fault t fp then (faults_of t fp).corrupt else 0

(* Pure-wear plus read-disturb RBER of the page, injected faults aside:
   bit for bit [Rber_model.rber ~reads ~pec ~strength] (see
   {!Rber_model.disturbed}). *)
let wear_rber t ~block fp =
  Rber_model.of_wear t.model
    ~wear:
      (Rber_model.disturbed t.model
         ~wear:(Float.Array.get t.block_wear block)
         ~reads:(page_reads t fp))
    ~strength:(Float.Array.get t.strengths fp)

(* Modeled sense + transfer + decode time of reading one oPage off an
   fPage at its current error rate; only evaluated when the latency
   histogram is live, so the inactive case costs one branch, no float
   boxing. *)
let observe_read_latency t ~block ~fp =
  if Telemetry.Registry.Histogram.is_active t.tel.tel_read_us then begin
    let data_kib = float_of_int t.geometry.Geometry.opage_bytes /. 1024. in
    let rber = wear_rber t ~block fp in
    let raw_errors =
      rber *. float_of_int (Geometry.fpage_data_bytes t.geometry * 8)
    in
    Telemetry.Registry.Histogram.observe t.tel.tel_read_us
      (Latency.fpage_read_us Latency.default ~data_kib ~raw_errors ~retries:0)
  end

(* Slots [0 .. count-1] take the scratch array's data, the rest are
   ECC-reserved: the FTL programs from reusable arrays, so a program
   allocates nothing. *)
let program_ints t ~block ~page ~payloads ~count =
  let fp = check_page t block page in
  let opages = t.geometry.Geometry.opages_per_fpage in
  if count < 0 || count > opages || count > Array.length payloads then
    invalid_arg "Chip.program_ints: count out of range";
  if is_programmed t fp then
    invalid_arg "Chip.program_ints: page already programmed (erase first)";
  let base = fp * opages in
  for i = 0 to count - 1 do
    let p = payloads.(i) in
    if p = slot_none then
      invalid_arg "Chip.program_ints: payload min_int is reserved";
    t.payloads.(base + i) <- p
  done;
  for i = count to opages - 1 do
    t.payloads.(base + i) <- slot_none
  done;
  t.words.(fp) <- t.words.(fp) lor programmed_bit;
  Telemetry.Registry.bump t.tel.programs;
  if Telemetry.Registry.Histogram.is_active t.tel.tel_program_us then
    Telemetry.Registry.Histogram.observe t.tel.tel_program_us
      (Latency.fpage_program_us Latency.default
         ~data_kib:
           (float_of_int (Geometry.fpage_data_bytes t.geometry) /. 1024.))

let read_slot_int t ~block ~page ~slot =
  let fp = check_page t block page in
  if slot < 0 || slot >= t.geometry.Geometry.opages_per_fpage then
    invalid_arg "Chip.read_slot_int: slot out of range";
  Telemetry.Registry.bump t.tel.reads;
  t.words.(fp) <- t.words.(fp) + one_read;
  observe_read_latency t ~block ~fp;
  if not (is_programmed t fp) then
    invalid_arg "Chip.read_slot_int: page is erased";
  let v = t.payloads.((fp * t.geometry.Geometry.opages_per_fpage) + slot) in
  if v = slot_none then slot_none else v lxor corrupt_mask t fp

let erase t ~block =
  check_block t block;
  let pec = t.pecs.(block) + 1 in
  t.pecs.(block) <- pec;
  let wear = Rber_model.wear t.model ~pec ~reads:0 in
  Float.Array.set t.block_wear block wear;
  if pec - 1 = t.pec_min then begin
    t.at_min <- t.at_min - 1;
    if t.at_min = 0 then begin
      t.pec_min <- t.pec_min + 1;
      let count = ref 0 in
      Array.iter (fun p -> if p = t.pec_min then incr count) t.pecs;
      t.at_min <- !count
    end
  end;
  let ppb = t.geometry.Geometry.pages_per_block in
  let base = block * ppb in
  (* Injected faults model damaged *content* and charge leakage, not
     permanent silicon damage: an erase rewrites the cells and clears
     them all. *)
  if Hashtbl.length t.faults > 0 then
    for fp = base to base + ppb - 1 do
      if has_fault t fp then Hashtbl.remove t.faults fp
    done;
  (* One word per page holds the programmed bit, the fault bit and the
     read-disturb counter, so the whole block clears with one fill;
     stale payload slots stay in place — the cleared programmed bit
     hides them until the next program overwrites. *)
  Array.fill t.words base ppb 0;
  Telemetry.Registry.bump t.tel.erases;
  if Telemetry.Registry.Histogram.is_active t.tel.tel_erase_us then
    Telemetry.Registry.Histogram.observe t.tel.tel_erase_us
      (Latency.erase_us Latency.default);
  if Telemetry.Registry.Gauge.is_active t.tel.tel_pec_max then begin
    Telemetry.Registry.Gauge.set t.tel.tel_pec_max
      (Float.max
         (Telemetry.Registry.Gauge.value t.tel.tel_pec_max)
         (float_of_int pec));
    Telemetry.Registry.Gauge.set t.tel.tel_pec_min (float_of_int t.pec_min);
    (* Post-erase RBER of the freshly worn block: pure wear, no read
       disturb, no injected faults (erase just cleared both). *)
    let block_worst = ref 0. in
    for page = 0 to ppb - 1 do
      block_worst :=
        Float.max !block_worst
          (Rber_model.of_wear t.model ~wear
             ~strength:(Float.Array.get t.strengths (base + page)))
    done;
    Telemetry.Registry.Gauge.set t.tel.tel_rber_worst
      (Float.max
         (Telemetry.Registry.Gauge.value t.tel.tel_rber_worst)
         !block_worst)
  end

let pec t ~block =
  check_block t block;
  t.pecs.(block)

let pec_min t = t.pec_min

type wear = { wear_pec_max : int; wear_pec_min : int; wear_rber_worst : float }

(* On-demand scan (O(blocks) + O(fPages)) so the erase hot path keeps
   no running summary when no registry is attached.  The worst RBER is
   the pure-wear rate — no read disturb, no injected faults — matching
   the post-erase semantics of the [flash_rber_worst] gauge, but
   evaluated at the current P/E counts rather than as a running max. *)
let wear t =
  let blocks = t.geometry.Geometry.blocks in
  let ppb = t.geometry.Geometry.pages_per_block in
  let pec_max = ref 0 and worst = ref 0. in
  for block = 0 to blocks - 1 do
    let pec = t.pecs.(block) in
    if pec > !pec_max then pec_max := pec;
    let wear = Float.Array.get t.block_wear block in
    let base = block * ppb in
    for page = 0 to ppb - 1 do
      worst :=
        Float.max !worst
          (Rber_model.of_wear t.model ~wear
             ~strength:(Float.Array.get t.strengths (base + page)))
    done
  done;
  { wear_pec_max = !pec_max; wear_pec_min = t.pec_min; wear_rber_worst = !worst }

let strength t ~block ~page =
  let fp = check_page t block page in
  Float.Array.get t.strengths fp

let rber t ~block ~page =
  let fp = check_page t block page in
  let base = wear_rber t ~block fp in
  if has_fault t fp then
    let c = faults_of t fp in
    base +. c.transient +. c.sticky
  else base

(* Right after an erase every page of the block has the same PEC, no
   reads and no faults, so its pages share the block's cached wear
   term: the erase itself paid the one [Float.pow]. *)
let erased_wear t ~block =
  check_block t block;
  Float.Array.get t.block_wear block

let erased_rber t ~wear ~block ~page =
  let fp = check_page t block page in
  assert (t.words.(fp) = 0);
  Rber_model.of_wear t.model ~wear ~strength:(Float.Array.get t.strengths fp)

let rber_after_next_erase t ~block ~page =
  (* An erase clears the accumulated read disturb along with the data. *)
  let fp = check_page t block page in
  Rber_model.rber t.model
    ~pec:(t.pecs.(block) + 1)
    ~strength:(Float.Array.get t.strengths fp)

let reads_since_erase t ~block ~page =
  let fp = check_page t block page in
  page_reads t fp

let is_free t ~block ~page =
  let fp = check_page t block page in
  not (is_programmed t fp)

let programs t = t.tel.programs.n
let reads t = t.tel.reads.n
let erases t = t.tel.erases.n

let fault_cell t fp =
  if has_fault t fp then faults_of t fp
  else begin
    let c = { transient = 0.; sticky = 0.; corrupt = 0 } in
    Hashtbl.replace t.faults fp c;
    t.words.(fp) <- t.words.(fp) lor fault_bit;
    c
  end

(* Keep the table minimal, and the fault bit clear on every page whose
   faults were consumed or cancelled, so such a page reads at clean-page
   cost again. *)
let drop_if_clear t fp c =
  if c.transient = 0. && c.sticky = 0. && c.corrupt = 0 then begin
    Hashtbl.remove t.faults fp;
    t.words.(fp) <- t.words.(fp) land lnot fault_bit
  end

let inject t ~block ~page fault =
  let fp = check_page t block page in
  (match fault with
  | Transient_rber extra ->
      if extra < 0. then invalid_arg "Chip.inject: negative transient rber";
      let c = fault_cell t fp in
      c.transient <- c.transient +. extra;
      drop_if_clear t fp c;
      Telemetry.Registry.bump t.tel.faults_transient
  | Sticky_rber extra ->
      if extra < 0. then invalid_arg "Chip.inject: negative sticky rber";
      let c = fault_cell t fp in
      c.sticky <- c.sticky +. extra;
      drop_if_clear t fp c;
      Telemetry.Registry.bump t.tel.faults_sticky
  | Silent_corruption mask ->
      if mask = 0 then invalid_arg "Chip.inject: zero corruption mask";
      let c = fault_cell t fp in
      c.corrupt <- c.corrupt lxor mask;
      drop_if_clear t fp c;
      Telemetry.Registry.bump t.tel.faults_silent)

let take_transient t ~block ~page =
  let fp = check_page t block page in
  if not (has_fault t fp) then 0.
  else
    let c = faults_of t fp in
    let extra = c.transient in
    c.transient <- 0.;
    drop_if_clear t fp c;
    extra

let sticky_rber t ~block ~page =
  let fp = check_page t block page in
  if has_fault t fp then (faults_of t fp).sticky else 0.

let faults_injected t =
  t.tel.faults_transient.n + t.tel.faults_sticky.n + t.tel.faults_silent.n
