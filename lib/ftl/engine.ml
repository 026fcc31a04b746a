type config = {
  gc_reserve_blocks : int;
  wear_level_period : int;
  wear_level_gap : int;
  read_retries : int;
  retry_rber_factor : float;
}

let default_config =
  {
    gc_reserve_blocks = 2;
    wear_level_period = 16;
    wear_level_gap = 8;
    read_retries = 3;
    retry_rber_factor = 0.5;
  }

type crash_site = Before_program | After_program | Gc | Flush

exception Power_loss

(* Escalation of exhausted reads to an external recovery path (diFS live
   repair).  The budget is counted on the engine's read clock — one tick
   per host read — so backoff is deterministic simulated time, not wall
   time: after a failed escalation burst the hook is left alone for
   [backoff_base * 2^consecutive_failures] reads (capped), preventing a
   dead replica set from turning every read into a cluster-wide search. *)
type recovery_config = {
  recovery_attempts : int;
  backoff_base : int;
  backoff_cap : int;
}

let default_recovery =
  { recovery_attempts = 2; backoff_base = 8; backoff_cap = 1024 }

type block_class = Free | Open | Closed | Retired

(* Telemetry handles bound at engine creation; inert on the null
   registry.  The write-amplification gauge is refreshed on every fPage
   program so exporters always see the current ratio. *)
type tel = {
  tel_host_writes : Telemetry.Registry.Counter.t;
  tel_gc_runs : Telemetry.Registry.Counter.t;
  tel_wear_level_sweeps : Telemetry.Registry.Counter.t;
  tel_relocated : Telemetry.Registry.Counter.t;
  tel_padded : Telemetry.Registry.Counter.t;
  tel_reclaims : Telemetry.Registry.Counter.t;
  tel_unmapped : Telemetry.Registry.Counter.t;
  tel_uncorrectable : Telemetry.Registry.Counter.t;
  tel_read_retries : Telemetry.Registry.Counter.t;
  tel_retry_successes : Telemetry.Registry.Counter.t;
  tel_escalations : Telemetry.Registry.Counter.t;
  tel_escalation_successes : Telemetry.Registry.Counter.t;
  tel_escalations_suppressed : Telemetry.Registry.Counter.t;
  tel_waf : Telemetry.Registry.Gauge.t;
}

let make_tel registry =
  let counter name help = Telemetry.Registry.counter registry ~help name in
  {
    tel_host_writes = counter "ftl_host_writes_total" "oPages accepted from the host";
    tel_gc_runs = counter "ftl_gc_runs_total" "Garbage-collection passes";
    tel_wear_level_sweeps =
      counter "ftl_wear_level_sweeps_total"
        "GC passes that targeted the coldest block for wear leveling";
    tel_relocated =
      counter "ftl_relocated_opages_total"
        "oPages rewritten internally (GC + explicit relocation)";
    tel_padded =
      counter "ftl_padded_slots_total" "Data slots wasted by forced flushes";
    tel_reclaims =
      counter "ftl_read_reclaims_total" "Pages scrubbed by read-reclaim";
    tel_unmapped = counter "ftl_unmapped_reads_total" "Reads of unmapped LBAs";
    tel_uncorrectable =
      counter "ftl_uncorrectable_reads_total"
        "Reads ECC could not correct (residual UBER)";
    tel_read_retries =
      counter "ftl_read_retries_total"
        "Re-read attempts made by the read-retry ladder";
    tel_retry_successes =
      counter "ftl_retry_successes_total"
        "Reads rescued by the retry ladder after a failed first attempt";
    tel_escalations =
      counter "ftl_read_escalations_total"
        "Exhausted reads escalated to the recovery hook";
    tel_escalation_successes =
      counter "ftl_escalation_successes_total"
        "Escalated reads the recovery hook rescued";
    tel_escalations_suppressed =
      counter "ftl_escalations_suppressed_total"
        "Escalations skipped while the backoff budget was spent";
    tel_waf =
      Telemetry.Registry.gauge registry
        ~help:"Physical oPage programs per host oPage write"
        "ftl_write_amplification";
  }

type t = {
  chip : Flash.Chip.t;
  rng : Sim.Rng.t;
  policy : Policy.t;
  config : config;
  mapping : Mapping.t;
  buffer : Write_buffer.t;
  classes : block_class array;
  logical_capacity : int;
  oob_logical : int array;
  oob_seq : int array;
      (* per physical slot: (logical, sequence) tag written with the data;
         cleared by the block's erase, like real OOB bytes.  Two flat int
         arrays instead of an [(int * int) option array]: no tuple/Some
         box per programmed slot, [-1] in [oob_logical] marks a clear
         slot ([oob_seq] is only meaningful where logical >= 0). *)
  trim_journal : (int, int) Hashtbl.t;
      (* logical -> sequence of its latest trim (non-volatile journal) *)
  mutable sequence : int;
  mutable open_block : int option;
  mutable next_page : int;
  mutable free_count : int;
  mutable retired_count : int;
  mutable host_writes : int;
  mutable relocated : int;
  mutable gc_runs : int;
  mutable padded : int;
  mutable reclaims : int;
  mutable in_gc : bool;
  mutable read_retry_count : int;
  mutable retry_success_count : int;
  mutable crash_hook : (crash_site -> unit) option;
  mutable recovery_hook : (logical:int -> int option) option;
  mutable recovery_config : recovery_config;
  mutable read_clock : int;
      (* monotone host-read counter; the unit of the escalation backoff *)
  mutable escalation_count : int;
  mutable escalation_success_count : int;
  mutable escalation_suppressed_count : int;
  mutable escalation_fail_streak : int;
  mutable escalation_retry_at : int;
      (* read-clock value before which escalations are suppressed *)
  (* Incremental block accounting.  [cap_cache.(b)] is the block's data
     capacity (sum of [Policy.data_slots] over its pages) as of the last
     refresh; [cap_dirty] marks blocks whose capacity may have changed
     (erase hooks and proactive retirement are the only mutation points —
     see the contract on {!Policy.data_slots}); [total_capacity] is the
     sum of [cap_cache] over all blocks (retired blocks contribute 0).
     [closed] is the set of Closed blocks, so victim selection only
     touches candidates; [free_heap] holds one [(pec, block)]-encoded
     entry per Free block. *)
  cap_cache : int array;
  cap_dirty : Blockset.t;
  mutable total_capacity : int;
  closed : Blockset.t;
  free_heap : Intheap.t;
  (* Flush scratch for the bulk write stream: one [(logical, payload)]
     pair per oPage slot of an fPage, reused across every program so a
     flush allocates nothing.  Only [write_stream] touches them. *)
  scratch_logicals : int array;
  scratch_payloads : int array;
  tel : tel;
}

type write_error = [ `No_space ]
type read_error = [ `Unmapped | `Uncorrectable ]

let geometry t = Flash.Chip.geometry t.chip

let create ?(config = default_config) ?registry ~chip ~rng ~policy
    ~logical_capacity () =
  let registry =
    match registry with Some r -> r | None -> Telemetry.Registry.null
  in
  if config.gc_reserve_blocks < 2 then
    invalid_arg "Engine.create: gc_reserve_blocks must be >= 2";
  if config.read_retries < 0 then
    invalid_arg "Engine.create: read_retries must be >= 0";
  if config.retry_rber_factor <= 0. || config.retry_rber_factor > 1. then
    invalid_arg "Engine.create: retry_rber_factor must be in (0, 1]";
  let geometry = Flash.Chip.geometry chip in
  if logical_capacity <= 0 then invalid_arg "Engine.create: logical_capacity";
  let slots =
    geometry.Flash.Geometry.blocks * geometry.Flash.Geometry.pages_per_block
    * geometry.Flash.Geometry.opages_per_fpage
  in
  let blocks = geometry.Flash.Geometry.blocks in
  let cap_dirty = Blockset.create blocks in
  for block = 0 to blocks - 1 do
    Blockset.add cap_dirty block
  done;
  let free_heap = Intheap.create () in
  (* every block starts Free at PEC 0, so the encoded key is the index *)
  for block = 0 to blocks - 1 do
    Intheap.push free_heap block
  done;
  {
    chip;
    rng;
    policy;
    config;
    mapping = Mapping.create ~geometry ~logical_opages:logical_capacity;
    buffer = Write_buffer.create ~capacity:logical_capacity ();
    classes = Array.make geometry.Flash.Geometry.blocks Free;
    logical_capacity;
    oob_logical = Array.make slots (-1);
    oob_seq = Array.make slots 0;
    trim_journal = Hashtbl.create 64;
    sequence = 0;
    open_block = None;
    next_page = 0;
    free_count = geometry.Flash.Geometry.blocks;
    retired_count = 0;
    host_writes = 0;
    relocated = 0;
    gc_runs = 0;
    padded = 0;
    reclaims = 0;
    in_gc = false;
    read_retry_count = 0;
    retry_success_count = 0;
    crash_hook = None;
    recovery_hook = None;
    recovery_config = default_recovery;
    read_clock = 0;
    escalation_count = 0;
    escalation_success_count = 0;
    escalation_suppressed_count = 0;
    escalation_fail_streak = 0;
    escalation_retry_at = 0;
    cap_cache = Array.make blocks 0;
    cap_dirty;
    total_capacity = 0;
    closed = Blockset.create blocks;
    free_heap;
    scratch_logicals =
      Array.make geometry.Flash.Geometry.opages_per_fpage 0;
    scratch_payloads =
      Array.make geometry.Flash.Geometry.opages_per_fpage 0;
    tel = make_tel registry;
  }

let chip t = t.chip
let policy t = t.policy
let logical_capacity t = t.logical_capacity
let set_crash_hook t hook = t.crash_hook <- hook

let set_recovery_hook t ?(config = default_recovery) hook =
  if config.recovery_attempts < 1 then
    invalid_arg "Engine.set_recovery_hook: recovery_attempts must be >= 1";
  if config.backoff_base < 1 || config.backoff_cap < config.backoff_base then
    invalid_arg "Engine.set_recovery_hook: backoff must satisfy 1 <= base <= cap";
  t.recovery_hook <- hook;
  t.recovery_config <- config;
  t.escalation_fail_streak <- 0;
  t.escalation_retry_at <- 0

(* Crash-injection sites sit where a power cut would interleave with the
   persistence protocol.  The hook may raise {!Power_loss}; every notified
   point is chosen so that the non-volatile state (flash + OOB + trim
   journal + NV write buffer) still covers all acknowledged writes, which
   is exactly what [crash_rebuild] recovers from. *)
let notify_crash t site =
  match t.crash_hook with None -> () | Some f -> f site

let flat_slot t ~block ~page ~slot =
  let g = geometry t in
  ((block * g.Flash.Geometry.pages_per_block) + page)
  * g.Flash.Geometry.opages_per_fpage
  + slot

let compute_block_capacity t block =
  let pages = (geometry t).Flash.Geometry.pages_per_block in
  let capacity = ref 0 in
  for page = 0 to pages - 1 do
    capacity := !capacity + t.policy.Policy.data_slots ~block ~page
  done;
  !capacity

let refresh_capacity t block =
  if Blockset.mem t.cap_dirty block then begin
    let capacity = compute_block_capacity t block in
    t.total_capacity <- t.total_capacity - t.cap_cache.(block) + capacity;
    t.cap_cache.(block) <- capacity;
    Blockset.remove t.cap_dirty block
  end

let block_data_capacity t block =
  refresh_capacity t block;
  t.cap_cache.(block)

(* Free-block pool keys: min-PEC first, lowest block index on ties. *)
let free_key t ~block ~pec = (pec * Array.length t.classes) + block

let push_free t block =
  Intheap.push t.free_heap
    (free_key t ~block ~pec:(Flash.Chip.pec t.chip ~block))

(* --- relocation helpers ------------------------------------------------ *)

(* Move a live slot's content into the buffer (unless a newer version is
   already buffered) and unmap it, so the physical copy becomes stale. *)
let relocate_slot t ~block ~page ~slot ~logical =
  (* skip when the buffer already holds newer data (old copy is dead) *)
  (if not (Write_buffer.mem t.buffer logical) then begin
     let payload = Flash.Chip.read_slot_int t.chip ~block ~page ~slot in
     (* The mapping never points at ECC-reserved slots. *)
     assert (payload <> Stdlib.min_int);
     Write_buffer.put t.buffer ~logical ~payload;
     t.relocated <- t.relocated + 1;
     Telemetry.Registry.Counter.incr t.tel.tel_relocated
   end);
  Mapping.unbind_logical t.mapping logical

let relocate_block_contents t block =
  Mapping.iter_block t.mapping ~block (fun ~page ~slot ~logical ->
      relocate_slot t ~block ~page ~slot ~logical)

let relocate_page t ~block ~page =
  List.iter
    (fun (slot, logical) -> relocate_slot t ~block ~page ~slot ~logical)
    (Mapping.live_slots_in_page t.mapping ~block ~page);
  (* Devices retire pages (changing [Policy.data_slots]) immediately after
     this call, so the block's cached capacity must be recomputed on its
     next use. *)
  Blockset.add t.cap_dirty block

(* --- garbage collection ------------------------------------------------ *)

let erase_and_reclassify t block =
  Flash.Chip.erase t.chip ~block;
  (* the erase wipes the OOB area along with the data *)
  let g = geometry t in
  for page = 0 to g.Flash.Geometry.pages_per_block - 1 do
    for slot = 0 to g.Flash.Geometry.opages_per_fpage - 1 do
      t.oob_logical.(flat_slot t ~block ~page ~slot) <- -1
    done
  done;
  t.policy.Policy.on_block_erased ~block;
  (* the erase hook may have advanced page levels *)
  Blockset.add t.cap_dirty block;
  Blockset.remove t.closed block;
  if block_data_capacity t block = 0 then begin
    t.classes.(block) <- Retired;
    t.retired_count <- t.retired_count + 1
  end
  else begin
    t.classes.(block) <- Free;
    t.free_count <- t.free_count + 1;
    push_free t block
  end

let closed_blocks_fold t f init = Blockset.fold t.closed f init

(* Victim with fewest live oPages: the greedy-min-valid policy.  A block
   with no dead slots yields nothing and is never picked — otherwise GC
   would churn forever when the device is genuinely full. *)
let pick_gc_victim t =
  closed_blocks_fold t
    (fun best block ->
      let valid = Mapping.valid_in_block t.mapping ~block in
      if valid >= block_data_capacity t block then best
      else
        match best with
        | Some (_, best_valid) when best_valid <= valid -> best
        | _ -> Some (block, valid))
    None

(* Coldest closed block, for wear-leveling sweeps: rewriting its (cold)
   data elsewhere lets its low-PEC block re-enter the allocation pool. *)
let pick_wear_level_victim t =
  let coldest =
    closed_blocks_fold t
      (fun best block ->
        let pec = Flash.Chip.pec t.chip ~block in
        match best with
        | Some (_, best_pec) when best_pec <= pec -> best
        | _ -> Some (block, pec))
      None
  in
  match coldest with
  | None -> None
  | Some (block, pec) ->
      let max_pec = ref 0 in
      for b = 0 to Array.length t.classes - 1 do
        if t.classes.(b) <> Retired then
          max_pec := Stdlib.max !max_pec (Flash.Chip.pec t.chip ~block:b)
      done;
      if !max_pec - pec > t.config.wear_level_gap then Some block else None

let gc_once t =
  let victim =
    if
      t.config.wear_level_period > 0
      && t.gc_runs mod t.config.wear_level_period = t.config.wear_level_period - 1
    then
      match pick_wear_level_victim t with
      | Some b -> Some (b, `Wear_level)
      | None -> Option.map (fun (b, _) -> (b, `Greedy)) (pick_gc_victim t)
    else Option.map (fun (b, _) -> (b, `Greedy)) (pick_gc_victim t)
  in
  match victim with
  | None -> false
  | Some (block, kind) ->
      notify_crash t Gc;
      t.gc_runs <- t.gc_runs + 1;
      Telemetry.Registry.Counter.incr t.tel.tel_gc_runs;
      if kind = `Wear_level then
        Telemetry.Registry.Counter.incr t.tel.tel_wear_level_sweeps;
      relocate_block_contents t block;
      erase_and_reclassify t block;
      true

let maybe_gc t =
  if not t.in_gc then begin
    t.in_gc <- true;
    let continue = ref true in
    while t.free_count < t.config.gc_reserve_blocks && !continue do
      continue := gc_once t
    done;
    t.in_gc <- false
  end

(* --- allocation and flushing ------------------------------------------- *)

let pick_free_block t =
  maybe_gc t;
  (* The heap holds exactly one entry per Free block (pushed when the
     block enters the pool, consumed when it leaves), so the minimum is
     the allocation choice directly.  The validity checks below guard the
     invariant; a stale entry can never look valid again — a Free block's
     PEC cannot change — so discarding is safe. *)
  let rec pop () =
    match Intheap.pop t.free_heap with
    | None -> None
    | Some key ->
        let block = key mod Array.length t.classes in
        let pec = key / Array.length t.classes in
        if t.classes.(block) = Free && Flash.Chip.pec t.chip ~block = pec
        then begin
          t.classes.(block) <- Open;
          t.free_count <- t.free_count - 1;
          Some block
        end
        else pop ()
  in
  pop ()

(* Next programmable page of the open block, skipping pages the policy has
   retired (data_slots = 0); opens a new block as needed. *)
let rec open_position t =
  match t.open_block with
  | Some block ->
      let pages = (geometry t).Flash.Geometry.pages_per_block in
      let rec scan page =
        if page >= pages then None
        else
          let slots = t.policy.Policy.data_slots ~block ~page in
          if slots > 0 && Flash.Chip.is_free t.chip ~block ~page then
            Some (page, slots)
          else scan (page + 1)
      in
      (match scan t.next_page with
      | Some (page, slots) ->
          t.next_page <- page;
          Some (block, page, slots)
      | None ->
          t.classes.(block) <- Closed;
          Blockset.add t.closed block;
          t.open_block <- None;
          open_position t)
  | None -> (
      match pick_free_block t with
      | None -> None
      | Some block ->
          t.open_block <- Some block;
          t.next_page <- 0;
          open_position t)

let program_page t ~block ~page ~slots entries =
  let opages = (geometry t).Flash.Geometry.opages_per_fpage in
  let contents = Array.make opages None in
  List.iteri
    (fun i (_, payload) -> contents.(i) <- Some payload)
    entries;
  Flash.Chip.program t.chip ~block ~page contents;
  List.iteri
    (fun i (logical, _) ->
      t.sequence <- t.sequence + 1;
      let flat = flat_slot t ~block ~page ~slot:i in
      t.oob_logical.(flat) <- logical;
      t.oob_seq.(flat) <- t.sequence;
      Mapping.bind t.mapping ~logical { Location.block; page; slot = i })
    entries;
  t.padded <- t.padded + (slots - List.length entries);
  Telemetry.Registry.Counter.incr t.tel.tel_padded
    ~by:(slots - List.length entries);
  if Telemetry.Registry.Gauge.is_active t.tel.tel_waf && t.host_writes > 0 then
    Telemetry.Registry.Gauge.set t.tel.tel_waf
      (float_of_int
         (Flash.Chip.programs t.chip * (geometry t).Flash.Geometry.opages_per_fpage)
      /. float_of_int t.host_writes);
  t.next_page <- page + 1

(* Flush whole fPages while the buffer can fill them; with [force], flush
   a final partial page too. *)
let rec drain t ~force =
  if Write_buffer.is_empty t.buffer then Ok ()
  else
    match open_position t with
    | None -> Error `No_space
    | Some (block, page, slots) ->
        if force || Write_buffer.length t.buffer >= slots then begin
          (* Notify *before* popping the buffer: a crash here loses
             nothing, because unprogrammed entries are still in the
             non-volatile buffer. *)
          notify_crash t Before_program;
          program_page t ~block ~page ~slots
            (Write_buffer.pop t.buffer slots);
          notify_crash t After_program;
          drain t ~force
        end
        else Ok ()

let write t ~logical ~payload =
  if logical < 0 || logical >= t.logical_capacity then
    invalid_arg "Engine.write: logical index out of range";
  t.host_writes <- t.host_writes + 1;
  Telemetry.Registry.Counter.incr t.tel.tel_host_writes;
  Write_buffer.put t.buffer ~logical ~payload;
  drain t ~force:false

let flush t =
  notify_crash t Flush;
  drain t ~force:true

(* --- bulk-aging write stream ------------------------------------------- *)

type stream_stop =
  | Stream_budget
  | Stream_erased
  | Stream_out_of_window
  | Stream_no_space of int

let stream_capable t = t.crash_hook = None

(* Bulk-aging fast path.  One call replays exactly the write stream the
   per-op loop (one [Sim.Rng.int rng window] draw, then [write]) would
   issue, with the per-write overhead hoisted out: the open position is
   cached between programs, pages are programmed straight from the
   reusable scratch arrays, and the host-write telemetry counter is
   settled once at segment end ([Counter.incr] is a plain sum, so the
   final value is identical).

   The caller owns the LBA -> engine-logical translation and must keep
   it frozen for the whole call; device state only moves at erases (GC,
   wear leveling, retirement hooks), so the segment ends with
   [Stream_erased] immediately after the write that triggered one — the
   caller re-derives translation, runs device maintenance, and calls
   again.  The open-position cache is sound for the same reason: only
   our own programs and erase hooks change the open block's page states
   or slot counts, and programs invalidate it while erases end the
   segment.  Bit-exactness against the per-op path (same RNG draws,
   same counters, same flash layout) is pinned by the differential
   suite in [test/test_bulk_aging.ml]. *)
let write_stream t ~rng ~window ~limit ~translate ~payload_base ~budget =
  if t.crash_hook <> None then
    invalid_arg "Engine.write_stream: crash hook armed (not stream-capable)";
  let exception Stop of stream_stop in
  let exception No_space_now in
  let opages = (geometry t).Flash.Geometry.opages_per_fpage in
  let erases0 = Flash.Chip.erases t.chip in
  let host_writes0 = t.host_writes in
  let accepted = ref 0 in
  (* Cached open position; [pos_slots = 0] means "not established". *)
  let pos_block = ref 0 and pos_page = ref 0 and pos_slots = ref 0 in
  let waf_active = Telemetry.Registry.Gauge.is_active t.tel.tel_waf in
  let program_fast () =
    let block = !pos_block and page = !pos_page and slots = !pos_slots in
    let n =
      Write_buffer.pop_into t.buffer ~logicals:t.scratch_logicals
        ~payloads:t.scratch_payloads slots
    in
    Flash.Chip.program_ints t.chip ~block ~page ~payloads:t.scratch_payloads
      ~count:n;
    let base = flat_slot t ~block ~page ~slot:0 in
    for i = 0 to n - 1 do
      t.sequence <- t.sequence + 1;
      let flat = base + i in
      t.oob_logical.(flat) <- t.scratch_logicals.(i);
      t.oob_seq.(flat) <- t.sequence;
      Mapping.bind_flat t.mapping ~logical:t.scratch_logicals.(i) flat
    done;
    t.padded <- t.padded + (slots - n);
    Telemetry.Registry.Counter.incr t.tel.tel_padded ~by:(slots - n);
    if waf_active && t.host_writes > 0 then
      Telemetry.Registry.Gauge.set t.tel.tel_waf
        (float_of_int (Flash.Chip.programs t.chip * opages)
        /. float_of_int t.host_writes);
    t.next_page <- page + 1;
    pos_slots := 0
  in
  (* [drain ~force:false] against the cached position; precondition:
     buffer non-empty (the loop just [put] an entry).  When the cache is
     valid, the skipped [open_position] call would have returned the
     same position with no side effects. *)
  let rec stream_drain () =
    if !pos_slots = 0 then
      (match open_position t with
      | None -> raise No_space_now
      | Some (block, page, slots) ->
          pos_block := block;
          pos_page := page;
          pos_slots := slots);
    if Write_buffer.length t.buffer >= !pos_slots then begin
      program_fast ();
      (* GC relocations during [open_position] can refill the buffer;
         keep programming, as [drain]'s recursion would. *)
      if not (Write_buffer.is_empty t.buffer) then stream_drain ()
    end
  in
  let stop =
    try
      while !accepted < budget do
        let lba = Sim.Rng.int rng window in
        if lba >= limit then raise (Stop Stream_out_of_window);
        let logical = translate lba in
        t.host_writes <- t.host_writes + 1;
        Write_buffer.put t.buffer ~logical ~payload:(payload_base + !accepted);
        (try stream_drain ()
         with No_space_now -> raise (Stop (Stream_no_space lba)));
        incr accepted;
        if Flash.Chip.erases t.chip <> erases0 then raise (Stop Stream_erased)
      done;
      Stream_budget
    with Stop stop -> stop
  in
  Telemetry.Registry.Counter.incr t.tel.tel_host_writes
    ~by:(t.host_writes - host_writes0);
  (!accepted, stop)

(* Last line of defense before [`Uncorrectable]: hand the read to the
   recovery hook (bounded attempts per exhausted read), which may
   reconstruct the payload from redundancy the engine cannot see.  A
   fully failed burst opens an exponential backoff window on the read
   clock; a success closes it. *)
let escalate t ~logical =
  match t.recovery_hook with
  | None -> None
  | Some hook ->
      if t.read_clock < t.escalation_retry_at then begin
        t.escalation_suppressed_count <- t.escalation_suppressed_count + 1;
        Telemetry.Registry.Counter.incr t.tel.tel_escalations_suppressed;
        None
      end
      else begin
        let rec burst attempt =
          if attempt > t.recovery_config.recovery_attempts then None
          else begin
            t.escalation_count <- t.escalation_count + 1;
            Telemetry.Registry.Counter.incr t.tel.tel_escalations;
            match hook ~logical with
            | Some _ as rescued ->
                t.escalation_success_count <- t.escalation_success_count + 1;
                Telemetry.Registry.Counter.incr t.tel.tel_escalation_successes;
                t.escalation_fail_streak <- 0;
                t.escalation_retry_at <- 0;
                rescued
            | None -> burst (attempt + 1)
          end
        in
        match burst 1 with
        | Some _ as rescued -> rescued
        | None ->
            t.escalation_fail_streak <- t.escalation_fail_streak + 1;
            let shift = Stdlib.min (t.escalation_fail_streak - 1) 20 in
            let delay =
              Stdlib.min t.recovery_config.backoff_cap
                (t.recovery_config.backoff_base lsl shift)
            in
            t.escalation_retry_at <- t.read_clock + delay;
            None
      end

let read t ~logical =
  if logical < 0 || logical >= t.logical_capacity then
    invalid_arg "Engine.read: logical index out of range";
  t.read_clock <- t.read_clock + 1;
  match Write_buffer.payload_of t.buffer logical with
  | Some payload -> Ok payload
  | None -> (
      (* Flat lookup + manual decode: the hot path boxes no
         [Location.t] / [option] per read. *)
      let flat = Mapping.find_flat t.mapping logical in
      if flat < 0 then begin
        Telemetry.Registry.Counter.incr t.tel.tel_unmapped;
        Error `Unmapped
      end
      else
        let g = geometry t in
        let opages = g.Flash.Geometry.opages_per_fpage in
        let spb = g.Flash.Geometry.pages_per_block * opages in
        let block = flat / spb in
        let rem = flat mod spb in
        let page = rem / opages in
        let slot = rem mod opages in
          (* Read-retry ladder: each rung re-senses with escalating effort
             (adjusted read thresholds, soft-decision decoding), modeled
             as the effective RBER shrinking by [retry_rber_factor] per
             attempt.  Attempt 0 sees any pending transient fault; the
             re-read consumes it, so later rungs sense the page clean.
             The ladder itself performs no chip reads, so the page's RBER
             is constant across rungs: it is computed once per read (twice
             when a transient was consumed) and each rung derives its
             effective rate from it.  [`Uncorrectable] only after the
             ladder is exhausted. *)
          let succeed k ~rber =
            if k > 0 then begin
              t.retry_success_count <- t.retry_success_count + 1;
              Telemetry.Registry.Counter.incr t.tel.tel_retry_successes
            end;
            let result =
              match Flash.Chip.read_slot t.chip ~block ~page ~slot with
              | Some payload -> Ok payload
              | None -> assert false
            in
            (* Read-reclaim: the read itself disturbed the page; if its
               error rate has crept toward the code's limit, move the live
               data somewhere younger before it becomes uncorrectable. *)
            if t.policy.Policy.should_reclaim ~rber ~block ~page then begin
              t.reclaims <- t.reclaims + 1;
              Telemetry.Registry.Counter.incr t.tel.tel_reclaims;
              relocate_page t ~block ~page
            end;
            result
          in
          let uncorrectable () =
            match escalate t ~logical with
            | Some payload -> Ok payload
            | None ->
                Telemetry.Registry.Counter.incr t.tel.tel_uncorrectable;
                Error `Uncorrectable
          in
          let rber0 = Flash.Chip.rber t.chip ~block ~page in
          let fail0 =
            t.policy.Policy.read_fail_prob
              ~rber:(rber0 *. (t.config.retry_rber_factor ** float_of_int 0))
              ~block ~page
          in
          let failed0 = Sim.Rng.chance t.rng fail0 in
          let taken = Flash.Chip.take_transient t.chip ~block ~page in
          if not failed0 then succeed 0 ~rber:rber0
          else if t.config.read_retries = 0 then uncorrectable ()
          else begin
            (* Consuming the transient changed the page's rate exactly
               when [taken] is nonzero; otherwise rung 0's value is
               already the clean rate. *)
            let rber =
              if taken = 0. then rber0
              else Flash.Chip.rber t.chip ~block ~page
            in
            let rec attempt k =
              t.read_retry_count <- t.read_retry_count + 1;
              Telemetry.Registry.Counter.incr t.tel.tel_read_retries;
              let effective =
                rber *. (t.config.retry_rber_factor ** float_of_int k)
              in
              let fail =
                t.policy.Policy.read_fail_prob ~rber:effective ~block ~page
              in
              if Sim.Rng.chance t.rng fail then
                if k < t.config.read_retries then attempt (k + 1)
                else uncorrectable ()
              else succeed k ~rber
            in
            attempt 1
          end)

let discard t ~logical =
  if logical < 0 || logical >= t.logical_capacity then
    invalid_arg "Engine.discard: logical index out of range";
  t.sequence <- t.sequence + 1;
  Hashtbl.replace t.trim_journal logical t.sequence;
  Write_buffer.drop t.buffer logical;
  Mapping.unbind_logical t.mapping logical

let gc_now t = gc_once t

(* --- introspection ------------------------------------------------------ *)

let block_class t block = t.classes.(block)
let free_blocks t = t.free_count
let retired_blocks t = t.retired_count

let total_data_slots t =
  (* Flush pending capacity recomputations, then the maintained sum is
     the answer (retired blocks contribute 0 — retirement requires a
     capacity of 0 and [Policy.data_slots] never grows). *)
  let dirty = Blockset.fold t.cap_dirty (fun acc b -> b :: acc) [] in
  List.iter (fun block -> refresh_capacity t block) dirty;
  t.total_capacity

let mapped_opages t = Mapping.mapped_count t.mapping

let mapped_in_range t ~lo ~len =
  let count = ref 0 in
  for logical = lo to Stdlib.min (lo + len) t.logical_capacity - 1 do
    match Mapping.find t.mapping logical with
    | Some _ -> incr count
    | None ->
        if Option.is_some (Write_buffer.payload_of t.buffer logical) then
          incr count
  done;
  !count
let buffered_opages t = Write_buffer.length t.buffer
let host_writes t = t.host_writes
let relocated_opages t = t.relocated
let gc_runs t = t.gc_runs
let padded_slots t = t.padded
let read_reclaims t = t.reclaims
let read_retries t = t.read_retry_count
let retry_successes t = t.retry_success_count
let read_escalations t = t.escalation_count
let escalation_successes t = t.escalation_success_count
let escalations_suppressed t = t.escalation_suppressed_count

let write_amplification t =
  if t.host_writes = 0 then nan
  else
    let opages = (geometry t).Flash.Geometry.opages_per_fpage in
    float_of_int (Flash.Chip.programs t.chip * opages)
    /. float_of_int t.host_writes

let locate t ~logical = Mapping.find t.mapping logical

(* Power-fail recovery: scan the flash, replay OOB tags in sequence order
   (highest sequence wins), suppress anything the trim journal outdates,
   and rebuild block classes from the chip's page states.  The write
   buffer and trim journal are non-volatile and carry over. *)
let crash_rebuild old =
  let g = Flash.Chip.geometry old.chip in
  let blocks = g.Flash.Geometry.blocks in
  let cap_dirty = Blockset.create blocks in
  for block = 0 to blocks - 1 do
    Blockset.add cap_dirty block
  done;
  let t =
    {
      old with
      mapping =
        Mapping.create ~geometry:g ~logical_opages:old.logical_capacity;
      open_block = None;
      next_page = 0;
      free_count = 0;
      retired_count = 0;
      in_gc = false;
      cap_cache = Array.make blocks 0;
      cap_dirty;
      total_capacity = 0;
      closed = Blockset.create blocks;
      free_heap = Intheap.create ();
    }
  in
  (* Collect surviving OOB tags and replay them oldest-first so that
     Mapping.bind leaves the newest copy of each logical in place. *)
  let tags = ref [] in
  for block = 0 to g.Flash.Geometry.blocks - 1 do
    for page = 0 to g.Flash.Geometry.pages_per_block - 1 do
      if not (Flash.Chip.is_free t.chip ~block ~page) then
        for slot = 0 to g.Flash.Geometry.opages_per_fpage - 1 do
          let flat = flat_slot t ~block ~page ~slot in
          let logical = t.oob_logical.(flat) in
          if logical >= 0 then
            tags :=
              (t.oob_seq.(flat), logical, { Location.block; page; slot })
              :: !tags
        done
    done
  done;
  let tags = List.sort compare !tags in
  List.iter
    (fun (sequence, logical, location) ->
      let trimmed_after =
        match Hashtbl.find_opt t.trim_journal logical with
        | Some trim_sequence -> trim_sequence > sequence
        | None -> false
      in
      if not trimmed_after then Mapping.bind t.mapping ~logical location)
    tags;
  (* Anything the buffer still holds is newer than any flash copy. *)
  (* (reads consult the buffer first, so no rebinding is needed) *)
  (* Reconstruct block classes: blocks with any programmed page are
     closed; empty ones rejoin the free pool unless the policy retired
     them. *)
  for block = 0 to g.Flash.Geometry.blocks - 1 do
    let any_programmed = ref false in
    for page = 0 to g.Flash.Geometry.pages_per_block - 1 do
      if not (Flash.Chip.is_free t.chip ~block ~page) then
        any_programmed := true
    done;
    if block_data_capacity t block = 0 then begin
      t.classes.(block) <- Retired;
      t.retired_count <- t.retired_count + 1
    end
    else if !any_programmed then begin
      t.classes.(block) <- Closed;
      Blockset.add t.closed block
    end
    else begin
      t.classes.(block) <- Free;
      t.free_count <- t.free_count + 1;
      push_free t block
    end
  done;
  t

let live_entries t =
  let acc = ref [] in
  for logical = 0 to t.logical_capacity - 1 do
    match Mapping.find t.mapping logical with
    | Some location -> acc := (logical, location) :: !acc
    | None -> ()
  done;
  List.rev !acc
