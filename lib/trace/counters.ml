type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable memory_reads : int;
  mutable memory_writes : int;
  mutable sdw_fetches : int;
  mutable indirections : int;
  mutable traps : int;
  mutable calls_same_ring : int;
  mutable calls_downward : int;
  mutable calls_upward : int;
  mutable returns_same_ring : int;
  mutable returns_upward : int;
  mutable returns_downward : int;
  mutable gatekeeper_entries : int;
  mutable descriptor_switches : int;
  mutable access_violations : int;
  mutable ptw_fetches : int;
  mutable page_faults : int;
  mutable page_evictions : int;
  mutable channel_ops : int;
  (* Host-side associative-memory effectiveness.  These describe the
     simulator's caches, not the modeled hardware: they move freely
     without affecting the cycle accounting above. *)
  mutable sdw_cache_hits : int;
  mutable sdw_cache_misses : int;
  mutable sdw_cache_evictions : int;
  mutable ptw_tlb_hits : int;
  mutable ptw_tlb_misses : int;
  mutable ptw_tlb_evictions : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable icache_evictions : int;
  (* Fault injection and recovery.  [injected] counts faults the
     injector delivered; the rest describe what the kernel did about
     them: transfers re-armed with backoff, faults scrubbed-and-
     resumed, processes killed over budget, and cache subsystems
     dropped to uncached operation on coherence damage. *)
  mutable injected : int;
  mutable retried : int;
  mutable recovered : int;
  mutable quarantined : int;
  mutable degraded : int;
  (* Checkpoint/restore and the dispatcher watchdog.  [restores] and
     [journal_replays_skipped] are session-local: they count work the
     resumed OS process did that the uninterrupted run never had to,
     so they legitimately differ between the two (everything else is
     checkpoint-deterministic). *)
  mutable snapshots_written : int;
  mutable restores : int;
  mutable restore_audit_rejections : int;
  mutable journal_replays_skipped : int;
  mutable watchdog_tripped : int;
  (* Trace-pipeline self-observation: events overwritten in a full
     ring buffer, and events/spans deselected by the deterministic
     1-in-N sampler.  These move only when tracing is enabled, so an
     untraced run's counter surface is unchanged. *)
  mutable events_dropped : int;
  mutable events_sampled_out : int;
  mutable spans_sampled_out : int;
}

let create () =
  {
    cycles = 0;
    instructions = 0;
    memory_reads = 0;
    memory_writes = 0;
    sdw_fetches = 0;
    indirections = 0;
    traps = 0;
    calls_same_ring = 0;
    calls_downward = 0;
    calls_upward = 0;
    returns_same_ring = 0;
    returns_upward = 0;
    returns_downward = 0;
    gatekeeper_entries = 0;
    descriptor_switches = 0;
    access_violations = 0;
    ptw_fetches = 0;
    page_faults = 0;
    page_evictions = 0;
    channel_ops = 0;
    sdw_cache_hits = 0;
    sdw_cache_misses = 0;
    sdw_cache_evictions = 0;
    ptw_tlb_hits = 0;
    ptw_tlb_misses = 0;
    ptw_tlb_evictions = 0;
    icache_hits = 0;
    icache_misses = 0;
    icache_evictions = 0;
    injected = 0;
    retried = 0;
    recovered = 0;
    quarantined = 0;
    degraded = 0;
    snapshots_written = 0;
    restores = 0;
    restore_audit_rejections = 0;
    journal_replays_skipped = 0;
    watchdog_tripped = 0;
    events_dropped = 0;
    events_sampled_out = 0;
    spans_sampled_out = 0;
  }

let reset t =
  t.cycles <- 0;
  t.instructions <- 0;
  t.memory_reads <- 0;
  t.memory_writes <- 0;
  t.sdw_fetches <- 0;
  t.indirections <- 0;
  t.traps <- 0;
  t.calls_same_ring <- 0;
  t.calls_downward <- 0;
  t.calls_upward <- 0;
  t.returns_same_ring <- 0;
  t.returns_upward <- 0;
  t.returns_downward <- 0;
  t.gatekeeper_entries <- 0;
  t.descriptor_switches <- 0;
  t.access_violations <- 0;
  t.ptw_fetches <- 0;
  t.page_faults <- 0;
  t.page_evictions <- 0;
  t.channel_ops <- 0;
  t.sdw_cache_hits <- 0;
  t.sdw_cache_misses <- 0;
  t.sdw_cache_evictions <- 0;
  t.ptw_tlb_hits <- 0;
  t.ptw_tlb_misses <- 0;
  t.ptw_tlb_evictions <- 0;
  t.icache_hits <- 0;
  t.icache_misses <- 0;
  t.icache_evictions <- 0;
  t.injected <- 0;
  t.retried <- 0;
  t.recovered <- 0;
  t.quarantined <- 0;
  t.degraded <- 0;
  t.snapshots_written <- 0;
  t.restores <- 0;
  t.restore_audit_rejections <- 0;
  t.journal_replays_skipped <- 0;
  t.watchdog_tripped <- 0;
  t.events_dropped <- 0;
  t.events_sampled_out <- 0;
  t.spans_sampled_out <- 0

let charge t n = t.cycles <- t.cycles + n
let cycles t = t.cycles
let bump_instructions t = t.instructions <- t.instructions + 1
let instructions t = t.instructions
let bump_memory_reads t = t.memory_reads <- t.memory_reads + 1
let memory_reads t = t.memory_reads
let bump_memory_writes t = t.memory_writes <- t.memory_writes + 1
let memory_writes t = t.memory_writes
let bump_sdw_fetches t = t.sdw_fetches <- t.sdw_fetches + 1
let sdw_fetches t = t.sdw_fetches
let bump_indirections t = t.indirections <- t.indirections + 1
let indirections t = t.indirections
let bump_traps t = t.traps <- t.traps + 1
let traps t = t.traps
let bump_calls_same_ring t = t.calls_same_ring <- t.calls_same_ring + 1
let calls_same_ring t = t.calls_same_ring
let bump_calls_downward t = t.calls_downward <- t.calls_downward + 1
let calls_downward t = t.calls_downward
let bump_calls_upward t = t.calls_upward <- t.calls_upward + 1
let calls_upward t = t.calls_upward
let bump_returns_same_ring t = t.returns_same_ring <- t.returns_same_ring + 1
let returns_same_ring t = t.returns_same_ring
let bump_returns_upward t = t.returns_upward <- t.returns_upward + 1
let returns_upward t = t.returns_upward
let bump_returns_downward t = t.returns_downward <- t.returns_downward + 1
let returns_downward t = t.returns_downward

let bump_gatekeeper_entries t =
  t.gatekeeper_entries <- t.gatekeeper_entries + 1

let gatekeeper_entries t = t.gatekeeper_entries

let bump_descriptor_switches t =
  t.descriptor_switches <- t.descriptor_switches + 1

let descriptor_switches t = t.descriptor_switches

let bump_access_violations t =
  t.access_violations <- t.access_violations + 1

let access_violations t = t.access_violations
let bump_ptw_fetches t = t.ptw_fetches <- t.ptw_fetches + 1
let ptw_fetches t = t.ptw_fetches
let bump_page_faults t = t.page_faults <- t.page_faults + 1
let page_faults t = t.page_faults
let bump_page_evictions t = t.page_evictions <- t.page_evictions + 1
let page_evictions t = t.page_evictions
let bump_channel_ops t = t.channel_ops <- t.channel_ops + 1
let channel_ops t = t.channel_ops

let bump_sdw_cache_hits t = t.sdw_cache_hits <- t.sdw_cache_hits + 1
let sdw_cache_hits t = t.sdw_cache_hits
let bump_sdw_cache_misses t = t.sdw_cache_misses <- t.sdw_cache_misses + 1
let sdw_cache_misses t = t.sdw_cache_misses

let bump_sdw_cache_evictions t =
  t.sdw_cache_evictions <- t.sdw_cache_evictions + 1

let sdw_cache_evictions t = t.sdw_cache_evictions
let bump_ptw_tlb_hits t = t.ptw_tlb_hits <- t.ptw_tlb_hits + 1
let ptw_tlb_hits t = t.ptw_tlb_hits
let bump_ptw_tlb_misses t = t.ptw_tlb_misses <- t.ptw_tlb_misses + 1
let ptw_tlb_misses t = t.ptw_tlb_misses

let bump_ptw_tlb_evictions t =
  t.ptw_tlb_evictions <- t.ptw_tlb_evictions + 1

let ptw_tlb_evictions t = t.ptw_tlb_evictions
let bump_icache_hits t = t.icache_hits <- t.icache_hits + 1
let icache_hits t = t.icache_hits
let bump_icache_misses t = t.icache_misses <- t.icache_misses + 1
let icache_misses t = t.icache_misses
let bump_icache_evictions t = t.icache_evictions <- t.icache_evictions + 1
let icache_evictions t = t.icache_evictions
let bump_injected t = t.injected <- t.injected + 1
let injected t = t.injected
let bump_retried t = t.retried <- t.retried + 1
let retried t = t.retried
let bump_recovered t = t.recovered <- t.recovered + 1
let recovered t = t.recovered
let bump_quarantined t = t.quarantined <- t.quarantined + 1
let quarantined t = t.quarantined
let bump_degraded t = t.degraded <- t.degraded + 1
let degraded t = t.degraded

let bump_snapshots_written t =
  t.snapshots_written <- t.snapshots_written + 1

let snapshots_written t = t.snapshots_written
let bump_restores t = t.restores <- t.restores + 1
let restores t = t.restores

let bump_restore_audit_rejections t =
  t.restore_audit_rejections <- t.restore_audit_rejections + 1

let restore_audit_rejections t = t.restore_audit_rejections

let bump_journal_replays_skipped t =
  t.journal_replays_skipped <- t.journal_replays_skipped + 1

let journal_replays_skipped t = t.journal_replays_skipped
let bump_watchdog_tripped t = t.watchdog_tripped <- t.watchdog_tripped + 1
let watchdog_tripped t = t.watchdog_tripped
let bump_events_dropped t = t.events_dropped <- t.events_dropped + 1
let events_dropped t = t.events_dropped

let bump_events_sampled_out t =
  t.events_sampled_out <- t.events_sampled_out + 1

let events_sampled_out t = t.events_sampled_out
let bump_spans_sampled_out t = t.spans_sampled_out <- t.spans_sampled_out + 1
let spans_sampled_out t = t.spans_sampled_out

type snapshot = {
  cycles : int;
  instructions : int;
  memory_reads : int;
  memory_writes : int;
  sdw_fetches : int;
  indirections : int;
  traps : int;
  calls_same_ring : int;
  calls_downward : int;
  calls_upward : int;
  returns_same_ring : int;
  returns_upward : int;
  returns_downward : int;
  gatekeeper_entries : int;
  descriptor_switches : int;
  access_violations : int;
  ptw_fetches : int;
  page_faults : int;
  page_evictions : int;
  channel_ops : int;
  sdw_cache_hits : int;
  sdw_cache_misses : int;
  sdw_cache_evictions : int;
  ptw_tlb_hits : int;
  ptw_tlb_misses : int;
  ptw_tlb_evictions : int;
  icache_hits : int;
  icache_misses : int;
  icache_evictions : int;
  injected : int;
  retried : int;
  recovered : int;
  quarantined : int;
  degraded : int;
  snapshots_written : int;
  restores : int;
  restore_audit_rejections : int;
  journal_replays_skipped : int;
  watchdog_tripped : int;
  events_dropped : int;
  events_sampled_out : int;
  spans_sampled_out : int;
}

let snapshot (t : t) : snapshot =
  {
    cycles = t.cycles;
    instructions = t.instructions;
    memory_reads = t.memory_reads;
    memory_writes = t.memory_writes;
    sdw_fetches = t.sdw_fetches;
    indirections = t.indirections;
    traps = t.traps;
    calls_same_ring = t.calls_same_ring;
    calls_downward = t.calls_downward;
    calls_upward = t.calls_upward;
    returns_same_ring = t.returns_same_ring;
    returns_upward = t.returns_upward;
    returns_downward = t.returns_downward;
    gatekeeper_entries = t.gatekeeper_entries;
    descriptor_switches = t.descriptor_switches;
    access_violations = t.access_violations;
    ptw_fetches = t.ptw_fetches;
    page_faults = t.page_faults;
    page_evictions = t.page_evictions;
    channel_ops = t.channel_ops;
    sdw_cache_hits = t.sdw_cache_hits;
    sdw_cache_misses = t.sdw_cache_misses;
    sdw_cache_evictions = t.sdw_cache_evictions;
    ptw_tlb_hits = t.ptw_tlb_hits;
    ptw_tlb_misses = t.ptw_tlb_misses;
    ptw_tlb_evictions = t.ptw_tlb_evictions;
    icache_hits = t.icache_hits;
    icache_misses = t.icache_misses;
    icache_evictions = t.icache_evictions;
    injected = t.injected;
    retried = t.retried;
    recovered = t.recovered;
    quarantined = t.quarantined;
    degraded = t.degraded;
    snapshots_written = t.snapshots_written;
    restores = t.restores;
    restore_audit_rejections = t.restore_audit_rejections;
    journal_replays_skipped = t.journal_replays_skipped;
    watchdog_tripped = t.watchdog_tripped;
    events_dropped = t.events_dropped;
    events_sampled_out = t.events_sampled_out;
    spans_sampled_out = t.spans_sampled_out;
  }

let restore (t : t) (s : snapshot) =
  t.cycles <- s.cycles;
  t.instructions <- s.instructions;
  t.memory_reads <- s.memory_reads;
  t.memory_writes <- s.memory_writes;
  t.sdw_fetches <- s.sdw_fetches;
  t.indirections <- s.indirections;
  t.traps <- s.traps;
  t.calls_same_ring <- s.calls_same_ring;
  t.calls_downward <- s.calls_downward;
  t.calls_upward <- s.calls_upward;
  t.returns_same_ring <- s.returns_same_ring;
  t.returns_upward <- s.returns_upward;
  t.returns_downward <- s.returns_downward;
  t.gatekeeper_entries <- s.gatekeeper_entries;
  t.descriptor_switches <- s.descriptor_switches;
  t.access_violations <- s.access_violations;
  t.ptw_fetches <- s.ptw_fetches;
  t.page_faults <- s.page_faults;
  t.page_evictions <- s.page_evictions;
  t.channel_ops <- s.channel_ops;
  t.sdw_cache_hits <- s.sdw_cache_hits;
  t.sdw_cache_misses <- s.sdw_cache_misses;
  t.sdw_cache_evictions <- s.sdw_cache_evictions;
  t.ptw_tlb_hits <- s.ptw_tlb_hits;
  t.ptw_tlb_misses <- s.ptw_tlb_misses;
  t.ptw_tlb_evictions <- s.ptw_tlb_evictions;
  t.icache_hits <- s.icache_hits;
  t.icache_misses <- s.icache_misses;
  t.icache_evictions <- s.icache_evictions;
  t.injected <- s.injected;
  t.retried <- s.retried;
  t.recovered <- s.recovered;
  t.quarantined <- s.quarantined;
  t.degraded <- s.degraded;
  t.snapshots_written <- s.snapshots_written;
  t.restores <- s.restores;
  t.restore_audit_rejections <- s.restore_audit_rejections;
  t.journal_replays_skipped <- s.journal_replays_skipped;
  t.watchdog_tripped <- s.watchdog_tripped;
  t.events_dropped <- s.events_dropped;
  t.events_sampled_out <- s.events_sampled_out;
  t.spans_sampled_out <- s.spans_sampled_out

let diff ~(before : snapshot) ~(after : snapshot) : snapshot =
  {
    cycles = after.cycles - before.cycles;
    instructions = after.instructions - before.instructions;
    memory_reads = after.memory_reads - before.memory_reads;
    memory_writes = after.memory_writes - before.memory_writes;
    sdw_fetches = after.sdw_fetches - before.sdw_fetches;
    indirections = after.indirections - before.indirections;
    traps = after.traps - before.traps;
    calls_same_ring = after.calls_same_ring - before.calls_same_ring;
    calls_downward = after.calls_downward - before.calls_downward;
    calls_upward = after.calls_upward - before.calls_upward;
    returns_same_ring = after.returns_same_ring - before.returns_same_ring;
    returns_upward = after.returns_upward - before.returns_upward;
    returns_downward = after.returns_downward - before.returns_downward;
    gatekeeper_entries = after.gatekeeper_entries - before.gatekeeper_entries;
    descriptor_switches =
      after.descriptor_switches - before.descriptor_switches;
    access_violations = after.access_violations - before.access_violations;
    ptw_fetches = after.ptw_fetches - before.ptw_fetches;
    page_faults = after.page_faults - before.page_faults;
    page_evictions = after.page_evictions - before.page_evictions;
    channel_ops = after.channel_ops - before.channel_ops;
    sdw_cache_hits = after.sdw_cache_hits - before.sdw_cache_hits;
    sdw_cache_misses = after.sdw_cache_misses - before.sdw_cache_misses;
    sdw_cache_evictions =
      after.sdw_cache_evictions - before.sdw_cache_evictions;
    ptw_tlb_hits = after.ptw_tlb_hits - before.ptw_tlb_hits;
    ptw_tlb_misses = after.ptw_tlb_misses - before.ptw_tlb_misses;
    ptw_tlb_evictions = after.ptw_tlb_evictions - before.ptw_tlb_evictions;
    icache_hits = after.icache_hits - before.icache_hits;
    icache_misses = after.icache_misses - before.icache_misses;
    icache_evictions = after.icache_evictions - before.icache_evictions;
    injected = after.injected - before.injected;
    retried = after.retried - before.retried;
    recovered = after.recovered - before.recovered;
    quarantined = after.quarantined - before.quarantined;
    degraded = after.degraded - before.degraded;
    snapshots_written = after.snapshots_written - before.snapshots_written;
    restores = after.restores - before.restores;
    restore_audit_rejections =
      after.restore_audit_rejections - before.restore_audit_rejections;
    journal_replays_skipped =
      after.journal_replays_skipped - before.journal_replays_skipped;
    watchdog_tripped = after.watchdog_tripped - before.watchdog_tripped;
    events_dropped = after.events_dropped - before.events_dropped;
    events_sampled_out = after.events_sampled_out - before.events_sampled_out;
    spans_sampled_out = after.spans_sampled_out - before.spans_sampled_out;
  }

let add (a : snapshot) (b : snapshot) : snapshot =
  {
    cycles = a.cycles + b.cycles;
    instructions = a.instructions + b.instructions;
    memory_reads = a.memory_reads + b.memory_reads;
    memory_writes = a.memory_writes + b.memory_writes;
    sdw_fetches = a.sdw_fetches + b.sdw_fetches;
    indirections = a.indirections + b.indirections;
    traps = a.traps + b.traps;
    calls_same_ring = a.calls_same_ring + b.calls_same_ring;
    calls_downward = a.calls_downward + b.calls_downward;
    calls_upward = a.calls_upward + b.calls_upward;
    returns_same_ring = a.returns_same_ring + b.returns_same_ring;
    returns_upward = a.returns_upward + b.returns_upward;
    returns_downward = a.returns_downward + b.returns_downward;
    gatekeeper_entries = a.gatekeeper_entries + b.gatekeeper_entries;
    descriptor_switches = a.descriptor_switches + b.descriptor_switches;
    access_violations = a.access_violations + b.access_violations;
    ptw_fetches = a.ptw_fetches + b.ptw_fetches;
    page_faults = a.page_faults + b.page_faults;
    page_evictions = a.page_evictions + b.page_evictions;
    channel_ops = a.channel_ops + b.channel_ops;
    sdw_cache_hits = a.sdw_cache_hits + b.sdw_cache_hits;
    sdw_cache_misses = a.sdw_cache_misses + b.sdw_cache_misses;
    sdw_cache_evictions = a.sdw_cache_evictions + b.sdw_cache_evictions;
    ptw_tlb_hits = a.ptw_tlb_hits + b.ptw_tlb_hits;
    ptw_tlb_misses = a.ptw_tlb_misses + b.ptw_tlb_misses;
    ptw_tlb_evictions = a.ptw_tlb_evictions + b.ptw_tlb_evictions;
    icache_hits = a.icache_hits + b.icache_hits;
    icache_misses = a.icache_misses + b.icache_misses;
    icache_evictions = a.icache_evictions + b.icache_evictions;
    injected = a.injected + b.injected;
    retried = a.retried + b.retried;
    recovered = a.recovered + b.recovered;
    quarantined = a.quarantined + b.quarantined;
    degraded = a.degraded + b.degraded;
    snapshots_written = a.snapshots_written + b.snapshots_written;
    restores = a.restores + b.restores;
    restore_audit_rejections =
      a.restore_audit_rejections + b.restore_audit_rejections;
    journal_replays_skipped =
      a.journal_replays_skipped + b.journal_replays_skipped;
    watchdog_tripped = a.watchdog_tripped + b.watchdog_tripped;
    events_dropped = a.events_dropped + b.events_dropped;
    events_sampled_out = a.events_sampled_out + b.events_sampled_out;
    spans_sampled_out = a.spans_sampled_out + b.spans_sampled_out;
  }

(* Every snapshot field by name, in declaration order.  The metrics
   exporters iterate this so a counter added to the record shows up in
   every export format (and in the coverage test) by extending this
   one list. *)
let fields (s : snapshot) : (string * int) list =
  [
    ("cycles", s.cycles);
    ("instructions", s.instructions);
    ("memory_reads", s.memory_reads);
    ("memory_writes", s.memory_writes);
    ("sdw_fetches", s.sdw_fetches);
    ("indirections", s.indirections);
    ("traps", s.traps);
    ("calls_same_ring", s.calls_same_ring);
    ("calls_downward", s.calls_downward);
    ("calls_upward", s.calls_upward);
    ("returns_same_ring", s.returns_same_ring);
    ("returns_upward", s.returns_upward);
    ("returns_downward", s.returns_downward);
    ("gatekeeper_entries", s.gatekeeper_entries);
    ("descriptor_switches", s.descriptor_switches);
    ("access_violations", s.access_violations);
    ("ptw_fetches", s.ptw_fetches);
    ("page_faults", s.page_faults);
    ("page_evictions", s.page_evictions);
    ("channel_ops", s.channel_ops);
    ("sdw_cache_hits", s.sdw_cache_hits);
    ("sdw_cache_misses", s.sdw_cache_misses);
    ("sdw_cache_evictions", s.sdw_cache_evictions);
    ("ptw_tlb_hits", s.ptw_tlb_hits);
    ("ptw_tlb_misses", s.ptw_tlb_misses);
    ("ptw_tlb_evictions", s.ptw_tlb_evictions);
    ("icache_hits", s.icache_hits);
    ("icache_misses", s.icache_misses);
    ("icache_evictions", s.icache_evictions);
    ("injected", s.injected);
    ("retried", s.retried);
    ("recovered", s.recovered);
    ("quarantined", s.quarantined);
    ("degraded", s.degraded);
    ("snapshots_written", s.snapshots_written);
    ("restores", s.restores);
    ("restore_audit_rejections", s.restore_audit_rejections);
    ("journal_replays_skipped", s.journal_replays_skipped);
    ("watchdog_tripped", s.watchdog_tripped);
    ("events_dropped", s.events_dropped);
    ("events_sampled_out", s.events_sampled_out);
    ("spans_sampled_out", s.spans_sampled_out);
  ]

(* Inverse of [fields]: rebuild a snapshot from [(name, value)] pairs.
   Shape-checked so a snapshot image from a different counter set is a
   typed decode error, not a silent misread — and the error names the
   offending fields, so a fleet report that meets a build with a
   drifted counter schema says exactly which names drifted rather
   than masking them. *)
let field_names = List.map fst (fields (snapshot (create ())))

(* Position of each name in [field_names]: every snapshot restore
   (each warm boot among them) looks all of them up. *)
let field_index =
  let h = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.replace h name i) field_names;
  h

let of_fields (l : (string * int) list) : (snapshot, string) result =
  let expected = field_names in
  let given = List.map fst l in
  if not (List.equal String.equal given expected) then begin
    let missing = List.filter (fun n -> not (List.mem n given)) expected in
    let unknown = List.filter (fun n -> not (List.mem n expected)) given in
    let part label = function
      | [] -> []
      | names -> [ Printf.sprintf "%s: %s" label (String.concat ", " names) ]
    in
    let detail =
      part "unknown counter fields" unknown
      @ part "missing counter fields" missing
      @
      if unknown = [] && missing = [] then
        [ "counter fields out of order or duplicated" ]
      else []
    in
    Error (String.concat "; " detail)
  end
  else
    let values = Array.of_list (List.map snd l) in
    let get name = values.(Hashtbl.find field_index name) in
    Ok
      {
        cycles = get "cycles";
        instructions = get "instructions";
        memory_reads = get "memory_reads";
        memory_writes = get "memory_writes";
        sdw_fetches = get "sdw_fetches";
        indirections = get "indirections";
        traps = get "traps";
        calls_same_ring = get "calls_same_ring";
        calls_downward = get "calls_downward";
        calls_upward = get "calls_upward";
        returns_same_ring = get "returns_same_ring";
        returns_upward = get "returns_upward";
        returns_downward = get "returns_downward";
        gatekeeper_entries = get "gatekeeper_entries";
        descriptor_switches = get "descriptor_switches";
        access_violations = get "access_violations";
        ptw_fetches = get "ptw_fetches";
        page_faults = get "page_faults";
        page_evictions = get "page_evictions";
        channel_ops = get "channel_ops";
        sdw_cache_hits = get "sdw_cache_hits";
        sdw_cache_misses = get "sdw_cache_misses";
        sdw_cache_evictions = get "sdw_cache_evictions";
        ptw_tlb_hits = get "ptw_tlb_hits";
        ptw_tlb_misses = get "ptw_tlb_misses";
        ptw_tlb_evictions = get "ptw_tlb_evictions";
        icache_hits = get "icache_hits";
        icache_misses = get "icache_misses";
        icache_evictions = get "icache_evictions";
        injected = get "injected";
        retried = get "retried";
        recovered = get "recovered";
        quarantined = get "quarantined";
        degraded = get "degraded";
        snapshots_written = get "snapshots_written";
        restores = get "restores";
        restore_audit_rejections = get "restore_audit_rejections";
        journal_replays_skipped = get "journal_replays_skipped";
        watchdog_tripped = get "watchdog_tripped";
        events_dropped = get "events_dropped";
        events_sampled_out = get "events_sampled_out";
        spans_sampled_out = get "spans_sampled_out";
      }

(* Channel operations print only when the program actually started
   one, so an I/O-free run's counter block is unchanged. *)
let pp_channel ppf (s : snapshot) =
  if s.channel_ops <> 0 then
    Format.fprintf ppf "@,channel ops         %8d" s.channel_ops

(* The robustness line appears only when injection was active, so an
   injector-off run prints exactly what it printed before the fault-
   injection subsystem existed. *)
let pp_robustness ppf (s : snapshot) =
  if
    s.injected <> 0 || s.retried <> 0 || s.recovered <> 0
    || s.quarantined <> 0 || s.degraded <> 0
  then
    Format.fprintf ppf
      "@,injected            %8d@,\
       retried             %8d@,\
       recovered           %8d@,\
       quarantined         %8d@,\
       degraded            %8d"
      s.injected s.retried s.recovered s.quarantined s.degraded

(* Likewise, the trace-pipeline line appears only when the sampler or
   the ring buffer actually discarded something, so a fully retained
   trace prints exactly what it printed before sampling existed. *)
let pp_trace_stats ppf (s : snapshot) =
  if s.events_dropped <> 0 || s.events_sampled_out <> 0 || s.spans_sampled_out <> 0
  then
    Format.fprintf ppf
      "@,events dropped      %8d@,\
       events sampled out  %8d@,\
       spans sampled out   %8d"
      s.events_dropped s.events_sampled_out s.spans_sampled_out

let pp_snapshot ppf (s : snapshot) =
  Format.fprintf ppf
    "@[<v>cycles              %8d@,\
     instructions        %8d@,\
     memory reads        %8d@,\
     memory writes       %8d@,\
     SDW fetches         %8d@,\
     indirections        %8d@,\
     traps               %8d@,\
     calls same-ring     %8d@,\
     calls downward      %8d@,\
     calls upward        %8d@,\
     returns same-ring   %8d@,\
     returns upward      %8d@,\
     returns downward    %8d@,\
     gatekeeper entries  %8d@,\
     descriptor switches %8d@,\
     access violations   %8d@,\
     PTW fetches         %8d@,\
     page faults         %8d@,\
     page evictions      %8d@,\
     SDW cache h/m/e     %8d %8d %8d@,\
     PTW TLB h/m/e       %8d %8d %8d@,\
     icache h/m/e        %8d %8d %8d%a%a%a@]"
    s.cycles s.instructions s.memory_reads s.memory_writes s.sdw_fetches
    s.indirections s.traps s.calls_same_ring s.calls_downward s.calls_upward
    s.returns_same_ring s.returns_upward s.returns_downward
    s.gatekeeper_entries s.descriptor_switches s.access_violations
    s.ptw_fetches s.page_faults s.page_evictions s.sdw_cache_hits
    s.sdw_cache_misses s.sdw_cache_evictions s.ptw_tlb_hits s.ptw_tlb_misses
    s.ptw_tlb_evictions s.icache_hits s.icache_misses s.icache_evictions
    pp_channel s pp_robustness s pp_trace_stats s
