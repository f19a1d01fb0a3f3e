(* One int per counter, indexed by [field]; [index], [snapshot] and
   [names] list the counters in the variant's order. *)

type field =
  | Cycles
  | Instructions
  | Memory_reads
  | Memory_writes
  | Sdw_fetches
  | Indirections
  | Traps
  | Calls_same_ring
  | Calls_downward
  | Calls_upward
  | Returns_same_ring
  | Returns_upward
  | Returns_downward
  | Gatekeeper_entries
  | Descriptor_switches
  | Access_violations
  | Ptw_fetches
  | Page_faults
  | Page_evictions
  | Channel_ops
  | Sdw_cache_hits
  | Sdw_cache_misses
  | Sdw_cache_evictions
  | Ptw_tlb_hits
  | Ptw_tlb_misses
  | Ptw_tlb_evictions
  | Icache_hits
  | Icache_misses
  | Icache_evictions
  | Injected
  | Retried
  | Recovered
  | Quarantined
  | Degraded
  | Snapshots_written
  | Restores
  | Restore_audit_rejections
  | Journal_replays_skipped
  | Watchdog_tripped
  | Events_dropped
  | Events_sampled_out
  | Spans_sampled_out

(* Numbered in declaration order, the match compiles to the
   constructor's own tag: [bump] is one load, one add and one store. *)
let[@inline] index = function
  | Cycles -> 0
  | Instructions -> 1
  | Memory_reads -> 2
  | Memory_writes -> 3
  | Sdw_fetches -> 4
  | Indirections -> 5
  | Traps -> 6
  | Calls_same_ring -> 7
  | Calls_downward -> 8
  | Calls_upward -> 9
  | Returns_same_ring -> 10
  | Returns_upward -> 11
  | Returns_downward -> 12
  | Gatekeeper_entries -> 13
  | Descriptor_switches -> 14
  | Access_violations -> 15
  | Ptw_fetches -> 16
  | Page_faults -> 17
  | Page_evictions -> 18
  | Channel_ops -> 19
  | Sdw_cache_hits -> 20
  | Sdw_cache_misses -> 21
  | Sdw_cache_evictions -> 22
  | Ptw_tlb_hits -> 23
  | Ptw_tlb_misses -> 24
  | Ptw_tlb_evictions -> 25
  | Icache_hits -> 26
  | Icache_misses -> 27
  | Icache_evictions -> 28
  | Injected -> 29
  | Retried -> 30
  | Recovered -> 31
  | Quarantined -> 32
  | Degraded -> 33
  | Snapshots_written -> 34
  | Restores -> 35
  | Restore_audit_rejections -> 36
  | Journal_replays_skipped -> 37
  | Watchdog_tripped -> 38
  | Events_dropped -> 39
  | Events_sampled_out -> 40
  | Spans_sampled_out -> 41

type t = int array

let count = index Spans_sampled_out + 1
let create () = Array.make count 0
let reset t = Array.fill t 0 count 0

(* In range by construction: [t] is always [count] long. *)
let[@inline] get (t : t) f = Array.unsafe_get t (index f)

let bump t f =
  let i = index f in
  Array.unsafe_set t i (Array.unsafe_get t i + 1)

let charge t n = Array.unsafe_set t 0 (Array.unsafe_get t 0 + n)
let cycles t = get t Cycles
let instructions t = get t Instructions

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
  raw : t;  (* the array this view reads; never mutated *)
}

(* The read-out view of [t], which it keeps: [t] must not change. *)
let view (t : t) : snapshot =
  {
    cycles = get t Cycles;
    instructions = get t Instructions;
    memory_reads = get t Memory_reads;
    memory_writes = get t Memory_writes;
    sdw_fetches = get t Sdw_fetches;
    indirections = get t Indirections;
    traps = get t Traps;
    calls_same_ring = get t Calls_same_ring;
    calls_downward = get t Calls_downward;
    calls_upward = get t Calls_upward;
    returns_same_ring = get t Returns_same_ring;
    returns_upward = get t Returns_upward;
    returns_downward = get t Returns_downward;
    gatekeeper_entries = get t Gatekeeper_entries;
    descriptor_switches = get t Descriptor_switches;
    access_violations = get t Access_violations;
    ptw_fetches = get t Ptw_fetches;
    page_faults = get t Page_faults;
    page_evictions = get t Page_evictions;
    channel_ops = get t Channel_ops;
    sdw_cache_hits = get t Sdw_cache_hits;
    sdw_cache_misses = get t Sdw_cache_misses;
    sdw_cache_evictions = get t Sdw_cache_evictions;
    ptw_tlb_hits = get t Ptw_tlb_hits;
    ptw_tlb_misses = get t Ptw_tlb_misses;
    ptw_tlb_evictions = get t Ptw_tlb_evictions;
    icache_hits = get t Icache_hits;
    icache_misses = get t Icache_misses;
    icache_evictions = get t Icache_evictions;
    injected = get t Injected;
    retried = get t Retried;
    recovered = get t Recovered;
    quarantined = get t Quarantined;
    degraded = get t Degraded;
    snapshots_written = get t Snapshots_written;
    restores = get t Restores;
    restore_audit_rejections = get t Restore_audit_rejections;
    journal_replays_skipped = get t Journal_replays_skipped;
    watchdog_tripped = get t Watchdog_tripped;
    events_dropped = get t Events_dropped;
    events_sampled_out = get t Events_sampled_out;
    spans_sampled_out = get t Spans_sampled_out;
    raw = t;
  }

let snapshot t = view (Array.copy t)

let names =
  [|
    "cycles";
    "instructions";
    "memory_reads";
    "memory_writes";
    "sdw_fetches";
    "indirections";
    "traps";
    "calls_same_ring";
    "calls_downward";
    "calls_upward";
    "returns_same_ring";
    "returns_upward";
    "returns_downward";
    "gatekeeper_entries";
    "descriptor_switches";
    "access_violations";
    "ptw_fetches";
    "page_faults";
    "page_evictions";
    "channel_ops";
    "sdw_cache_hits";
    "sdw_cache_misses";
    "sdw_cache_evictions";
    "ptw_tlb_hits";
    "ptw_tlb_misses";
    "ptw_tlb_evictions";
    "icache_hits";
    "icache_misses";
    "icache_evictions";
    "injected";
    "retried";
    "recovered";
    "quarantined";
    "degraded";
    "snapshots_written";
    "restores";
    "restore_audit_rejections";
    "journal_replays_skipped";
    "watchdog_tripped";
    "events_dropped";
    "events_sampled_out";
    "spans_sampled_out";
  |]

(* Not [Array.blit], which pays the write barrier on a major-heap [t]. *)
let restore t s =
  for i = 0 to count - 1 do
    Array.unsafe_set t i s.raw.(i)
  done

let fields s = List.init count (fun i -> (names.(i), s.raw.(i)))

let combine a sign b =
  let r = Array.copy a.raw in
  for i = 0 to count - 1 do
    r.(i) <- r.(i) + (sign * b.raw.(i))
  done;
  view r

let diff ~before ~after = combine after (-1) before
let add a b = combine a 1 b

(* Shape-checked so an image from a build with another counter set is a
   typed decode error naming the fields that drifted, never a silent
   misread. *)
let of_fields (l : (string * int) list) : (snapshot, string) result =
  let expected = Array.to_list names in
  let given = List.map fst l in
  if List.equal String.equal given expected then
    Ok (view (Array.of_list (List.map snd l)))
  else
    let absent xs n = not (List.mem n xs) in
    let part label = function
      | [] -> []
      | ns -> [ Printf.sprintf "%s: %s" label (String.concat ", " ns) ]
    in
    let unknown = List.filter (absent expected) given in
    let missing = List.filter (absent given) expected in
    let missing = part "missing counter fields" missing in
    match part "unknown counter fields" unknown @ missing with
    | [] -> Error "counter fields out of order or duplicated"
    | detail -> Error (String.concat "; " detail)

(* The printed block: one labelled row per line, each row one counter or
   a hit/miss/eviction triple.  The first group always prints; each
   later group prints only when one of its counters moved, so a run
   without I/O, injection or trace sampling prints exactly the block it
   printed before those subsystems existed. *)
let span a b = List.init (index b - index a + 1) (( + ) (index a))
let singles a b = List.map (fun i -> [ i ]) (span a b)

let groups =
  [
    singles Cycles Page_evictions
    @ [
        span Sdw_cache_hits Sdw_cache_evictions;
        span Ptw_tlb_hits Ptw_tlb_evictions;
        span Icache_hits Icache_evictions;
      ];
    singles Channel_ops Channel_ops;
    singles Injected Degraded;
    singles Events_dropped Spans_sampled_out;
  ]

let label i =
  match names.(i) with
  | "sdw_fetches" -> "SDW fetches"
  | "ptw_fetches" -> "PTW fetches"
  | "calls_same_ring" -> "calls same-ring"
  | "returns_same_ring" -> "returns same-ring"
  | "sdw_cache_hits" -> "SDW cache h/m/e"
  | "ptw_tlb_hits" -> "PTW TLB h/m/e"
  | "icache_hits" -> "icache h/m/e"
  | n -> String.map (function '_' -> ' ' | c -> c) n

let pp_snapshot ppf (s : snapshot) =
  let a = s.raw in
  let moved group = List.exists (List.exists (fun i -> a.(i) <> 0)) group in
  let rows = List.concat (List.filteri (fun k g -> k = 0 || moved g) groups) in
  let row ppf r =
    Format.fprintf ppf "%-19s" (label (List.hd r));
    List.iter (fun i -> Format.fprintf ppf " %8d" a.(i)) r
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut row)
    rows
