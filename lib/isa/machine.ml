type mode = Ring_hardware | Ring_software_645 | Ring_capability

(* Which per-access decision procedure a mode runs.  The machine keeps
   [mode] (the capability backend also changes CALL/RETURN mechanics
   and enables the tag store); the backend is what the per-reference
   validations dispatch on. *)
let backend_of_mode = function
  | Ring_hardware -> Rings.Backend.Hardware
  | Ring_software_645 -> Rings.Backend.Software_645
  | Ring_capability -> Rings.Backend.Capability

type saved_state = { regs : Hw.Registers.t; fault : Rings.Fault.t }

type trap_config = {
  vector_base : Hw.Addr.t;
  conditions_base : Hw.Addr.t;
}

type io_request = {
  ccw : Hw.Addr.t;
  buffer : Hw.Addr.t;
  direction : [ `Read | `Write ];
  count : int;
}

(* Associative-memory keys are packed into a single immediate int so
   the hot path never allocates a tuple or runs the polymorphic hash
   over one.

   SDW entries are identified by (descriptor segment base, segno):
   base is at most 21 bits, segno at most {!Hw.Addr.segno_bits}.

   PTW entries are identified by (descriptor segment base, segno,
   pageno): wordno is under 2^18 and pages are 1024 words, so pageno
   fits 8 bits, and the whole key fits 43 bits.  Including the base
   keeps entries from a 645-style per-ring descriptor segment alive
   across the DBR flips of every ring crossing, exactly like the
   modeled associative memory.

   A PTW value packs (page-table word address, frame base), both under
   22 bits, so a TLB hit allocates nothing and eviction can still find
   the watch entry. *)
let segno_mask = (1 lsl Hw.Addr.segno_bits) - 1
let sdw_key ~base ~segno = (base lsl Hw.Addr.segno_bits) lor segno
let pageno_bits = 8
let ptw_key ~base ~segno ~pageno =
  (base lsl (Hw.Addr.segno_bits + pageno_bits))
  lor (segno lsl pageno_bits)
  lor pageno

let ptw_value ~waddr ~frame_base = (waddr lsl 22) lor frame_base
let ptw_value_frame v = v land ((1 lsl 22) - 1)

(* A fetch-cache key identifies everything a cached instruction fetch
   was computed from that can vary per fetch: descriptor segment base,
   segment, ring of execution and word number — 21+14+3+18 = 56
   bits. *)
let fetch_key ~base ~ring ~segno ~wordno =
  (((base lsl Hw.Addr.segno_bits) lor segno) lsl 21)
  lor (ring lsl 18) lor wordno

(* Faults inside the instruction cycle travel as one exception,
   raised without a backtrace and caught once, where {!Cpu.step} hands
   the fault to [take_fault].  The result-returning functions below are
   thin wrappers for callers outside the cycle. *)
exception Fault of Rings.Fault.t

let[@inline never] raise_fault f = raise_notrace (Fault f)
let[@inline] check = function Ok () -> () | Error f -> raise_fault f
let catch f = match f () with v -> Ok v | exception Fault e -> Error e

(* An instruction cached with the generation current at fill time;
   stale generations (descriptor writes, page-table writes,
   invalidations, modeled-cache flushes) make every older entry miss
   without a scan.  [f_paged] records which modeled walk to replay.
   [f_next] is the IPR of the next sequential instruction, prebuilt so
   advancing IPR on a hit allocates nothing. *)
type fetch_entry = {
  f_instr : Instr.t;
  f_next : Hw.Registers.ptr;
  f_gen : int;
  f_paged : bool;
}

(* Same idea for whole address translations: a generation-current hit
   returns the entry itself and replays the modeled activity of the
   walk that filled it.  Keyed by packed (DBR base, segno, wordno) —
   faults are never cached.  [r_ptr] remembers the last IPR value a
   transfer built to this address, so a loop's backward branch reuses
   it. *)
type resolve_entry = {
  r_sdw : Hw.Sdw.t;
  r_abs : int;
  r_gen : int;
  r_paged : bool;
  mutable r_ptr : Hw.Registers.ptr;
}

let no_ptr =
  { Hw.Registers.ring = Rings.Ring.r0; addr = Hw.Addr.v ~segno:0 ~wordno:0 }

let resolve_key ~base ~segno ~wordno =
  (((base lsl Hw.Addr.segno_bits) lor segno) lsl 18) lor wordno

(* Both memo tables are direct-mapped: a power-of-two slot array
   indexed by the low key bits, the full key stored alongside for the
   match check.  One masked array probe per lookup — no hashing — and
   a colliding fill simply overwrites.  Slot [-1] is empty (keys are
   non-negative), and the dummy entries carry a never-current
   generation so an uninitialized slot can never hit. *)
let fetch_cache_slots = 8192
let resolve_cache_slots = 8192

(* Fibonacci hashing for the slot index: the packed keys carry the
   wordno in their low bits, so masking those alone would collide
   caller and callee code at equal word numbers in different segments.
   One multiply spreads base, segno and ring into the top bits. *)
let slot_index key = (key * 0x2545F4914F6CDD1D) lsr 50

let fetch_index key = slot_index key
let resolve_index key = slot_index key

let dummy_fetch_entry =
  {
    f_instr = Instr.v Opcode.NOP;
    f_next = no_ptr;
    f_gen = min_int;
    f_paged = false;
  }

let dummy_resolve_entry =
  {
    r_sdw = Hw.Sdw.absent;
    r_abs = 0;
    r_gen = min_int;
    r_paged = false;
    r_ptr = no_ptr;
  }

(* Which host caches watch an absolute address, one byte per memory
   word, so the write observer is a single byte test on the (vastly
   common) unwatched store. *)
let bit_sdw = 1
let bit_ptw = 2
let bit_icache = 4
let bit_fetch = 8

type t = {
  mem : Hw.Memory.t;
  regs : Hw.Registers.t;
  counters : Trace.Counters.t;
  log : Trace.Event.log;
  spans : Trace.Span.tracker;
  profile : Trace.Profile.t;
  mode : mode;
  backend : Rings.Backend.t;
      (* [backend_of_mode mode], cached: the validate_* calls sit on
         the per-reference hot path and must not re-match the mode. *)
  stack_rule : Rings.Stack_rule.t;
  gate_on_same_ring : bool;
  use_r1_in_indirection : bool;
  mutable halted : bool;
  mutable saved : saved_state option;
  mutable io_request : io_request option;
  mutable inhibit : bool;
  mutable trap_config : trap_config option;
  sdw_tags : (int, Hw.Sdw.t) Hashtbl.t;
  sdw_cache : (int, Hw.Sdw.t) Hw.Assoc.t;
  ptw_tlb : (int, int) Hw.Assoc.t;
  icache : (int, Instr.t) Hw.Assoc.t;
  sdw_watch : (int, int) Hashtbl.t;
  ptw_watch : (int, int) Hashtbl.t;
  fetch_slots : int array;
  fetch_entries : fetch_entry array;
  fetch_watch : (int, int) Hashtbl.t;
  resolve_slots : int array;
  resolve_entries : resolve_entry array;
  mutable fetch_gen : int;
  mutable watched : Bytes.t;
  mutable sdw_cache_base : int;
  mutable resident_bases : int list;
  mutable injector : Hw.Inject.t option;
  mutable degraded : bool;
  mutable io_fail_pending : bool;
  mutable on_recovery : Rings.Fault.t -> unit;
  mutable cap_stack : Cap.Capability.sealed_return list;
  mutable tpr_ring : Rings.Effective_ring.t;
  mutable tpr_segno : int;
  mutable tpr_wordno : int;
  mutable tpr_imm : Hw.Word.t;
  mutable ticks : int;
  mutable next_event : int;
  mutable timer_at : int;
  mutable io_at : int;
  mutable limit_at : int;
}

(* Deadline sentinel for the between-instruction events: never due. *)
let no_event = max_int

let cache_capacity = 64
let sdw_cache_entries = 512
let ptw_tlb_entries = 256
let icache_entries = 4096

(* Watch tables use Hashtbl.add multi-bindings: distinct descriptor
   segments can interleave in absolute memory, and per-ring descriptor
   segments of a 645-style process share page tables, so one written
   word can back several cached entries. *)
let watch t ~bit table addr key =
  if not (List.mem key (Hashtbl.find_all table addr)) then
    Hashtbl.add table addr key;
  Bytes.set t.watched addr
    (Char.unsafe_chr (Char.code (Bytes.get t.watched addr) lor bit))

let unwatch_all table addr =
  while Hashtbl.mem table addr do
    Hashtbl.remove table addr
  done

let drop_ptw_where t pred =
  ignore
    (Hw.Assoc.drop_where t.ptw_tlb (fun key v ->
         if pred key then begin
           unwatch_all t.ptw_watch (v lsr 22);
           true
         end
         else false))

(* Memory-write coherence, slow half: the written word is (or once
   was) backing host-cached state.  An overwritten SDW invalidates its
   cached decode, every TLB entry translated through it, and — via the
   generation counter — every cached instruction fetch, since those
   froze its translation and access check.  An overwritten PTW
   invalidates its TLB entries.  Any store invalidates decoded
   instructions at that absolute address, so self-modifying code
   refetches.  The modeled tag store's population is deliberately
   untouched: the modeled hardware requires an explicit
   [invalidate_sdw], and its hit/miss pattern (hence the cycle
   accounting) must not depend on host cache residency. *)
let on_watched_write t addr b =
  if b land bit_sdw <> 0 then begin
    List.iter
      (fun key ->
        (* The modeled tag must survive, but its host-side decode is
           now stale: mark it with the [absent] sentinel so the next
           hit refetches silently. *)
        if Hashtbl.mem t.sdw_tags key then
          Hashtbl.replace t.sdw_tags key Hw.Sdw.absent;
        ignore (Hw.Assoc.remove t.sdw_cache key);
        drop_ptw_where t (fun k -> k lsr pageno_bits = key))
      (Hashtbl.find_all t.sdw_watch addr);
    unwatch_all t.sdw_watch addr;
    t.fetch_gen <- t.fetch_gen + 1
  end;
  if b land bit_ptw <> 0 then begin
    List.iter
      (fun key -> ignore (Hw.Assoc.remove t.ptw_tlb key))
      (Hashtbl.find_all t.ptw_watch addr);
    unwatch_all t.ptw_watch addr;
    (* Cached fetches from paged segments froze a translation through
       some PTW; a rewritten page table must fault or retranslate. *)
    t.fetch_gen <- t.fetch_gen + 1
  end;
  if b land bit_icache <> 0 then ignore (Hw.Assoc.remove t.icache addr);
  if b land bit_fetch <> 0 then begin
    List.iter
      (fun key ->
        let i = fetch_index key in
        if Array.unsafe_get t.fetch_slots i = key then
          Array.unsafe_set t.fetch_slots i (-1))
      (Hashtbl.find_all t.fetch_watch addr);
    unwatch_all t.fetch_watch addr
  end;
  Bytes.unsafe_set t.watched addr '\000'

(* Fast half: one byte test per store. *)
let on_memory_write t addr =
  let b = Char.code (Bytes.unsafe_get t.watched addr) in
  if b <> 0 then on_watched_write t addr b

(* Silent disassembly for lazy trace-text resolution: re-decode the
   word at [segno|wordno] through the current DBR without touching
   counters, charges, caches or the write observer — export must not
   perturb the modeled machine.  Resolution happens at export time, so
   the walk sees the descriptor state of that moment; an address that
   no longer resolves (revoked segment, paged-out page, word that no
   longer decodes) is [None], which the event log renders as ["?"]. *)
let disassemble_at t ~segno ~wordno =
  match Hw.Descriptor.fetch_sdw_silent t.mem t.regs.Hw.Registers.dbr ~segno with
  | Error _ -> None
  | Ok sdw -> (
      let abs =
        if not (Hw.Sdw.contains sdw ~wordno) then None
        else if sdw.Hw.Sdw.paged then begin
          let pageno = Hw.Paging.page_of_wordno wordno in
          let waddr = sdw.Hw.Sdw.base + pageno in
          let ptw = Hw.Paging.decode_ptw (Hw.Memory.read_silent t.mem waddr) in
          if ptw.Hw.Paging.present then
            Some (ptw.Hw.Paging.frame_base + Hw.Paging.offset_in_page wordno)
          else None
        end
        else
          match Hw.Descriptor.translate sdw ~segno ~wordno with
          | Ok abs -> Some abs
          | Error _ -> None
      in
      match abs with
      | None -> None
      | Some abs -> (
          match Instr.decode (Hw.Memory.read_silent t.mem abs) with
          | Ok instr -> Some (Format.asprintf "%a" Instr.pp instr)
          | Error _ -> None))

(* Storage a dead machine handed back through {!release}: its memory's
   arrays and its [watched] map.  One slot per domain, so machines built
   on different domains never share it; the next {!create} of the same
   memory size takes it instead of allocating. *)
type spare = { storage : Hw.Memory.storage; spare_watched : Bytes.t }

let spare_slot : spare option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_spare size =
  let slot = Domain.DLS.get spare_slot in
  match !slot with
  | Some s when Bytes.length s.spare_watched = size ->
      slot := None;
      Bytes.fill s.spare_watched 0 size '\000';
      Some s
  | Some _ | None -> None

let create ?(mode = Ring_hardware)
    ?(stack_rule = Rings.Stack_rule.Segno_equals_ring)
    ?(gate_on_same_ring = true) ?(use_r1_in_indirection = true)
    ?(mem_size = Hw.Memory.default_size) () =
  let counters = Trace.Counters.create () in
  let mem, watched =
    match take_spare mem_size with
    | Some s -> (Hw.Memory.create ~storage:s.storage counters, s.spare_watched)
    | None ->
        (Hw.Memory.create ~size:mem_size counters, Bytes.make mem_size '\000')
  in
  let log = Trace.Event.create_log () in
  (* Events are stamped with the modeled cycle count at record time. *)
  Trace.Event.set_clock log (fun () -> Trace.Counters.cycles counters);
  let t =
    {
      mem;
      regs = Hw.Registers.create ();
      counters;
      log;
      spans = Trace.Span.create ();
      profile = Trace.Profile.create ~rings:Rings.Ring.count ();
      mode;
      backend = backend_of_mode mode;
      stack_rule;
      gate_on_same_ring;
      use_r1_in_indirection;
      halted = false;
      saved = None;
      io_request = None;
      inhibit = false;
      trap_config = None;
      sdw_tags = Hashtbl.create cache_capacity;
      sdw_cache = Hw.Assoc.create ~capacity:sdw_cache_entries ();
      ptw_tlb = Hw.Assoc.create ~capacity:ptw_tlb_entries ();
      icache = Hw.Assoc.create ~capacity:icache_entries ();
      sdw_watch = Hashtbl.create 64;
      ptw_watch = Hashtbl.create 64;
      fetch_slots = Array.make fetch_cache_slots (-1);
      fetch_entries = Array.make fetch_cache_slots dummy_fetch_entry;
      fetch_watch = Hashtbl.create 256;
      resolve_slots = Array.make resolve_cache_slots (-1);
      resolve_entries = Array.make resolve_cache_slots dummy_resolve_entry;
      fetch_gen = 0;
      watched;
      sdw_cache_base = -1;
      resident_bases = [];
      injector = None;
      degraded = false;
      io_fail_pending = false;
      on_recovery = (fun _ -> ());
      cap_stack = [];
      tpr_ring = Rings.Effective_ring.start Rings.Ring.r0;
      tpr_segno = 0;
      tpr_wordno = 0;
      tpr_imm = 0;
      ticks = 0;
      next_event = no_event;
      timer_at = no_event;
      io_at = no_event;
      limit_at = no_event;
    }
  in
  (* The capability machine carries validity tags on memory words;
     allocating the tag store only here keeps the other two backends'
     write path untouched. *)
  if mode = Ring_capability then Hw.Memory.enable_tags mem;
  Trace.Span.set_backend t.spans
    (Rings.Backend.to_string (backend_of_mode mode));
  Hw.Memory.set_write_observer t.mem (on_memory_write t);
  (* Instruction events defer their disassembly to export time; the
     log resolves it by silently re-decoding the segment image.  Both
     trace sinks mirror their discard statistics into the machine's
     counters so drops and sampling ride the ordinary counter surface. *)
  Trace.Event.set_text_resolver t.log (fun ~segno ~wordno ->
      disassemble_at t ~segno ~wordno);
  Trace.Event.set_stats t.log counters;
  Trace.Span.set_stats t.spans counters;
  t

let release t =
  if Bytes.length t.watched <> 0 then begin
    let storage = Hw.Memory.release t.mem in
    let spare_watched = t.watched in
    t.watched <- Bytes.empty;
    Domain.DLS.get spare_slot := Some { storage; spare_watched }
  end

let ring t = t.regs.Hw.Registers.ipr.Hw.Registers.ring

(* The modeled associative memory: same replacement behaviour as the
   original simulated hardware — [cache_capacity] entries, flushed
   wholesale when full — so the cycle accounting is reproduced
   bit-for-bit.  Each tag carries the host's decoded SDW so the common
   case (modeled hit, coherent value) is a single int-keyed lookup;
   {!Hw.Sdw.absent} never enters through an insert (only present SDWs
   are cached), so it doubles as the "host value stale" sentinel. *)
let tag_insert t key sdw =
  if Hashtbl.length t.sdw_tags >= cache_capacity then begin
    Hashtbl.clear t.sdw_tags;
    (* Cached fetches replay a modeled tag hit; a flushed tag store
       makes every one of them a modeled miss again. *)
    t.fetch_gen <- t.fetch_gen + 1
  end;
  Hashtbl.replace t.sdw_tags key sdw

let host_insert_sdw t ~base ~segno key sdw =
  if not t.degraded then
    (match Hw.Assoc.insert t.sdw_cache key sdw with
    | None -> ()
    | Some _ -> Trace.Counters.bump t.counters Sdw_cache_evictions);
  (* The watches stay armed even degraded: the modeled tag store keeps
     carrying host decodes, and those must still heal on descriptor
     writes. *)
  let a = base + (Hw.Descriptor.words_per_sdw * segno) in
  watch t ~bit:bit_sdw t.sdw_watch a key;
  watch t ~bit:bit_sdw t.sdw_watch (a + 1) key

(* A reloaded DBR names a different descriptor segment.  A 645
   process keeps one descriptor segment per ring (at most
   {!Rings.Ring.count}), and switching rings flips the DBR between
   them on every crossing, so bases inside that working set stay
   resident — write-coherence is the observer's job, not the purge's.
   A reload to a base {e outside} the working set is a process switch
   (or a genuinely new descriptor segment): entries cached under the
   old bases are dropped rather than left to squat until capacity
   eviction.  Lazy detection — the DBR is written directly by LDBR,
   the kernel and the 645 descriptor-segment switch, so [fetch_sdw]
   notices the base change on the next translation. *)
let sync_dbr_base t base =
  if not (List.memq base t.resident_bases) then begin
    if List.length t.resident_bases >= Rings.Ring.count then begin
      ignore
        (Hw.Assoc.drop_where t.sdw_cache (fun key _ ->
             key lsr Hw.Addr.segno_bits <> base));
      t.resident_bases <- [ base ]
    end
    else t.resident_bases <- base :: t.resident_bases
  end;
  t.sdw_cache_base <- base

(* Capability backend only: an SDW read from core is trusted only if
   both of its words still carry validity tags.  [store_sdw] — the
   kernel's descriptor-install path — mints the tags; any other store
   (including injected corruption, which writes through the
   coherence-preserving silent path) clears them, so a forged or
   damaged descriptor refuses with {!Rings.Fault.Cap_tag_violation}
   instead of being decoded and obeyed.  Runs only after a successful
   walk, so [segno] is within the DBR bound and the addresses are in
   range.  Modeled-hit paths skip the check by design: a store over
   the words always demotes the modeled tag first (the write
   observer), forcing the checked refill. *)
let check_sdw_tags t (dbr : Hw.Registers.dbr) ~segno =
  if t.mode = Ring_capability then begin
    let a0 = dbr.Hw.Registers.base + (Hw.Descriptor.words_per_sdw * segno) in
    if not (Hw.Memory.tagged t.mem a0) then
      raise_fault (Rings.Fault.Cap_tag_violation { addr = a0; segno })
    else if not (Hw.Memory.tagged t.mem (a0 + 1)) then
      raise_fault (Rings.Fault.Cap_tag_violation { addr = a0 + 1; segno })
  end

let sdw_or_raise = function Ok sdw -> sdw | Error f -> raise_fault f

(* Modeled hit whose host-side decode was invalidated by a write:
   refetch silently and heal the tag.  The modeled activity is the hit
   already bumped by the caller — nothing further is charged. *)
let refill_tag t dbr ~base ~segno key =
  Trace.Counters.bump t.counters Sdw_cache_misses;
  let sdw = sdw_or_raise (Hw.Descriptor.fetch_sdw_silent t.mem dbr ~segno) in
  check_sdw_tags t dbr ~segno;
  Hashtbl.replace t.sdw_tags key sdw;
  host_insert_sdw t ~base ~segno key sdw;
  sdw

(* Modeled miss: the two SDW words are read from core — charged as
   memory traffic exactly as before the host cache split.  The host
   LRU spares the walk when it can. *)
let fetch_sdw_miss t dbr ~base ~segno key =
  match (if t.degraded then None else Hw.Assoc.find t.sdw_cache key) with
  | Some sdw when segno < dbr.Hw.Registers.bound ->
      (* Replays the uncached walk's accounting exactly: the SDW-fetch
         bump and charge, then the two SDW words from core.  (The
         bound guard mirrors the walk's own check — a shrunk DBR bound
         must still fault.) *)
      Trace.Counters.bump t.counters Sdw_cache_hits;
      Trace.Counters.bump t.counters Sdw_fetches;
      Trace.Counters.charge t.counters Hw.Costs.sdw_fetch;
      Trace.Counters.charge t.counters (2 * Hw.Costs.memory_access);
      tag_insert t key sdw;
      (* Refreshes recency and re-arms the descriptor-word watches the
         observer may have dropped while only the LRU entry lived. *)
      host_insert_sdw t ~base ~segno key sdw;
      sdw
  | Some _ | None ->
      Trace.Counters.bump t.counters Sdw_cache_misses;
      let sdw = sdw_or_raise (Hw.Descriptor.fetch_sdw t.mem dbr ~segno) in
      Trace.Counters.charge t.counters (2 * Hw.Costs.memory_access);
      check_sdw_tags t dbr ~segno;
      tag_insert t key sdw;
      host_insert_sdw t ~base ~segno key sdw;
      sdw

let fetch_sdw_exn t ~segno =
  let dbr = t.regs.Hw.Registers.dbr in
  let base = dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let key = sdw_key ~base ~segno in
  match Hashtbl.find t.sdw_tags key with
  | sdw when sdw != Hw.Sdw.absent ->
      (* Modeled hit with a coherent host decode — the hot path. *)
      Trace.Counters.bump t.counters Sdw_fetches;
      Trace.Counters.bump t.counters Sdw_cache_hits;
      sdw
  | _ ->
      Trace.Counters.bump t.counters Sdw_fetches;
      refill_tag t dbr ~base ~segno key
  | exception Not_found -> fetch_sdw_miss t dbr ~base ~segno key

let fetch_sdw t ~segno = catch (fun () -> fetch_sdw_exn t ~segno)

let invalidate_sdw t ~segno =
  let stale =
    Hashtbl.fold
      (fun key _ acc -> if key land segno_mask = segno then key :: acc else acc)
      t.sdw_tags []
  in
  List.iter (Hashtbl.remove t.sdw_tags) stale;
  ignore
    (Hw.Assoc.drop_where t.sdw_cache (fun key _ ->
         key land segno_mask = segno));
  drop_ptw_where t (fun key ->
      (key lsr pageno_bits) land segno_mask = segno);
  (* Conservatively drop decoded instructions too: revoking a segment
     must leave nothing derived from it behind. *)
  Hw.Assoc.clear t.icache;
  Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
  Hashtbl.reset t.fetch_watch;
  Array.fill t.resolve_slots 0 resolve_cache_slots (-1);
  t.fetch_gen <- t.fetch_gen + 1

(* Paged translation with a host-side TLB.  The modeled activity is
   identical on hit and miss — one PTW retrieval counted and charged
   as a memory access, exactly {!Hw.Descriptor.translate_paged} — the
   TLB only spares the host the read-decode on a hit.  Not-present
   PTWs are never cached, so a missing page faults afresh each time,
   as the uncached walk does. *)
let translate_paged_cached t (sdw : Hw.Sdw.t) ~segno ~wordno =
  if not (Hw.Sdw.contains sdw ~wordno) then
    raise_fault
      (Rings.Fault.Bound_violation { segno; wordno; bound = sdw.Hw.Sdw.bound })
  else begin
    let pageno = Hw.Paging.page_of_wordno wordno in
    Trace.Counters.bump t.counters Ptw_fetches;
    Trace.Counters.bump t.counters Memory_reads;
    Trace.Counters.charge t.counters Hw.Costs.memory_access;
    let key =
      ptw_key ~base:t.regs.Hw.Registers.dbr.Hw.Registers.base ~segno ~pageno
    in
    match (if t.degraded then None else Hw.Assoc.find t.ptw_tlb key) with
    | Some v ->
        Trace.Counters.bump t.counters Ptw_tlb_hits;
        ptw_value_frame v + Hw.Paging.offset_in_page wordno
    | None ->
        Trace.Counters.bump t.counters Ptw_tlb_misses;
        let waddr = sdw.Hw.Sdw.base + pageno in
        let ptw = Hw.Paging.decode_ptw (Hw.Memory.read_silent t.mem waddr) in
        if ptw.Hw.Paging.present then begin
          let frame = ptw.Hw.Paging.frame_base in
          if not t.degraded then begin
            (match
               Hw.Assoc.insert t.ptw_tlb key (ptw_value ~waddr ~frame_base:frame)
             with
            | None -> ()
            | Some _ ->
                (* The evicted entry's page-table word stays watched:
                   cached fetches may still depend on it, and a stale
                   watch costs one harmless observer firing. *)
                Trace.Counters.bump t.counters Ptw_tlb_evictions);
            watch t ~bit:bit_ptw t.ptw_watch waddr key
          end;
          frame + Hw.Paging.offset_in_page wordno
        end
        else raise_fault (Rings.Fault.Missing_page { segno; pageno })
  end

let resolve_slow t ~segno ~wordno key =
  let sdw = fetch_sdw_exn t ~segno in
  let abs =
    if sdw.Hw.Sdw.paged then translate_paged_cached t sdw ~segno ~wordno
    else
      match Hw.Descriptor.translate sdw ~segno ~wordno with
      | Ok abs -> abs
      | Error f -> raise_fault f
  in
  let e =
    {
      r_sdw = sdw;
      r_abs = abs;
      r_gen = t.fetch_gen;
      r_paged = sdw.Hw.Sdw.paged;
      r_ptr = no_ptr;
    }
  in
  if not t.degraded then begin
    let i = resolve_index key in
    t.resolve_slots.(i) <- key;
    t.resolve_entries.(i) <- e
  end;
  e

(* The one address-translation path, keyed on plain ints so TPR can
   drive it without building an address.  A hit replays the filling
   walk's modeled activity: a free SDW fetch from the modeled
   associative memory, plus — through a page table — the PTW
   retrieval's counted, charged core read. *)
let resolve_exn t ~segno ~wordno =
  let base = t.regs.Hw.Registers.dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let key = resolve_key ~base ~segno ~wordno in
  let i = resolve_index key in
  if (not t.degraded) && Array.unsafe_get t.resolve_slots i = key then begin
    let e = Array.unsafe_get t.resolve_entries i in
    if e.r_gen = t.fetch_gen then begin
      let c = t.counters in
      Trace.Counters.bump c Sdw_fetches;
      Trace.Counters.bump c Sdw_cache_hits;
      if e.r_paged then begin
        Trace.Counters.bump c Ptw_fetches;
        Trace.Counters.bump c Memory_reads;
        Trace.Counters.charge c Hw.Costs.memory_access;
        Trace.Counters.bump c Ptw_tlb_hits
      end;
      e
    end
    else resolve_slow t ~segno ~wordno key
  end
  else resolve_slow t ~segno ~wordno key

let resolve_tpr t = resolve_exn t ~segno:t.tpr_segno ~wordno:t.tpr_wordno

let resolve t (addr : Hw.Addr.t) =
  match resolve_exn t ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno with
  | e -> Ok (e.r_sdw, e.r_abs)
  | exception Fault f -> Error f

(* IPR aimed at the address [e] resolved, in [ring]: the entry keeps
   the last one built, so a transfer that keeps landing on the same
   target in the same ring allocates nothing. *)
let transfer_ptr t e ~ring =
  let p = e.r_ptr in
  if p != no_ptr && Rings.Ring.equal p.Hw.Registers.ring ring then p
  else begin
    let p =
      {
        Hw.Registers.ring;
        addr = Hw.Addr.v ~segno:t.tpr_segno ~wordno:t.tpr_wordno;
      }
    in
    e.r_ptr <- p;
    p
  end

(* Instruction retrieval with a decoded-instruction cache keyed by
   absolute address.  The modeled activity on either path is the one
   memory read the uncached fetch performed; the cache spares the host
   the word read and re-decode.  The write observer drops entries for
   stored-to addresses, so self-modifying code decodes the new word. *)
let fetch_decoded_exn t abs =
  Trace.Counters.bump t.counters Memory_reads;
  Trace.Counters.charge t.counters Hw.Costs.memory_access;
  match (if t.degraded then None else Hw.Assoc.find t.icache abs) with
  | Some instr ->
      Trace.Counters.bump t.counters Icache_hits;
      instr
  | None -> (
      Trace.Counters.bump t.counters Icache_misses;
      match Instr.decode (Hw.Memory.read_silent t.mem abs) with
      | Error f -> raise_fault f
      | Ok instr ->
          if not t.degraded then begin
            (match Hw.Assoc.insert t.icache abs instr with
            | None -> ()
            | Some _ -> Trace.Counters.bump t.counters Icache_evictions);
            Bytes.unsafe_set t.watched abs
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get t.watched abs) lor bit_icache))
          end;
          instr)

let fetch_decoded t abs = catch (fun () -> fetch_decoded_exn t abs)

let validate_fetch t (sdw : Hw.Sdw.t) ~ring =
  Rings.Backend.validate_fetch t.backend sdw.access ~ring

(* Whole-fetch memoization: translation, execute validation, word
   read and decode collapsed into one lookup.  An entry is filled
   only from a successful uncached fetch of an unpaged segment whose
   SDW tag is (now) resident, so a generation-current hit replays
   precisely the modeled activity of that walk: one free SDW fetch
   from the modeled associative memory and one core read of the
   instruction word.  Anything that could change any ingredient —
   a store into a descriptor segment, an SDW invalidation, a flush
   of the modeled tag store — advances [fetch_gen]; a store over the
   cached word drops the entry itself via [fetch_watch]. *)
let fetch_slow t (ipr : Hw.Registers.ptr) key =
  let addr = ipr.Hw.Registers.addr in
  let r =
    resolve_exn t ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno
  in
  check (validate_fetch t r.r_sdw ~ring:ipr.Hw.Registers.ring);
  let instr = fetch_decoded_exn t r.r_abs in
  let e =
    {
      f_instr = instr;
      f_next = { ipr with Hw.Registers.addr = Hw.Addr.offset addr 1 };
      f_gen = t.fetch_gen;
      f_paged = r.r_sdw.Hw.Sdw.paged;
    }
  in
  if not t.degraded then begin
    (* The watch table accumulates a binding per distinct (word, key)
       pair; slot overwrites leave old bindings harmlessly stale, so
       bound its growth by starting the memo over when it gets far
       larger than the slots. *)
    if Hashtbl.length t.fetch_watch > 4 * fetch_cache_slots then begin
      Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
      Hashtbl.reset t.fetch_watch
    end;
    let i = fetch_index key in
    t.fetch_slots.(i) <- key;
    t.fetch_entries.(i) <- e;
    watch t ~bit:bit_fetch t.fetch_watch r.r_abs key
  end;
  e

let fetch_exn t =
  let ipr = t.regs.Hw.Registers.ipr in
  let base = t.regs.Hw.Registers.dbr.Hw.Registers.base in
  if base <> t.sdw_cache_base then sync_dbr_base t base;
  let addr = ipr.Hw.Registers.addr in
  let key =
    fetch_key ~base
      ~ring:(Rings.Ring.to_int ipr.Hw.Registers.ring)
      ~segno:addr.Hw.Addr.segno ~wordno:addr.Hw.Addr.wordno
  in
  let i = fetch_index key in
  if (not t.degraded) && Array.unsafe_get t.fetch_slots i = key then begin
    let e = Array.unsafe_get t.fetch_entries i in
    if e.f_gen = t.fetch_gen then begin
      let c = t.counters in
      Trace.Counters.bump c Sdw_fetches;
      Trace.Counters.bump c Sdw_cache_hits;
      if e.f_paged then begin
        (* The walk's PTW retrieval: one counted, charged core read. *)
        Trace.Counters.bump c Ptw_fetches;
        Trace.Counters.bump c Memory_reads;
        Trace.Counters.charge c Hw.Costs.memory_access;
        Trace.Counters.bump c Ptw_tlb_hits
      end;
      Trace.Counters.bump c Memory_reads;
      Trace.Counters.charge c Hw.Costs.memory_access;
      Trace.Counters.bump c Icache_hits;
      e
    end
    else fetch_slow t ipr key
  end
  else fetch_slow t ipr key

let fetch_instr t = catch (fun () -> (fetch_exn t).f_instr)

let validate_read t (sdw : Hw.Sdw.t) ~effective =
  Rings.Backend.validate_read t.backend sdw.access ~effective

let validate_write t (sdw : Hw.Sdw.t) ~effective =
  Rings.Backend.validate_write t.backend sdw.access ~effective

let validate_transfer t (sdw : Hw.Sdw.t) ~exec ~effective =
  Rings.Backend.validate_transfer t.backend sdw.access ~exec ~effective

let take_fault t ~at fault =
  Trace.Counters.bump t.counters Traps;
  if Rings.Fault.is_access_violation fault then
    Trace.Counters.bump t.counters Access_violations;
  Trace.Counters.charge t.counters Hw.Costs.trap_entry;
  if Trace.Event.enabled t.log then
    Trace.Event.record_trap t.log
      ~ring:(Rings.Ring.to_int (ring t))
      ~cause:(Rings.Fault.to_string fault);
  let regs = Hw.Registers.copy t.regs in
  regs.Hw.Registers.ipr <- at;
  t.saved <- Some { regs; fault };
  t.inhibit <- true;
  (* With a simulated supervisor configured, complete the trap in
     hardware: conditions to memory, ring 0, fixed location. *)
  match t.trap_config with
  | None -> ()
  | Some { vector_base; conditions_base } -> (
      match Hw.Descriptor.resolve t.mem t.regs.Hw.Registers.dbr conditions_base with
      | Error _ -> () (* misconfigured: leave the fault to the host *)
      | Ok (_, abs) ->
          let words =
            Hw.Conditions.store regs ~fault_code:(Rings.Fault.code fault)
          in
          Array.iteri
            (fun i w -> Hw.Memory.write_silent t.mem (abs + i) w)
            words;
          t.regs.Hw.Registers.ipr <-
            {
              Hw.Registers.ring = Rings.Ring.r0;
              addr = Hw.Addr.offset vector_base (Rings.Fault.code fault);
            })

let restore_saved t =
  t.inhibit <- false;
  match t.trap_config with
  | Some { conditions_base; _ } -> (
      (* Reload the conditions from memory, where the supervisor may
         have patched them. *)
      Trace.Counters.charge t.counters Hw.Costs.trap_restore;
      match Hw.Descriptor.resolve t.mem t.regs.Hw.Registers.dbr conditions_base with
      | Error _ -> invalid_arg "Machine.restore_saved: conditions unreachable"
      | Ok (_, abs) ->
          let words =
            Array.init Hw.Conditions.words (fun i ->
                Hw.Memory.read_silent t.mem (abs + i))
          in
          ignore (Hw.Conditions.load t.regs words);
          t.saved <- None)
  | None -> (
      match t.saved with
      | None -> invalid_arg "Machine.restore_saved: no saved state"
      | Some { regs; _ } ->
          Trace.Counters.charge t.counters Hw.Costs.trap_restore;
          Hw.Registers.restore t.regs ~from:regs;
          t.saved <- None)

(* {1 Between-instruction events}

   The interval timer, the channel countdown, the arena's cycle ceiling
   and the fault injector all act between instructions.  The CPU tests
   one deadline per retired instruction: [ticks] counts the boundaries
   the countdowns have seen (uninhibited, undisrupted steps), and
   [next_event] is the tick at which the chain must next run — never
   while nothing is armed, every tick while the injector or the cycle
   ceiling (both polled against the cycle count) is attached.  The
   countdowns are stored as the tick they fall due, so an armed timer
   costs nothing per step; the option-valued accessors recompute the
   remaining count, which is what snapshots and callers see. *)

let rearm t =
  t.next_event <-
    (if t.injector <> None || t.limit_at <> no_event then min_int
     else min t.timer_at t.io_at)

let attach_injector t inj =
  t.injector <- Some inj;
  rearm t

(* [Some n] fires at the [max 1 n]-th tick from now: the remaining
   count at rest is [timer_at - ticks]. *)
let timer t =
  if t.timer_at = no_event then None else Some (t.timer_at - t.ticks)

let set_timer t v =
  t.timer_at <- (match v with None -> no_event | Some n -> t.ticks + n);
  rearm t

(* A countdown of [n] completes at the [max 1 (n - 1)]-th tick — the
   tick that brings it to 1 — so it is stored as that tick. *)
let io_countdown t =
  if t.io_at = no_event then None else Some (t.io_at + 1 - t.ticks)

let set_io_countdown t v =
  (t.io_at <-
     match v with
     | None -> no_event
     | Some n when n >= 1 -> t.ticks + n - 1
     | Some n ->
         invalid_arg (Printf.sprintf "Machine.set_io_countdown: %d < 1" n));
  rearm t

let cycle_limit t = if t.limit_at = no_event then None else Some t.limit_at

let set_cycle_limit t v =
  t.limit_at <- Option.value v ~default:no_event;
  rearm t

(* {1 Fault injection} *)

(* Graceful degradation after coherence damage: flush and disable the
   host-side performance caches and run uncached from here on.  The
   modeled associative memory ([sdw_tags]) is untouched — its hit/miss
   pattern is part of the cycle accounting and must not change — and
   [sdw_watch] stays armed so the tags' host decodes keep healing on
   descriptor writes. *)
let degrade t =
  if not t.degraded then begin
    t.degraded <- true;
    Trace.Counters.bump t.counters Degraded;
    Hw.Assoc.clear t.sdw_cache;
    Hw.Assoc.clear t.ptw_tlb;
    Hw.Assoc.clear t.icache;
    Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
    Array.fill t.resolve_slots 0 resolve_cache_slots (-1);
    Hashtbl.reset t.fetch_watch;
    Hashtbl.reset t.ptw_watch;
    t.fetch_gen <- t.fetch_gen + 1;
    t.resident_bases <- []
  end

(* Checkpoint boundary.  Flush every host-side memoization layer and
   demote every modeled SDW tag to the absent sentinel — keys survive,
   because the tag-store population drives modeled accounting (the
   wholesale flush in [tag_insert], and the hit-vs-walk split in
   [fetch_sdw]).  The live run calls this at every checkpoint it
   writes, and [restore] rebuilds exactly this state in a fresh
   machine, so both continue from identical cold host caches and the
   counters they export stay byte-identical.  Unlike [degrade] the
   caches come back: the next references refill them. *)
let quiesce t =
  Hw.Assoc.clear t.sdw_cache;
  Hw.Assoc.clear t.ptw_tlb;
  Hw.Assoc.clear t.icache;
  Array.fill t.fetch_slots 0 fetch_cache_slots (-1);
  Array.fill t.resolve_slots 0 resolve_cache_slots (-1);
  Hashtbl.reset t.fetch_watch;
  Hashtbl.reset t.ptw_watch;
  t.fetch_gen <- t.fetch_gen + 1;
  t.resident_bases <- [];
  t.sdw_cache_base <- -1;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.sdw_tags [] in
  List.iter (fun k -> Hashtbl.replace t.sdw_tags k Hw.Sdw.absent) keys

(* Called by the CPU between instructions (never under [inhibit]).
   Corruption has already been applied by [Inject.poll] through the
   silent-write path, so the write observer has kept the host caches
   coherent with the damaged word; what comes back here is the fault
   the processor's checking hardware would raise.  I/O events only
   arm state that the completion path consumes. *)
let poll_injection t =
  match t.injector with
  | None -> None
  | Some inj -> (
      match
        Hw.Inject.poll inj ~mem:t.mem
          ~cycles:(Trace.Counters.cycles t.counters)
      with
      | None -> None
      | Some ev -> (
          Trace.Counters.bump t.counters Injected;
          match ev with
          | Hw.Inject.Deliver_parity { addr; transient = _ } ->
              Some (Rings.Fault.Parity_error { addr })
          | Hw.Inject.Fail_next_io ->
              t.io_fail_pending <- true;
              None
          | Hw.Inject.Stall_io n ->
              (match io_countdown t with
              | Some k -> set_io_countdown t (Some (k + n))
              | None -> ());
              None))
