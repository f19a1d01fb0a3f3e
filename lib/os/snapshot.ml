(* A checkpoint image is a deterministic binary serialization of the
   complete machine state: anything that can influence a future
   instruction, counter, event or device transfer.  Host-side caches
   and memos are deliberately NOT serialized — [Isa.Machine.quiesce]
   flushes them at every capture, and the restore path rebuilds the
   same cold state in a fresh machine, so a resumed run and the
   uninterrupted one continue from identical footing.

   Layout:  magic "RINGSNAP" (8 bytes) | version | payload length |
   FNV-1a 64 checksum of the payload | payload.  All integers are
   8-byte big-endian (two's complement via Int64, so OCaml's 63-bit
   negatives round-trip).  The checksum covers the payload only, so a
   version bump is reported as [Bad_version], not hidden behind
   [Checksum_mismatch].  Every hashtable is dumped sorted by key and
   every list in a defined order, so capturing the same state twice
   yields byte-identical images — the property the restore self-check
   and the kill-and-resume equivalence proof both lean on. *)

type error =
  | Bad_magic
  | Bad_version of { expected : int; got : int }
  | Truncated
  | Checksum_mismatch
  | Corrupt of string
  | Shape_mismatch of string
  | Audit_rejected of string list
  | Self_check_failed
  | Stale_base
  | Broken_chain of int

let pp_error ppf = function
  | Bad_magic -> Format.fprintf ppf "not a snapshot image (bad magic)"
  | Bad_version { expected; got } ->
      Format.fprintf ppf "snapshot format version %d, this build reads %d" got
        expected
  | Truncated -> Format.fprintf ppf "snapshot image is truncated"
  | Checksum_mismatch -> Format.fprintf ppf "snapshot payload fails its checksum"
  | Corrupt msg -> Format.fprintf ppf "snapshot is corrupt: %s" msg
  | Shape_mismatch msg ->
      Format.fprintf ppf "snapshot does not match the respawned system: %s" msg
  | Audit_rejected problems ->
      Format.fprintf ppf "restore audit rejected the image (%d problem(s)):@\n%a"
        (List.length problems)
        (Format.pp_print_list ~pp_sep:Format.pp_print_newline
           Format.pp_print_string)
        problems
  | Self_check_failed ->
      Format.fprintf ppf "restored state does not re-capture to the same image"
  | Stale_base ->
      Format.fprintf ppf
        "delta does not extend the given base image (stale base)"
  | Broken_chain i ->
      Format.fprintf ppf
        "delta chain broken at link %d: delta does not extend its predecessor"
        i

exception Fail of error

let corrupt msg = raise (Fail (Corrupt msg))
let shape msg = raise (Fail (Shape_mismatch msg))

(* Run a decoder, turning its failures into the typed error. *)
let decoding f =
  try Ok (f ()) with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)

let magic = "RINGSNAP"

(* Incremental deltas carry a sibling magic: same header shape, same
   version, but the payload encodes only the pages dirtied since the
   predecessor image plus a checksummed reference to it. *)
let delta_magic = "RINGDELT"

(* v2: trace section gained the event sampler/high-water fields and the
   span sampler fields (events moved to the binary arena encoding).
   v3: trace section gained the independent instruction-stream sampling
   interval. *)
let version = 4
let header_len = 8 + 8 + 8 + 8

(* FNV-1a 64, truncated to OCaml's 63-bit int (writer and reader
   truncate identically, so nothing is lost to the comparison).  The
   hash lives in a local [Int64] ref, which the native compiler keeps
   unboxed in a register: the loop allocates nothing and costs one
   xor and one multiply per byte.  Every warm boot and every sealed
   delta checksums its whole payload, so this is on both hot paths.
   [checksum_sub] hashes a range in place: a sealed image's payload is
   checked where it lies, never copied out first. *)
let checksum_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Snapshot.checksum_sub";
  let h = ref 0xcbf29ce484222325L in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Int64.to_int !h

let checksum s = checksum_sub s ~pos:0 ~len:(String.length s)

(* {1 Codecs}

   Each type an image holds is described once, as a codec that both
   writes and reads it.  A section of live state is a codec from the
   live object to the function that applies the decoded section to it,
   shape checks included.  Reads are sequenced with [let]: the reader
   is stateful, and OCaml leaves tuple evaluation order unspecified. *)

type reader = { data : string; mutable pos : int }
type ('w, 'r) codec = { write : Buffer.t -> 'w -> unit; read : reader -> 'r }
type 'a t = ('a, 'a) codec

let need r n =
  if n < 0 || r.pos + n > String.length r.data then raise (Fail Truncated)

(* Big-endian 8 bytes of the two's-complement value. *)
let int : int t =
  {
    write = (fun b n -> Buffer.add_int64_be b (Int64.of_int n));
    read =
      (fun r ->
        need r 8;
        let v = Int64.to_int (String.get_int64_be r.data r.pos) in
        r.pos <- r.pos + 8;
        v);
  }

let map c decode encode =
  {
    write = (fun b v -> c.write b (encode v));
    read = (fun r -> decode (c.read r));
  }

let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

let string =
  {
    write =
      (fun b s ->
        int.write b (String.length s);
        Buffer.add_string b s);
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 then corrupt "negative string length";
        need r n;
        let s = String.sub r.data r.pos n in
        r.pos <- r.pos + n;
        s);
  }

(* Every element takes at least one 8-byte word, so a count the rest of
   the payload cannot hold is refused before anything is read for it. *)
let list c =
  {
    write =
      (fun b xs ->
        int.write b (List.length xs);
        List.iter (c.write b) xs);
    read =
      (fun r ->
        let n = int.read r in
        if n < 0 then corrupt "negative list length";
        if n > (String.length r.data - r.pos) / 8 then
          corrupt "list longer than the payload";
        let rec go i acc =
          if i = 0 then List.rev acc else go (i - 1) (c.read r :: acc)
        in
        go n []);
  }

let array c =
  let l = list c in
  {
    write =
      (fun b a ->
        int.write b (Array.length a);
        Array.iter (c.write b) a);
    read = (fun r -> Array.of_list (l.read r));
  }

let int_array = array int

(* Records: [record make |+ (c, get) |+ ...] lists the fields in wire
   order, each with its codec and the writer's getter; the sealed
   codec's [read] feeds the decoded fields to [make] in that order. *)
type ('w, 'f) fields =
  | Make : 'f -> ('w, 'f) fields
  | Field :
      ('w, 'r -> 'f) fields * ('a, 'r) codec * ('w -> 'a)
      -> ('w, 'f) fields

let record make = Make make
let ( |+ ) fields (c, get) = Field (fields, c, get)

let rec write_fields : type w f. (w, f) fields -> Buffer.t -> w -> unit =
 fun fields b v ->
  match fields with
  | Make _ -> ()
  | Field (prev, c, get) ->
      write_fields prev b v;
      c.write b (get v)

let rec read_fields : type w f. (w, f) fields -> reader -> f =
 fun fields r ->
  match fields with
  | Make make -> make
  | Field (prev, c, _) ->
      let k = read_fields prev r in
      let x = c.read r in
      k x

let seal fields = { write = write_fields fields; read = read_fields fields }

let pair a b =
  {
    write =
      (fun buf (x, y) ->
        a.write buf x;
        b.write buf y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let triple a b c =
  map (pair a (pair b c))
    (fun (x, (y, z)) -> (x, y, z))
    (fun (x, y, z) -> (x, (y, z)))

(* Variants: each case is its payload's codec, its constructor and its
   projection; the tag on the wire is the case's position in the list. *)
type ('w, 'r) case =
  | Case : ('b, 'c) codec * ('c -> 'r) * ('w -> 'b option) -> ('w, 'r) case

let case c inj proj = Case (c, inj, proj)
let const v = case unit (fun () -> v) (fun x -> if x = v then Some () else None)

let cases what cs =
  let table = Array.of_list cs in
  {
    write =
      (fun b v ->
        let rec go tag =
          match table.(tag) with
          | Case (c, _, proj) -> (
              match proj v with
              | Some x ->
                  int.write b tag;
                  c.write b x
              | None -> go (tag + 1))
        in
        go 0);
    read =
      (fun r ->
        let tag = int.read r in
        if tag < 0 || tag >= Array.length table then
          corrupt (Printf.sprintf "bad %s tag %d" what tag);
        match table.(tag) with Case (c, inj, _) -> inj (c.read r));
  }

let enum what vs = cases what (List.map const vs)
let bool = enum "boolean" [ false; true ]

let option c =
  let none = function None -> Some () | Some _ -> None in
  cases "option" [ case unit (fun () -> None) none; case c Option.some Fun.id ]

(* A constructor that validates (Ring.v, Addr.v, ...) turns a decoded
   out-of-range value into a typed [Corrupt]. *)
let guard what f = try f () with Invalid_argument m -> corrupt (what ^ ": " ^ m)

(* {1 Domain codecs} *)

let ring =
  map int (fun n -> guard "ring" (fun () -> Rings.Ring.v n)) Rings.Ring.to_int

let addr =
  seal
    (record (fun segno wordno ->
         guard "address" (fun () -> Hw.Addr.v ~segno ~wordno))
    |+ (int, fun (a : Hw.Addr.t) -> a.segno)
    |+ (int, fun a -> a.wordno))

let ptr =
  seal
    (record (fun ring addr -> { Hw.Registers.ring; addr })
    |+ (ring, fun (p : Hw.Registers.ptr) -> p.ring)
    |+ (addr, fun p -> p.addr))

let dbr =
  seal
    (record (fun base bound stack_base ->
         { Hw.Registers.base; bound; stack_base })
    |+ (int, fun (d : Hw.Registers.dbr) -> d.base)
    |+ (int, fun d -> d.bound)
    |+ (int, fun d -> d.stack_base))

(* Exactly [pr_count] pointer registers, and as many index registers. *)
let bank what c =
  let check a =
    if Array.length a <> Hw.Registers.pr_count then
      corrupt (Printf.sprintf "wrong %s count" what);
    a
  in
  map (array c) check Fun.id

let regs =
  seal
    (record (fun dbr ipr prs a q xs ind_zero ind_negative ->
         { Hw.Registers.dbr; ipr; prs; a; q; xs; ind_zero; ind_negative })
    |+ (dbr, fun (g : Hw.Registers.t) -> g.dbr)
    |+ (ptr, fun g -> g.ipr)
    |+ (bank "pointer-register" ptr, fun g -> g.prs)
    |+ (int, fun g -> g.a)
    |+ (int, fun g -> g.q)
    |+ (bank "index-register" int, fun g -> g.xs)
    |+ (bool, fun g -> g.ind_zero)
    |+ (bool, fun g -> g.ind_negative))

(* In {!Rings.Fault.code} order: a fault's tag on the wire is its code. *)
let fault : Rings.Fault.t t =
  let open Rings.Fault in
  cases "fault"
    [
      const No_read_permission;
      const No_write_permission;
      const No_execute_permission;
      case (pair ring ring)
        (fun (effective, top) -> Read_bracket_violation { effective; top })
        (function
          | Read_bracket_violation r -> Some (r.effective, r.top)
          | _ -> None);
      case (pair ring ring)
        (fun (effective, top) -> Write_bracket_violation { effective; top })
        (function
          | Write_bracket_violation r -> Some (r.effective, r.top)
          | _ -> None);
      case (triple ring ring ring)
        (fun (ring, bottom, top) ->
          Execute_bracket_violation { ring; bottom; top })
        (function
          | Execute_bracket_violation r -> Some (r.ring, r.bottom, r.top)
          | _ -> None);
      case (pair int int)
        (fun (wordno, gates) -> Gate_violation { wordno; gates })
        (function Gate_violation r -> Some (r.wordno, r.gates) | _ -> None);
      case (pair ring ring)
        (fun (effective, top) -> Outside_gate_extension { effective; top })
        (function
          | Outside_gate_extension r -> Some (r.effective, r.top)
          | _ -> None);
      case (pair (pair ring ring) (pair int int))
        (fun ((from_ring, to_ring), (segno, wordno)) ->
          Upward_call { from_ring; to_ring; segno; wordno })
        (function
          | Upward_call r ->
              Some ((r.from_ring, r.to_ring), (r.segno, r.wordno))
          | _ -> None);
      case (pair ring ring)
        (fun (exec, effective) -> Effective_ring_raised { exec; effective })
        (function
          | Effective_ring_raised r -> Some (r.exec, r.effective)
          | _ -> None);
      case (pair ring ring)
        (fun (from_ring, to_ring) -> Downward_return { from_ring; to_ring })
        (function
          | Downward_return r -> Some (r.from_ring, r.to_ring)
          | _ -> None);
      case (pair ring ring)
        (fun (exec, effective) -> Transfer_ring_change { exec; effective })
        (function
          | Transfer_ring_change r -> Some (r.exec, r.effective)
          | _ -> None);
      case ring (fun ring -> Privileged_instruction { ring })
        (function Privileged_instruction { ring } -> Some ring | _ -> None);
      case int (fun segno -> Missing_segment { segno })
        (function Missing_segment { segno } -> Some segno | _ -> None);
      case (pair int int)
        (fun (segno, pageno) -> Missing_page { segno; pageno })
        (function Missing_page r -> Some (r.segno, r.pageno) | _ -> None);
      case (triple int int int)
        (fun (segno, wordno, bound) -> Bound_violation { segno; wordno; bound })
        (function
          | Bound_violation r -> Some (r.segno, r.wordno, r.bound)
          | _ -> None);
      case int (fun word -> Illegal_opcode { word })
        (function Illegal_opcode { word } -> Some word | _ -> None);
      case (pair int int)
        (fun (segno, wordno) -> Cross_ring_transfer { segno; wordno })
        (function
          | Cross_ring_transfer r -> Some (r.segno, r.wordno)
          | _ -> None);
      case ring (fun ring -> Halt_in_slave_ring { ring })
        (function Halt_in_slave_ring { ring } -> Some ring | _ -> None);
      const Divide_by_zero;
      case int (fun code -> Service_call { code })
        (function Service_call { code } -> Some code | _ -> None);
      const Timer_runout;
      const Io_completion;
      case int (fun addr -> Parity_error { addr })
        (function Parity_error { addr } -> Some addr | _ -> None);
      const Io_error;
      case int (fun budget -> Watchdog_timeout { budget })
        (function Watchdog_timeout { budget } -> Some budget | _ -> None);
      case (pair string int)
        (fun (resource, limit) -> Quota_exhausted { resource; limit })
        (function Quota_exhausted r -> Some (r.resource, r.limit) | _ -> None);
      case ring (fun effective -> Cap_load_violation { effective })
        (function Cap_load_violation r -> Some r.effective | _ -> None);
      case ring (fun effective -> Cap_store_violation { effective })
        (function Cap_store_violation r -> Some r.effective | _ -> None);
      case ring (fun ring -> Cap_exec_violation { ring })
        (function Cap_exec_violation { ring } -> Some ring | _ -> None);
      case (pair int int)
        (fun (wordno, gates) -> Cap_seal_violation { wordno; gates })
        (function Cap_seal_violation r -> Some (r.wordno, r.gates) | _ -> None);
      case (pair ring ring)
        (fun (effective, limit) ->
          Cap_attenuation_violation { effective; limit })
        (function
          | Cap_attenuation_violation r -> Some (r.effective, r.limit)
          | _ -> None);
      case (pair int int)
        (fun (addr, segno) -> Cap_tag_violation { addr; segno })
        (function Cap_tag_violation r -> Some (r.addr, r.segno) | _ -> None);
    ]

let exit : Kernel.exit t =
  cases "exit"
    [
      const Kernel.Halted;
      const Kernel.Exited;
      const Kernel.Preempted;
      const Kernel.Blocked;
      case fault (fun f -> Kernel.Terminated f)
        (function Kernel.Terminated f -> Some f | _ -> None);
      case string (fun msg -> Kernel.Gatekeeper_error msg)
        (function Kernel.Gatekeeper_error msg -> Some msg | _ -> None);
      const Kernel.Out_of_budget;
      case fault (fun f -> Kernel.Quarantined f)
        (function Kernel.Quarantined f -> Some f | _ -> None);
    ]

let access =
  let bracket get =
    (int, fun (a : Rings.Access.t) -> Rings.Ring.to_int (get a.brackets))
  in
  seal
    (record (fun read write execute r1 r2 r3 gates ->
         let brackets =
           guard "brackets" (fun () -> Rings.Brackets.of_ints r1 r2 r3)
         in
         if gates < 0 then corrupt "negative gate count";
         { Rings.Access.read; write; execute; brackets; gates })
    |+ (bool, fun (a : Rings.Access.t) -> a.read)
    |+ (bool, fun a -> a.write)
    |+ (bool, fun a -> a.execute)
    |+ bracket (fun b -> b.Rings.Brackets.r1)
    |+ bracket (fun b -> b.Rings.Brackets.r2)
    |+ bracket (fun b -> b.Rings.Brackets.r3)
    |+ (int, fun a -> a.gates))

let io_request =
  seal
    (record (fun ccw buffer direction count ->
         { Isa.Machine.ccw; buffer; direction; count })
    |+ (addr, fun (q : Isa.Machine.io_request) -> q.ccw)
    |+ (addr, fun q -> q.buffer)
    |+ (enum "I/O direction" [ `Read; `Write ], fun q -> q.direction)
    |+ (int, fun q -> q.count))

let crossing_kind =
  Trace.Event.(enum "crossing" [ Same_ring; Downward; Upward; Recovery ])

(* A call's or a return's crossing kind, rings and target. *)
let transfer =
  map (pair crossing_kind (pair (pair int int) (pair int int)))
    (fun (c, ((f, t), (s, w))) -> (c, f, t, s, w))
    (fun (c, f, t, s, w) -> (c, ((f, t), (s, w))))

let event : Trace.Event.t t =
  let open Trace.Event in
  cases "event"
    [
      case
        (pair (triple int int int) string)
        (fun ((ring, segno, wordno), text) ->
          Instruction { ring; segno; wordno; text })
        (function
          | Instruction { ring; segno; wordno; text } ->
              Some ((ring, segno, wordno), text)
          | _ -> None);
      case transfer
        (fun (crossing, from_ring, to_ring, segno, wordno) ->
          Call { crossing; from_ring; to_ring; segno; wordno })
        (function
          | Call { crossing; from_ring; to_ring; segno; wordno } ->
              Some (crossing, from_ring, to_ring, segno, wordno)
          | _ -> None);
      case transfer
        (fun (crossing, from_ring, to_ring, segno, wordno) ->
          Return { crossing; from_ring; to_ring; segno; wordno })
        (function
          | Return { crossing; from_ring; to_ring; segno; wordno } ->
              Some (crossing, from_ring, to_ring, segno, wordno)
          | _ -> None);
      case (pair int string) (fun (ring, cause) -> Trap { ring; cause })
        (function Trap { ring; cause } -> Some (ring, cause) | _ -> None);
      case string (fun action -> Gatekeeper { action })
        (function Gatekeeper { action } -> Some action | _ -> None);
      case (pair int int)
        (fun (from_ring, to_ring) -> Descriptor_switch { from_ring; to_ring })
        (function
          | Descriptor_switch r -> Some (r.from_ring, r.to_ring)
          | _ -> None);
      case string (fun s -> Note s) (function Note s -> Some s | _ -> None);
    ]

let stamped =
  seal
    (record (fun seq cycles event -> { Trace.Event.seq; cycles; event })
    |+ (int, fun (s : Trace.Event.stamped) -> s.seq)
    |+ (int, fun s -> s.cycles)
    |+ (event, fun s -> s.event))

let event_dump =
  seal
    (record
       (fun d_entries d_next_seq d_dropped d_sampled_out d_high_water
            d_sample_interval d_sample_seed d_instr_interval ->
         {
           Trace.Event.d_entries;
           d_next_seq;
           d_dropped;
           d_sampled_out;
           d_high_water;
           d_sample_interval;
           d_sample_seed;
           d_instr_interval;
         })
    |+ (list stamped, fun (d : Trace.Event.dump) -> d.d_entries)
    |+ (int, fun d -> d.d_next_seq)
    |+ (int, fun d -> d.d_dropped)
    |+ (int, fun d -> d.d_sampled_out)
    |+ (int, fun d -> d.d_high_water)
    |+ (int, fun d -> d.d_sample_interval)
    |+ (int, fun d -> d.d_sample_seed)
    |+ (int, fun d -> d.d_instr_interval))

let open_span =
  seal
    (record
       (fun o_kind o_from_ring o_to_ring o_segno o_wordno o_start o_depth
            o_seq ->
         {
           Trace.Span.o_kind;
           o_from_ring;
           o_to_ring;
           o_segno;
           o_wordno;
           o_start;
           o_depth;
           o_seq;
         })
    |+ (crossing_kind, fun (o : Trace.Span.open_span) -> o.o_kind)
    |+ (int, fun o -> o.o_from_ring)
    |+ (int, fun o -> o.o_to_ring)
    |+ (int, fun o -> o.o_segno)
    |+ (int, fun o -> o.o_wordno)
    |+ (int, fun o -> o.o_start)
    |+ (int, fun o -> o.o_depth)
    |+ (int, fun o -> o.o_seq))

let completed =
  seal
    (record
       (fun kind from_ring to_ring segno wordno start_cycles end_cycles depth
            seq forced ->
         {
           Trace.Span.kind;
           from_ring;
           to_ring;
           segno;
           wordno;
           start_cycles;
           end_cycles;
           depth;
           seq;
           forced;
         })
    |+ (crossing_kind, fun (c : Trace.Span.completed) -> c.kind)
    |+ (int, fun c -> c.from_ring)
    |+ (int, fun c -> c.to_ring)
    |+ (int, fun c -> c.segno)
    |+ (int, fun c -> c.wordno)
    |+ (int, fun c -> c.start_cycles)
    |+ (int, fun c -> c.end_cycles)
    |+ (int, fun c -> c.depth)
    |+ (int, fun c -> c.seq)
    |+ (bool, fun c -> c.forced))

(* A latency histogram: buckets, count, sum, min, max. *)
let hist =
  map (pair int_array (pair (pair int int) (pair int int)))
    (fun (b, ((c, s), (lo, hi))) -> (b, c, s, lo, hi))
    (fun (b, c, s, lo, hi) -> (b, ((c, s), (lo, hi))))

let span_dump =
  seal
    (record
       (fun dump_stack dump_next_seq dump_completed dump_dropped dump_unmatched
            dump_sampled_out dump_sample_interval dump_sample_seed dump_hists ->
         {
           Trace.Span.dump_stack;
           dump_next_seq;
           dump_completed;
           dump_dropped;
           dump_unmatched;
           dump_sampled_out;
           dump_sample_interval;
           dump_sample_seed;
           dump_hists;
         })
    |+ (list open_span, fun (d : Trace.Span.dump) -> d.dump_stack)
    |+ (int, fun d -> d.dump_next_seq)
    |+ (list completed, fun d -> d.dump_completed)
    |+ (int, fun d -> d.dump_dropped)
    |+ (int, fun d -> d.dump_unmatched)
    |+ (int, fun d -> d.dump_sampled_out)
    |+ (int, fun d -> d.dump_sample_interval)
    |+ (int, fun d -> d.dump_sample_seed)
    |+ (array hist, fun d -> d.dump_hists))

(* Per-ring cycles and instructions, per-segment (segno, cycles,
   instructions), kernel cycles. *)
let profile_dump =
  map (pair (pair int_array int_array) (pair (list (triple int int int)) int))
    (fun ((rc, ri), (s, k)) -> (rc, ri, s, k))
    (fun (rc, ri, s, k) -> ((rc, ri), (s, k)))

let placement : Process.placement t =
  cases "placement"
    [
      case (pair int int) (fun (base, bound) -> Process.Direct { base; bound })
        (function Process.Direct r -> Some (r.base, r.bound) | _ -> None);
      case (pair int int)
        (fun (pt_base, bound) -> Process.Paged_at { pt_base; bound })
        (function Process.Paged_at r -> Some (r.pt_base, r.bound) | _ -> None);
    ]

let loaded =
  seal
    (record (fun name segno base bound access symbols ->
         { Process.name; segno; base; bound; access; symbols })
    |+ (string, fun (l : Process.loaded) -> l.name)
    |+ (int, fun l -> l.segno)
    |+ (int, fun l -> l.base)
    |+ (int, fun l -> l.bound)
    |+ (access, fun l -> l.access)
    |+ (list (pair string int), fun l -> l.symbols))

let crossing =
  seal
    (record (fun kind saved caller_ring callee_ring copy_back ->
         { Process.kind; saved; caller_ring; callee_ring; copy_back })
    |+ ( enum "crossing kind" [ Process.Inward; Process.Outward ],
         fun (c : Process.crossing) -> c.kind )
    |+ (regs, fun c -> c.saved)
    |+ (ring, fun c -> c.caller_ring)
    |+ (ring, fun c -> c.callee_ring)
    |+ (list (pair addr addr), fun c -> c.copy_back))

let inject_dump =
  seal
    (record (fun dump_rng dump_armed dump_poison dump_total ->
         { Hw.Inject.dump_rng; dump_armed; dump_poison; dump_total })
    |+ (int, fun (d : Hw.Inject.dump) -> d.dump_rng)
    |+ (list (pair int int), fun d -> d.dump_armed)
    |+ (list (pair int int), fun d -> d.dump_poison)
    |+ (int, fun d -> d.dump_total))

let sealed_return =
  seal
    (record (fun sr_otype sr_segno sr_wordno ->
         { Cap.Capability.sr_otype; sr_segno; sr_wordno })
    |+ (int, fun (s : Cap.Capability.sealed_return) -> s.sr_otype)
    |+ (int, fun s -> s.sr_segno)
    |+ (int, fun s -> s.sr_wordno))

let to_string c v =
  let b = Buffer.create 64 in
  c.write b v;
  Buffer.contents b

let of_string c s =
  decoding (fun () ->
      let r = { data = s; pos = 0 } in
      let v = c.read r in
      if r.pos <> String.length s then corrupt "unconsumed bytes";
      v)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let refill tbl bindings =
  Hashtbl.reset tbl;
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings

(* {1 Sections}

   A full payload is counters | machine pre | memory | machine post |
   trace | system.  A delta reuses every codec around its own memory
   encoding, which is what lets [flatten] splice pre and post. *)

let counters =
  map (list (pair string int))
    (fun l ->
      match Trace.Counters.of_fields l with
      | Ok s -> s
      | Error msg -> corrupt msg)
    Trace.Counters.fields

let mode =
  Isa.Machine.(
    enum "machine mode" [ Ring_hardware; Ring_software_645; Ring_capability ])

let stack_rule =
  Rings.Stack_rule.(enum "stack rule" [ Segno_equals_ring; Dbr_stack_relative ])

(* Configuration, serialized so restore can shape-check that the
   respawned machine was built the same way, then live processor
   state. *)
let machine_pre : (Isa.Machine.t, Isa.Machine.t -> unit) codec =
  seal
    (record
       (fun mode stack_rule gate_on_same_ring use_r1 regs halted saved timer
            io_countdown io_request inhibit trap_config degraded io_fail_pending
            (m : Isa.Machine.t) ->
         if mode <> m.mode then shape "machine mode differs";
         if stack_rule <> m.stack_rule then shape "stack rule differs";
         if gate_on_same_ring <> m.gate_on_same_ring then
           shape "gate-on-same-ring ablation differs";
         if use_r1 <> m.use_r1_in_indirection then
           shape "R1-in-indirection ablation differs";
         Hw.Registers.restore m.regs ~from:regs;
         m.halted <- halted;
         m.saved <- saved;
         Isa.Machine.set_timer m timer;
         Isa.Machine.set_io_countdown m io_countdown;
         m.io_request <- io_request;
         m.inhibit <- inhibit;
         m.trap_config <- trap_config;
         m.degraded <- degraded;
         m.io_fail_pending <- io_fail_pending)
    |+ (mode, fun (m : Isa.Machine.t) -> m.mode)
    |+ (stack_rule, fun m -> m.stack_rule)
    |+ (bool, fun m -> m.gate_on_same_ring)
    |+ (bool, fun m -> m.use_r1_in_indirection)
    |+ (regs, fun m -> m.regs)
    |+ (bool, fun m -> m.halted)
    |+ ( option
           (seal
              (record (fun regs fault -> { Isa.Machine.regs; fault })
              |+ (regs, fun (s : Isa.Machine.saved_state) -> s.regs)
              |+ (fault, fun s -> s.fault))),
         fun m -> m.saved )
    |+ (option int, Isa.Machine.timer)
    |+ (option int, Isa.Machine.io_countdown)
    |+ (option io_request, fun m -> m.io_request)
    |+ (bool, fun m -> m.inhibit)
    |+ ( option
           (seal
              (record (fun vector_base conditions_base ->
                   { Isa.Machine.vector_base; conditions_base })
              |+ (addr, fun (t : Isa.Machine.trap_config) -> t.vector_base)
              |+ (addr, fun t -> t.conditions_base))),
         fun m -> m.trap_config )
    |+ (bool, fun m -> m.degraded)
    |+ (bool, fun m -> m.io_fail_pending))

(* Append the nonzero words of [[lo, hi)] to [b] as (address - [base],
   word) pairs; return how many. *)
let write_nonzero b mem ~base ~lo ~hi =
  let n = ref 0 in
  for a = lo to hi - 1 do
    let w = Hw.Memory.read_silent mem a in
    if w <> 0 then begin
      incr n;
      int.write b (a - base);
      int.write b w
    end
  done;
  !n

(* Memory, sparsely: (address, word) pairs ascending.  A page never
   written holds only zeros (the stamp-0 invariant of {!Hw.Memory}), so
   it is skipped unread.  Memory is the one section streamed rather
   than decoded whole: it is applied pair by pair as it is read. *)
let write_memory b (mem : Hw.Memory.t) =
  let size = Hw.Memory.size mem in
  int.write b size;
  let words = Buffer.create 65536 in
  let count = ref 0 in
  for p = 0 to Hw.Memory.pages mem - 1 do
    if Hw.Memory.written_since mem ~epoch:0 p then
      let lo = p * Hw.Memory.page_words in
      let hi = min size (lo + Hw.Memory.page_words) in
      count := !count + write_nonzero words mem ~base:0 ~lo ~hi
  done;
  int.write b !count;
  Buffer.add_buffer b words

(* Write the image's pairs, zero every other word.  Words are only
   touched when they differ, so the common case is mostly reads.
   [since] is an epoch at which memory is known to have held this very
   image (0 when none is known): a page not written after it still
   holds the image's words, zeros included, so only the pages written
   since are swept for stale words.  With [since = 0] that is every
   page ever written, which the stamp-0 invariant makes exact.  With
   [mark], memory is marked as holding that image once the section has
   been applied, so the next rewind to it sweeps only what changed. *)
let apply_memory r mem ~since ~mark =
  let size = Hw.Memory.size mem in
  if int.read r <> size then shape "memory size differs";
  let count = int.read r in
  if count < 0 then corrupt "negative memory pair count";
  let set a w =
    if Hw.Memory.read_silent mem a <> w then Hw.Memory.write_silent mem a w
  in
  let pw = Hw.Memory.page_words in
  let zero lo hi =
    if lo < hi then
      for p = lo / pw to (hi - 1) / pw do
        if Hw.Memory.written_since mem ~epoch:since p then
          for z = max lo (p * pw) to min hi ((p + 1) * pw) - 1 do
            set z 0
          done
      done
  in
  let prev = ref (-1) in
  for _ = 1 to count do
    let a = int.read r in
    let w = int.read r in
    if a <= !prev || a >= size then corrupt "memory pairs not ascending";
    zero (!prev + 1) a;
    set a w;
    prev := a
  done;
  zero (!prev + 1) size;
  Option.iter (Hw.Memory.set_mark mem) mark

(* The SDW tag-store keys (quiesce left every value absent), the fault
   injector's state (the respawn re-registers its ranges), and the
   capability tags and sealed-return stack.  Applied after memory,
   whose [write_silent] clears tags; tags are outside the write stamps,
   so the tag store is always rewound whole. *)
let machine_post : (Isa.Machine.t, Isa.Machine.t -> unit) codec =
  seal
    (record
       (fun sdw_keys injector tags_enabled tagged cap_stack
            (m : Isa.Machine.t) ->
         refill m.sdw_tags (List.map (fun k -> (k, Hw.Sdw.absent)) sdw_keys);
         (match (injector, m.injector) with
         | None, None -> ()
         | Some d, Some i -> (
             try Hw.Inject.restore i d with Invalid_argument msg -> shape msg)
         | Some _, None -> shape "image has a fault injector, this run does not"
         | None, Some _ ->
             shape "this run has a fault injector, the image does not");
         let mem = m.mem in
         if tags_enabled <> Hw.Memory.tags_enabled mem then
           shape "capability tag store presence differs";
         if tags_enabled then begin
           Hw.Memory.clear_tags mem;
           List.iter
             (fun a ->
               if a < 0 || a >= Hw.Memory.size mem then
                 corrupt "tag address out of range";
               Hw.Memory.set_tag mem a)
             tagged
         end
         else if tagged <> [] then corrupt "tagged words without a tag store";
         m.cap_stack <- cap_stack)
    |+ ( list int,
         fun (m : Isa.Machine.t) ->
           Hashtbl.fold (fun k _ l -> k :: l) m.sdw_tags [] |> List.sort compare
       )
    |+ (option inject_dump, fun m -> Option.map Hw.Inject.dump m.injector)
    |+ (bool, fun m -> Hw.Memory.tags_enabled m.mem)
    |+ (list int, fun m -> Hw.Memory.tagged_addrs m.mem)
    |+ (list sealed_return, fun m -> m.cap_stack))

(* The event log, spans and profile: each its enable flag and its dump. *)
let trace : (Isa.Machine.t, Isa.Machine.t -> unit) codec =
  let restoring f = try f () with Invalid_argument msg -> corrupt msg in
  seal
    (record
       (fun log_on log spans_on spans profile_on profile (m : Isa.Machine.t) ->
         Trace.Event.set_enabled m.log log_on;
         restoring (fun () -> Trace.Event.restore m.log log);
         Trace.Span.set_enabled m.spans spans_on;
         restoring (fun () -> Trace.Span.restore m.spans spans);
         Trace.Profile.set_enabled m.profile profile_on;
         restoring (fun () -> Trace.Profile.restore m.profile profile))
    |+ (bool, fun (m : Isa.Machine.t) -> Trace.Event.enabled m.log)
    |+ (event_dump, fun m -> Trace.Event.dump m.log)
    |+ (bool, fun m -> Trace.Span.enabled m.spans)
    |+ (span_dump, fun m -> Trace.Span.dump m.spans)
    |+ (bool, fun m -> Trace.Profile.enabled m.profile)
    |+ (profile_dump, fun m -> Trace.Profile.dump m.profile))

let paging : (Process.paging_state, Process.paging_state -> unit) codec =
  seal
    (record (fun free_frames resident backing (ps : Process.paging_state) ->
         ps.free_frames <- free_frames;
         ps.resident <- resident;
         refill ps.backing backing)
    |+ (list int, fun (ps : Process.paging_state) -> ps.free_frames)
    |+ (list (triple int int int), fun ps -> ps.resident)
    |+ (list (pair int int_array), fun ps -> sorted_bindings ps.backing))

let process : (Process.t, Process.t -> unit) codec =
  seal
    (record
       (fun user descsegs ring_data placement loaded next_segno next_free paging
            crossings fault_count io_attempts search_rules typewriter
            (p : Process.t) ->
         if not (String.equal user p.user) then shape "process user differs";
         if Array.length descsegs <> Array.length p.descsegs then
           shape "descriptor-segment count differs";
         Array.iteri
           (fun i d ->
             if d <> p.descsegs.(i) then
               shape (Printf.sprintf "descriptor segment %d differs" i))
           descsegs;
         refill p.ring_data ring_data;
         refill p.placement placement;
         p.loaded <- loaded;
         p.next_segno <- next_segno;
         p.next_free <- next_free;
         (match (paging, p.paging) with
         | None, None -> ()
         | Some apply, Some ps -> apply ps
         | Some _, None ->
             shape "image process is demand-paged, this one is not"
         | None, Some _ ->
             shape "this process is demand-paged, the image's is not");
         p.crossings <- crossings;
         p.fault_count <- fault_count;
         p.io_attempts <- io_attempts;
         (* A directory search path holds live closures and is not
            snapshottable; the image records its presence so restore
            can refuse. *)
         if search_rules then
           corrupt "directory search rules are not snapshottable";
         Device.restore p.typewriter typewriter)
    |+ (string, fun (p : Process.t) -> p.user)
    |+ (array dbr, fun p -> p.descsegs)
    |+ (list (pair int access), fun p -> sorted_bindings p.ring_data)
    |+ (list (pair int placement), fun p -> sorted_bindings p.placement)
    |+ (list loaded, fun p -> p.loaded)
    |+ (int, fun p -> p.next_segno)
    |+ (int, fun p -> p.next_free)
    |+ (option paging, fun p -> p.paging)
    |+ (list crossing, fun p -> p.crossings)
    |+ (int, fun p -> p.fault_count)
    |+ (int, fun p -> p.io_attempts)
    |+ (bool, fun p -> p.search_rules <> None)
    |+ (triple (list int) (list int) int, fun p -> Device.dump p.typewriter))

let status : System.status t =
  cases "status"
    [
      const System.Ready;
      const System.Blocked;
      case exit (fun e -> System.Done e)
        (function System.Done e -> Some e | _ -> None);
    ]

let entry : (System.entry, System.entry -> unit) codec =
  seal
    (record
       (fun pname status saved_regs saved_io stalled process
            (e : System.entry) ->
         if not (String.equal pname e.pname) then shape "process names differ";
         e.status <- status;
         e.saved_regs <- saved_regs;
         e.saved_io <- saved_io;
         e.stalled <- stalled;
         process e.process)
    |+ (string, fun (e : System.entry) -> e.pname)
    |+ (status, fun e -> e.status)
    |+ (regs, fun e -> e.saved_regs)
    |+ (pair (option int) (option io_request), fun e -> e.saved_io)
    |+ (int, fun e -> e.stalled)
    |+ (process, fun e -> e.process))

let system : (System.t, System.t -> unit) codec =
  seal
    (record (fun slices finished_log rotation entries sys ->
         System.set_slices sys slices;
         System.set_finished_log sys finished_log;
         let live = System.entries sys in
         let known pname =
           List.exists
             (fun (e : System.entry) -> String.equal e.pname pname)
             live
         in
         List.iter
           (fun pname ->
             if not (known pname) then
               shape (Printf.sprintf "rotation names unknown process %s" pname))
           rotation;
         System.set_rotation sys rotation;
         if List.length entries <> List.length live then
           shape "process count differs";
         List.iter2 (fun apply e -> apply e) entries live)
    |+ (int, System.slices)
    |+ (list (pair string exit), System.finished_log)
    |+ (list string, System.rotation)
    |+ (list entry, System.entries))

let seal_image_sum ~magic:m ~sum payload =
  let hdr = Buffer.create header_len in
  Buffer.add_string hdr m;
  int.write hdr version;
  int.write hdr (String.length payload);
  int.write hdr sum;
  Buffer.contents hdr ^ payload

let seal_image ~magic:m payload =
  seal_image_sum ~magic:m ~sum:(checksum payload) payload

let encode sys =
  let b = Buffer.create (1 lsl 16) in
  let m = System.machine sys in
  counters.write b (Trace.Counters.snapshot m.counters);
  machine_pre.write b m;
  write_memory b m.mem;
  machine_post.write b m;
  trace.write b m;
  system.write b sys;
  seal_image ~magic (Buffer.contents b)

(* The count is bumped {e before} serializing, so the image already
   carries its own capture: an uninterrupted checkpointing run and a
   run resumed from any of its images agree on [snapshots_written].
   If the capture then fails to produce an image, the bump is rolled
   back — a failed capture must not inflate the counter. *)
let with_capture_counted (c : Trace.Counters.t) f =
  let before = Trace.Counters.snapshot c in
  Trace.Counters.bump c Snapshots_written;
  try f ()
  with e ->
    Trace.Counters.restore c before;
    raise e

let capture sys =
  let m = System.machine sys in
  with_capture_counted m.Isa.Machine.counters (fun () ->
      Isa.Machine.quiesce m;
      let image = encode sys in
      (* Every public capture is a capture point for the global dirty
         map.  Chains and rewind marks keep their own epochs, so this
         cannot make them miss a page. *)
      Hw.Memory.clear_dirty m.Isa.Machine.mem;
      image)

(* The restore self-check re-captures without bumping anything. *)
let capture_silent sys =
  Isa.Machine.quiesce (System.machine sys);
  encode sys

(* {1 Restore} *)

(* Apply a full payload to the live system, section by section; memory
   is rewound as {!apply_memory} describes. *)
let apply ?(since = 0) ?mark r sys =
  let m = System.machine sys in
  Trace.Counters.restore m.counters (counters.read r);
  machine_pre.read r m;
  apply_memory r m.mem ~since ~mark;
  machine_post.read r m;
  trace.read r m;
  system.read r sys;
  if r.pos <> String.length r.data then corrupt "unconsumed payload"

(* Validate a sealed image's header — magic [m], version, length —
   and its payload checksum, and return a reader at the payload.  Full
   images and deltas share the header shape and differ in magic. *)
let parse_sealed m image =
  if String.length image < String.length m then raise (Fail Truncated);
  if not (String.equal (String.sub image 0 (String.length m)) m) then
    raise (Fail Bad_magic);
  if String.length image < header_len then raise (Fail Truncated);
  let hr = { data = image; pos = String.length m } in
  let v = int.read hr in
  if v <> version then raise (Fail (Bad_version { expected = version; got = v }));
  let len = int.read hr in
  let sum = int.read hr in
  if len < 0 then corrupt "negative payload length";
  if String.length image - header_len < len then raise (Fail Truncated);
  if String.length image - header_len > len then
    corrupt "trailing bytes after payload";
  if checksum_sub image ~pos:header_len ~len <> sum then
    raise (Fail Checksum_mismatch);
  { data = image; pos = header_len }

let parse_header image = parse_sealed magic image

(* The payload checksum a sealed image carries in its header — once
   [parse_sealed] has accepted the image, the checksum of its payload
   without hashing it again. *)
let sealed_sum image = Int64.to_int (String.get_int64_be image (header_len - 8))

(* Trusted fast path for images this very process captured (the
   serving fleet's warm boot): header and checksum are verified, but
   the re-capture self-check and the kernel-table audit are skipped and
   [restores] is left as the image recorded it, so per-request counter
   deltas compare across shards and runs.  When the last warm boot of
   this memory was to this same image, only the pages written since are
   swept; every non-memory section is decoded in full. *)
let rewind sys image =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  decoding (fun () ->
      let r = parse_header image in
      let since = Hw.Memory.mark_epoch mem image in
      let start = Hw.Memory.epoch mem in
      Isa.Machine.quiesce m;
      apply ~since ~mark:image r sys;
      List.length (Hw.Memory.pages_since mem ~epoch:start))

let warm_boot sys image = Result.map ignore (rewind sys image)

let restore sys image =
  let m = System.machine sys in
  let ( let* ) = Result.bind in
  let* () =
    decoding (fun () ->
        let r = parse_header image in
        (* Flush whatever host state the respawn replay left behind; the
           apply below rebuilds the exact quiesced state the image was
           captured in. *)
        Isa.Machine.quiesce m;
        apply r sys)
  in
  (* Self-check: the restored state must re-capture to the very bytes we
     just read — any state the codec forgot, or applied differently than
     it serialized, surfaces here rather than as a silent divergence
     thousands of cycles later. *)
  if not (String.equal (capture_silent sys) image) then Error Self_check_failed
  else begin
    Trace.Counters.bump m.Isa.Machine.counters Restores;
    (* Audit: re-derive every SDW from the kernel's authoritative tables
       and walk the crossing stacks — the same invariants the chaos
       harness checks after fault campaigns.  A tampered-but-well-
       checksummed image fails here, and so does one whose tables cannot
       even be turned into an SDW. *)
    match
      try Chaos.check_invariants ~campaign:0 sys
      with Invalid_argument msg -> [ msg ]
    with
    | [] -> Ok ()
    | problems ->
        Trace.Counters.bump m.Isa.Machine.counters Restore_audit_rejections;
        Error (Audit_rejected problems)
  end

(* {1 Incremental capture}

   A delta image records only the memory pages written since its
   predecessor — the pages {!Hw.Memory} stamped after the epoch the
   chain took at that capture point, a conservative superset of the
   pages that changed — plus the complete non-memory state, which is
   small.  The epoch is the chain's own: no other capture, rewind or
   [clear_dirty] can move it, so an interloper cannot make a delta
   miss pages.  Layout:

     "RINGDELT" | version | payload length | checksum | payload
     payload = base_sum            predecessor's payload checksum
             | pre_len | pre       counters + machine pre, same codecs
             | mem_size
             | npages | (pageno | len | nnz | nnz (offset | word)
               pairs, offsets ascending, words nonzero) ascending
             | post                machine-post + trace + system

   A dirty page is serialized sparsely — only its nonzero words — and
   applied by zeroing the page before laying the pairs over it, so a
   word that went to zero since the predecessor is still restored.
   Sparseness keeps a delta proportional to live data, not to the page
   size, which is what makes checkpointing every scheduler slice
   affordable.

   Because pre and post come from the very codecs a full capture
   uses, [flatten base deltas] — base memory with the delta pages laid
   over it, re-encoded sparsely between the last delta's pre and post
   bytes — is byte-for-byte the image [capture] would have produced at
   that delta's capture point.  [base_sum] chains each image to its
   predecessor by payload checksum, so a delta applied over the wrong
   base ([Stale_base]) or a chain with a missing/reordered link
   ([Broken_chain]) is refused before any state is touched. *)

type chain = {
  mutable tail_sum : int;  (* payload checksum of the newest image *)
  mutable since : int;  (* memory epoch taken at that image's capture *)
  chain_mem_size : int;
  mutable deltas_taken : int;
}

let start_chain sys =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  let image = capture sys in
  ( {
      tail_sum = sealed_sum image;
      since = Hw.Memory.epoch mem;
      chain_mem_size = Hw.Memory.size mem;
      deltas_taken = 0;
    },
    image )

let chain_length chain = chain.deltas_taken

let capture_delta sys chain =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  with_capture_counted m.Isa.Machine.counters (fun () ->
      (* Inside the counted region: a refused delta is a failed
         capture and must leave [snapshots_written] unchanged. *)
      if Hw.Memory.size mem <> chain.chain_mem_size then
        invalid_arg "Snapshot.capture_delta: memory size changed";
      Isa.Machine.quiesce m;
      let b = Buffer.create 4096 in
      int.write b chain.tail_sum;
      let pre = Buffer.create 4096 in
      counters.write pre (Trace.Counters.snapshot m.counters);
      machine_pre.write pre m;
      string.write b (Buffer.contents pre);
      let size = Hw.Memory.size mem in
      int.write b size;
      let pages = Hw.Memory.pages_since mem ~epoch:chain.since in
      int.write b (List.length pages);
      let pairs = Buffer.create 4096 in
      List.iter
        (fun p ->
          let lo = p * Hw.Memory.page_words in
          let hi = min size (lo + Hw.Memory.page_words) in
          int.write b p;
          int.write b (hi - lo);
          Buffer.clear pairs;
          int.write b (write_nonzero pairs mem ~base:lo ~lo ~hi);
          Buffer.add_buffer b pairs)
        pages;
      machine_post.write b m;
      trace.write b m;
      system.write b sys;
      let payload = Buffer.contents b in
      let sum = checksum payload in
      let image = seal_image_sum ~magic:delta_magic ~sum payload in
      Hw.Memory.clear_dirty mem;
      chain.since <- Hw.Memory.epoch mem;
      chain.tail_sum <- sum;
      chain.deltas_taken <- chain.deltas_taken + 1;
      image)

(* Position a reader just past a full payload's pre section, at the
   memory section, and return the memory size. *)
let memory_size r =
  let (_ : Trace.Counters.snapshot) = counters.read r in
  let (_ : Isa.Machine.t -> unit) = machine_pre.read r in
  let size = int.read r in
  if size < 0 then corrupt "negative memory size";
  size

(* A byte range of one image — the pre and post sections [flatten]
   splices into its output without copying them out first. *)
type slice = { src : string; off : int; len : int }

let take_slice r n =
  need r n;
  let s = { src = r.data; off = r.pos; len = n } in
  r.pos <- r.pos + n;
  s

(* Where a dirty page's final contents lie: in the newest delta naming
   it, [nnz] (offset, word) pairs from byte [at]. *)
type page_src = { delta : string; at : int; nnz : int }

let int_at s pos = Int64.to_int (String.get_int64_be s pos)

(* The fold is a merge, never a dense copy of memory: its cost is the
   base's bytes plus the deltas' bytes, and no allocation depends on
   the memory size, so a corrupt size field cannot ask for a huge
   array.  The base's (address, word) pairs are validated where they
   lie; each delta is validated in full and records, for each page it
   carries, where the page's pairs start (a later delta replaces an
   earlier one's entry).  The re-encode walks the dirty pages in
   ascending order: base pairs below a dirty page are copied, the base
   pairs on it are skipped, and the delta's page-relative pairs are
   emitted at absolute addresses.  The output is the bytes the dense
   fold — zero the page, lay the pairs over it, re-encode every nonzero
   word — produced. *)
let flatten ~base deltas =
  decoding (fun () ->
      let r = parse_header base in
      let size = memory_size r in
      (* The pre section ends where the 8-byte memory size begins. *)
      let pre =
        ref { src = base; off = header_len; len = r.pos - 8 - header_len }
      in
      let count = int.read r in
      if count < 0 then corrupt "negative memory pair count";
      let base_pairs = r.pos in
      let prev = ref (-1) in
      for _ = 1 to count do
        let a = int.read r in
        let (_ : int) = int.read r in
        if a <= !prev || a >= size then corrupt "memory pairs not ascending";
        prev := a
      done;
      let post = ref (take_slice r (String.length base - r.pos)) in
      let owned = Hashtbl.create 64 in
      let prev_sum = ref (sealed_sum base) in
      List.iteri
        (fun i delta ->
          let r = parse_sealed delta_magic delta in
          let base_sum = int.read r in
          if base_sum <> !prev_sum then
            raise (Fail (if i = 0 then Stale_base else Broken_chain i));
          let pre_len = int.read r in
          if pre_len < 0 then corrupt "negative string length";
          let pre_bytes = take_slice r pre_len in
          let delta_size = int.read r in
          if delta_size <> size then
            shape
              (Printf.sprintf "delta %d memory size %d, base has %d" i
                 delta_size size);
          let npages = int.read r in
          if npages < 0 then corrupt "negative page count";
          let prev_page = ref (-1) in
          for _ = 1 to npages do
            let p = int.read r in
            let len = int.read r in
            let base_addr = p * Hw.Memory.page_words in
            if p <= !prev_page then corrupt "delta pages not ascending";
            if
              base_addr < 0 || base_addr >= size
              || len <> min Hw.Memory.page_words (size - base_addr)
            then corrupt "delta page out of range";
            let nnz = int.read r in
            if nnz < 0 || nnz > len then corrupt "delta page pair count";
            (* A sparse page is the page's whole contents: it replaces
               whatever the base or an older delta held there. *)
            Hashtbl.replace owned p { delta; at = r.pos; nnz };
            let prev_off = ref (-1) in
            for _ = 1 to nnz do
              let off = int.read r in
              let w = int.read r in
              if off <= !prev_off || off >= len then
                corrupt "delta page pairs not ascending";
              if w = 0 then corrupt "zero word in sparse delta page";
              prev_off := off
            done;
            prev_page := p
          done;
          pre := pre_bytes;
          post := take_slice r (String.length delta - r.pos);
          prev_sum := sealed_sum delta)
        deltas;
      (* Re-encode: pre ++ sparse memory ++ post is exactly what a full
         capture at the last delta's capture point serialized. *)
      let pairs = Buffer.create ((16 * count) + 4096) in
      let emitted = ref 0 in
      (* Every pair is re-encoded from its decoded value, as the dense
         fold did, so even a non-canonical encoding in a crafted image
         folds to the same bytes; a zero word folds to nothing. *)
      let emit a w =
        if w <> 0 then begin
          int.write pairs a;
          int.write pairs w;
          incr emitted
        end
      in
      let next = ref 0 in
      let addr_of k = int_at base (base_pairs + (16 * k)) in
      let copy_base_below limit =
        while !next < count && addr_of !next < limit do
          emit (addr_of !next) (int_at base (base_pairs + (16 * !next) + 8));
          incr next
        done
      in
      let pages =
        List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) owned [])
      in
      List.iter
        (fun p ->
          let lo = p * Hw.Memory.page_words in
          copy_base_below lo;
          while !next < count && addr_of !next < lo + Hw.Memory.page_words do
            incr next
          done;
          let { delta; at; nnz } = Hashtbl.find owned p in
          for k = 0 to nnz - 1 do
            let pair = at + (16 * k) in
            emit (lo + int_at delta pair) (int_at delta (pair + 8))
          done)
        pages;
      copy_base_below max_int;
      let b = Buffer.create (!pre.len + 16 + Buffer.length pairs + !post.len) in
      Buffer.add_substring b !pre.src !pre.off !pre.len;
      int.write b size;
      int.write b !emitted;
      Buffer.add_buffer b pairs;
      Buffer.add_substring b !post.src !post.off !post.len;
      seal_image ~magic (Buffer.contents b))

let restore_chain sys ~base deltas =
  match flatten ~base deltas with
  | Error e -> Error e
  | Ok image -> restore sys image

(* After a GC pass folds BASE ++ deltas into a new full BASE on disk,
   the live chain must link its next delta to the flattened image, not
   to the last delta it captured.  No capture happens here, so the
   chain's memory epoch is untouched — only the tail link and the
   delta count move.  The base is validated (magic, version, checksum,
   memory size) before the chain is touched, so a failed rebase leaves
   the chain usable.  Only the header and the sections before the
   memory size are read: the memory pairs themselves are the next
   [flatten]'s to validate. *)
let rebase chain ~base =
  decoding (fun () ->
      let size = memory_size (parse_header base) in
      if size <> chain.chain_mem_size then
        shape
          (Printf.sprintf "rebase image memory size %d, chain has %d" size
             chain.chain_mem_size);
      chain.tail_sum <- sealed_sum base;
      chain.deltas_taken <- 0)
