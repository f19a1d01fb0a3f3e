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

(* {1 Writer primitives} *)

(* Big-endian 8 bytes of the two's-complement value — what the old
   byte-at-a-time loop produced, via the runtime's fast path. *)
let w_int b n = Buffer.add_int64_be b (Int64.of_int n)

let w_bool b v = w_int b (if v then 1 else 0)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_opt f b = function
  | None -> w_int b 0
  | Some v ->
      w_int b 1;
      f b v

let w_list f b xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_int_array b a =
  w_int b (Array.length a);
  Array.iter (w_int b) a

let w_pair f g b (x, y) =
  f b x;
  g b y

(* {1 Reader primitives} *)

type reader = { data : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.data then raise (Fail Truncated)

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt (Printf.sprintf "bad boolean %d" n)

let r_str r =
  let n = r_int r in
  if n < 0 then corrupt "negative string length";
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_opt f r =
  match r_int r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt (Printf.sprintf "bad option tag %d" n)

(* Explicit recursion: List.init's application order is unspecified,
   and the reader is stateful. *)
let r_list f r =
  let n = r_int r in
  if n < 0 then corrupt "negative list length";
  let rec go i acc = if i = 0 then List.rev acc else go (i - 1) (f r :: acc) in
  go n []

let r_int_array r = Array.of_list (r_list r_int r)

let r_pair f g r =
  let x = f r in
  let y = g r in
  (x, y)

(* A constructor that validates (Ring.v, Addr.v, ...) turns a decoded
   out-of-range value into a typed [Corrupt]. *)
let guard what f = try f () with Invalid_argument m -> corrupt (what ^ ": " ^ m)

(* {1 Domain codecs} *)

let w_ring b ring = w_int b (Rings.Ring.to_int ring)

let r_ring r =
  let n = r_int r in
  guard "ring" (fun () -> Rings.Ring.v n)

let w_addr b (a : Hw.Addr.t) =
  w_int b a.Hw.Addr.segno;
  w_int b a.Hw.Addr.wordno

let r_addr r =
  let segno = r_int r in
  let wordno = r_int r in
  guard "address" (fun () -> Hw.Addr.v ~segno ~wordno)

let w_ptr b (p : Hw.Registers.ptr) =
  w_ring b p.Hw.Registers.ring;
  w_addr b p.Hw.Registers.addr

let r_ptr r =
  let ring = r_ring r in
  let addr = r_addr r in
  { Hw.Registers.ring; addr }

let w_dbr b (d : Hw.Registers.dbr) =
  w_int b d.Hw.Registers.base;
  w_int b d.Hw.Registers.bound;
  w_int b d.Hw.Registers.stack_base

let r_dbr r =
  let base = r_int r in
  let bound = r_int r in
  let stack_base = r_int r in
  { Hw.Registers.base; bound; stack_base }

let w_regs b (g : Hw.Registers.t) =
  w_dbr b g.Hw.Registers.dbr;
  w_ptr b g.Hw.Registers.ipr;
  w_int b (Array.length g.Hw.Registers.prs);
  Array.iter (w_ptr b) g.Hw.Registers.prs;
  w_int b g.Hw.Registers.a;
  w_int b g.Hw.Registers.q;
  w_int_array b g.Hw.Registers.xs;
  w_bool b g.Hw.Registers.ind_zero;
  w_bool b g.Hw.Registers.ind_negative

let r_regs r =
  let dbr = r_dbr r in
  let ipr = r_ptr r in
  let nprs = r_int r in
  if nprs <> Hw.Registers.pr_count then corrupt "wrong pointer-register count";
  let prs = Array.make nprs ipr in
  for i = 0 to nprs - 1 do
    prs.(i) <- r_ptr r
  done;
  let a = r_int r in
  let q = r_int r in
  let xs = r_int_array r in
  if Array.length xs <> Hw.Registers.pr_count then
    corrupt "wrong index-register count";
  let ind_zero = r_bool r in
  let ind_negative = r_bool r in
  { Hw.Registers.dbr; ipr; prs; a; q; xs; ind_zero; ind_negative }

let w_fault b (f : Rings.Fault.t) =
  w_int b (Rings.Fault.code f);
  match f with
  | Rings.Fault.No_read_permission | No_write_permission | No_execute_permission
  | Divide_by_zero | Timer_runout | Io_completion | Io_error ->
      ()
  | Read_bracket_violation { effective; top }
  | Write_bracket_violation { effective; top }
  | Outside_gate_extension { effective; top } ->
      w_ring b effective;
      w_ring b top
  | Execute_bracket_violation { ring; bottom; top } ->
      w_ring b ring;
      w_ring b bottom;
      w_ring b top
  | Gate_violation { wordno; gates } ->
      w_int b wordno;
      w_int b gates
  | Upward_call { from_ring; to_ring; segno; wordno } ->
      w_ring b from_ring;
      w_ring b to_ring;
      w_int b segno;
      w_int b wordno
  | Effective_ring_raised { exec; effective }
  | Transfer_ring_change { exec; effective } ->
      w_ring b exec;
      w_ring b effective
  | Downward_return { from_ring; to_ring } ->
      w_ring b from_ring;
      w_ring b to_ring
  | Privileged_instruction { ring } | Halt_in_slave_ring { ring } ->
      w_ring b ring
  | Missing_segment { segno } -> w_int b segno
  | Missing_page { segno; pageno } ->
      w_int b segno;
      w_int b pageno
  | Bound_violation { segno; wordno; bound } ->
      w_int b segno;
      w_int b wordno;
      w_int b bound
  | Illegal_opcode { word } -> w_int b word
  | Cross_ring_transfer { segno; wordno } ->
      w_int b segno;
      w_int b wordno
  | Service_call { code } -> w_int b code
  | Parity_error { addr } -> w_int b addr
  | Watchdog_timeout { budget } -> w_int b budget
  | Quota_exhausted { resource; limit } ->
      w_str b resource;
      w_int b limit
  | Cap_load_violation { effective } | Cap_store_violation { effective } ->
      w_ring b effective
  | Cap_exec_violation { ring } -> w_ring b ring
  | Cap_seal_violation { wordno; gates } ->
      w_int b wordno;
      w_int b gates
  | Cap_attenuation_violation { effective; limit } ->
      w_ring b effective;
      w_ring b limit
  | Cap_tag_violation { addr; segno } ->
      w_int b addr;
      w_int b segno

let r_fault r : Rings.Fault.t =
  match r_int r with
  | 0 -> No_read_permission
  | 1 -> No_write_permission
  | 2 -> No_execute_permission
  | 3 ->
      let effective = r_ring r in
      let top = r_ring r in
      Read_bracket_violation { effective; top }
  | 4 ->
      let effective = r_ring r in
      let top = r_ring r in
      Write_bracket_violation { effective; top }
  | 5 ->
      let ring = r_ring r in
      let bottom = r_ring r in
      let top = r_ring r in
      Execute_bracket_violation { ring; bottom; top }
  | 6 ->
      let wordno = r_int r in
      let gates = r_int r in
      Gate_violation { wordno; gates }
  | 7 ->
      let effective = r_ring r in
      let top = r_ring r in
      Outside_gate_extension { effective; top }
  | 8 ->
      let from_ring = r_ring r in
      let to_ring = r_ring r in
      let segno = r_int r in
      let wordno = r_int r in
      Upward_call { from_ring; to_ring; segno; wordno }
  | 9 ->
      let exec = r_ring r in
      let effective = r_ring r in
      Effective_ring_raised { exec; effective }
  | 10 ->
      let from_ring = r_ring r in
      let to_ring = r_ring r in
      Downward_return { from_ring; to_ring }
  | 11 ->
      let exec = r_ring r in
      let effective = r_ring r in
      Transfer_ring_change { exec; effective }
  | 12 -> Privileged_instruction { ring = r_ring r }
  | 13 -> Missing_segment { segno = r_int r }
  | 14 ->
      let segno = r_int r in
      let pageno = r_int r in
      Missing_page { segno; pageno }
  | 15 ->
      let segno = r_int r in
      let wordno = r_int r in
      let bound = r_int r in
      Bound_violation { segno; wordno; bound }
  | 16 -> Illegal_opcode { word = r_int r }
  | 17 ->
      let segno = r_int r in
      let wordno = r_int r in
      Cross_ring_transfer { segno; wordno }
  | 18 -> Halt_in_slave_ring { ring = r_ring r }
  | 19 -> Divide_by_zero
  | 20 -> Service_call { code = r_int r }
  | 21 -> Timer_runout
  | 22 -> Io_completion
  | 23 -> Parity_error { addr = r_int r }
  | 24 -> Io_error
  | 25 -> Watchdog_timeout { budget = r_int r }
  | 26 ->
      let resource = r_str r in
      let limit = r_int r in
      Quota_exhausted { resource; limit }
  | 27 -> Cap_load_violation { effective = r_ring r }
  | 28 -> Cap_store_violation { effective = r_ring r }
  | 29 -> Cap_exec_violation { ring = r_ring r }
  | 30 ->
      let wordno = r_int r in
      let gates = r_int r in
      Cap_seal_violation { wordno; gates }
  | 31 ->
      let effective = r_ring r in
      let limit = r_ring r in
      Cap_attenuation_violation { effective; limit }
  | 32 ->
      let addr = r_int r in
      let segno = r_int r in
      Cap_tag_violation { addr; segno }
  | n -> corrupt (Printf.sprintf "bad fault code %d" n)

let w_exit b (e : Kernel.exit) =
  match e with
  | Kernel.Halted -> w_int b 0
  | Kernel.Exited -> w_int b 1
  | Kernel.Preempted -> w_int b 2
  | Kernel.Blocked -> w_int b 3
  | Kernel.Terminated f ->
      w_int b 4;
      w_fault b f
  | Kernel.Gatekeeper_error msg ->
      w_int b 5;
      w_str b msg
  | Kernel.Out_of_budget -> w_int b 6
  | Kernel.Quarantined f ->
      w_int b 7;
      w_fault b f

let r_exit r : Kernel.exit =
  match r_int r with
  | 0 -> Kernel.Halted
  | 1 -> Kernel.Exited
  | 2 -> Kernel.Preempted
  | 3 -> Kernel.Blocked
  | 4 -> Kernel.Terminated (r_fault r)
  | 5 -> Kernel.Gatekeeper_error (r_str r)
  | 6 -> Kernel.Out_of_budget
  | 7 -> Kernel.Quarantined (r_fault r)
  | n -> corrupt (Printf.sprintf "bad exit tag %d" n)

let w_access b (a : Rings.Access.t) =
  w_bool b a.Rings.Access.read;
  w_bool b a.Rings.Access.write;
  w_bool b a.Rings.Access.execute;
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r1);
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r2);
  w_int b (Rings.Ring.to_int a.Rings.Access.brackets.Rings.Brackets.r3);
  w_int b a.Rings.Access.gates

let r_access r : Rings.Access.t =
  let read = r_bool r in
  let write = r_bool r in
  let execute = r_bool r in
  let r1 = r_int r in
  let r2 = r_int r in
  let r3 = r_int r in
  let brackets = guard "brackets" (fun () -> Rings.Brackets.of_ints r1 r2 r3) in
  let gates = r_int r in
  if gates < 0 then corrupt "negative gate count";
  { Rings.Access.read; write; execute; brackets; gates }

let w_io_request b (q : Isa.Machine.io_request) =
  w_addr b q.Isa.Machine.ccw;
  w_addr b q.Isa.Machine.buffer;
  w_int b (match q.Isa.Machine.direction with `Read -> 0 | `Write -> 1);
  w_int b q.Isa.Machine.count

let r_io_request r : Isa.Machine.io_request =
  let ccw = r_addr r in
  let buffer = r_addr r in
  let direction =
    match r_int r with
    | 0 -> `Read
    | 1 -> `Write
    | n -> corrupt (Printf.sprintf "bad I/O direction %d" n)
  in
  let count = r_int r in
  { Isa.Machine.ccw; buffer; direction; count }

let crossing_tag = function
  | Trace.Event.Same_ring -> 0
  | Trace.Event.Downward -> 1
  | Trace.Event.Upward -> 2
  | Trace.Event.Recovery -> 3

let tag_crossing = function
  | 0 -> Trace.Event.Same_ring
  | 1 -> Trace.Event.Downward
  | 2 -> Trace.Event.Upward
  | 3 -> Trace.Event.Recovery
  | n -> corrupt (Printf.sprintf "bad crossing tag %d" n)

let w_event b (e : Trace.Event.t) =
  match e with
  | Trace.Event.Instruction { ring; segno; wordno; text } ->
      w_int b 0;
      w_int b ring;
      w_int b segno;
      w_int b wordno;
      w_str b text
  | Trace.Event.Call { crossing; from_ring; to_ring; segno; wordno } ->
      w_int b 1;
      w_int b (crossing_tag crossing);
      w_int b from_ring;
      w_int b to_ring;
      w_int b segno;
      w_int b wordno
  | Trace.Event.Return { crossing; from_ring; to_ring; segno; wordno } ->
      w_int b 2;
      w_int b (crossing_tag crossing);
      w_int b from_ring;
      w_int b to_ring;
      w_int b segno;
      w_int b wordno
  | Trace.Event.Trap { ring; cause } ->
      w_int b 3;
      w_int b ring;
      w_str b cause
  | Trace.Event.Gatekeeper { action } ->
      w_int b 4;
      w_str b action
  | Trace.Event.Descriptor_switch { from_ring; to_ring } ->
      w_int b 5;
      w_int b from_ring;
      w_int b to_ring
  | Trace.Event.Note s ->
      w_int b 6;
      w_str b s

let r_event r : Trace.Event.t =
  match r_int r with
  | 0 ->
      let ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      let text = r_str r in
      Trace.Event.Instruction { ring; segno; wordno; text }
  | 1 ->
      let crossing = tag_crossing (r_int r) in
      let from_ring = r_int r in
      let to_ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      Trace.Event.Call { crossing; from_ring; to_ring; segno; wordno }
  | 2 ->
      let crossing = tag_crossing (r_int r) in
      let from_ring = r_int r in
      let to_ring = r_int r in
      let segno = r_int r in
      let wordno = r_int r in
      Trace.Event.Return { crossing; from_ring; to_ring; segno; wordno }
  | 3 ->
      let ring = r_int r in
      let cause = r_str r in
      Trace.Event.Trap { ring; cause }
  | 4 -> Trace.Event.Gatekeeper { action = r_str r }
  | 5 ->
      let from_ring = r_int r in
      let to_ring = r_int r in
      Trace.Event.Descriptor_switch { from_ring; to_ring }
  | 6 -> Trace.Event.Note (r_str r)
  | n -> corrupt (Printf.sprintf "bad event tag %d" n)

let w_stamped b (s : Trace.Event.stamped) =
  w_int b s.Trace.Event.seq;
  w_int b s.Trace.Event.cycles;
  w_event b s.Trace.Event.event

let r_stamped r : Trace.Event.stamped =
  let seq = r_int r in
  let cycles = r_int r in
  let event = r_event r in
  { Trace.Event.seq; cycles; event }

let w_open_span b (o : Trace.Span.open_span) =
  w_int b (crossing_tag o.Trace.Span.o_kind);
  w_int b o.Trace.Span.o_from_ring;
  w_int b o.Trace.Span.o_to_ring;
  w_int b o.Trace.Span.o_segno;
  w_int b o.Trace.Span.o_wordno;
  w_int b o.Trace.Span.o_start;
  w_int b o.Trace.Span.o_depth;
  w_int b o.Trace.Span.o_seq

let r_open_span r : Trace.Span.open_span =
  let o_kind = tag_crossing (r_int r) in
  let o_from_ring = r_int r in
  let o_to_ring = r_int r in
  let o_segno = r_int r in
  let o_wordno = r_int r in
  let o_start = r_int r in
  let o_depth = r_int r in
  let o_seq = r_int r in
  {
    Trace.Span.o_kind;
    o_from_ring;
    o_to_ring;
    o_segno;
    o_wordno;
    o_start;
    o_depth;
    o_seq;
  }

let w_completed b (c : Trace.Span.completed) =
  w_int b (crossing_tag c.Trace.Span.kind);
  w_int b c.Trace.Span.from_ring;
  w_int b c.Trace.Span.to_ring;
  w_int b c.Trace.Span.segno;
  w_int b c.Trace.Span.wordno;
  w_int b c.Trace.Span.start_cycles;
  w_int b c.Trace.Span.end_cycles;
  w_int b c.Trace.Span.depth;
  w_int b c.Trace.Span.seq;
  w_bool b c.Trace.Span.forced

let r_completed r : Trace.Span.completed =
  let kind = tag_crossing (r_int r) in
  let from_ring = r_int r in
  let to_ring = r_int r in
  let segno = r_int r in
  let wordno = r_int r in
  let start_cycles = r_int r in
  let end_cycles = r_int r in
  let depth = r_int r in
  let seq = r_int r in
  let forced = r_bool r in
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
  }

let w_hist b (buckets, count, sum, vmin, vmax) =
  w_int_array b buckets;
  w_int b count;
  w_int b sum;
  w_int b vmin;
  w_int b vmax

let r_hist r =
  let buckets = r_int_array r in
  let count = r_int r in
  let sum = r_int r in
  let vmin = r_int r in
  let vmax = r_int r in
  (buckets, count, sum, vmin, vmax)

let w_placement b (p : Process.placement) =
  match p with
  | Process.Direct { base; bound } ->
      w_int b 0;
      w_int b base;
      w_int b bound
  | Process.Paged_at { pt_base; bound } ->
      w_int b 1;
      w_int b pt_base;
      w_int b bound

let r_placement r : Process.placement =
  match r_int r with
  | 0 ->
      let base = r_int r in
      let bound = r_int r in
      Process.Direct { base; bound }
  | 1 ->
      let pt_base = r_int r in
      let bound = r_int r in
      Process.Paged_at { pt_base; bound }
  | n -> corrupt (Printf.sprintf "bad placement tag %d" n)

let w_loaded b (l : Process.loaded) =
  w_str b l.Process.name;
  w_int b l.Process.segno;
  w_int b l.Process.base;
  w_int b l.Process.bound;
  w_access b l.Process.access;
  w_list (w_pair w_str w_int) b l.Process.symbols

let r_loaded r : Process.loaded =
  let name = r_str r in
  let segno = r_int r in
  let base = r_int r in
  let bound = r_int r in
  let access = r_access r in
  let symbols = r_list (r_pair r_str r_int) r in
  { Process.name; segno; base; bound; access; symbols }

let w_crossing b (c : Process.crossing) =
  w_int b
    (match c.Process.kind with Process.Inward -> 0 | Process.Outward -> 1);
  w_regs b c.Process.saved;
  w_ring b c.Process.caller_ring;
  w_ring b c.Process.callee_ring;
  w_list (w_pair w_addr w_addr) b c.Process.copy_back

let r_crossing r : Process.crossing =
  let kind =
    match r_int r with
    | 0 -> Process.Inward
    | 1 -> Process.Outward
    | n -> corrupt (Printf.sprintf "bad crossing kind %d" n)
  in
  let saved = r_regs r in
  let caller_ring = r_ring r in
  let callee_ring = r_ring r in
  let copy_back = r_list (r_pair r_addr r_addr) r in
  { Process.kind; saved; caller_ring; callee_ring; copy_back }

let w_inject_dump b (d : Hw.Inject.dump) =
  w_int b d.Hw.Inject.dump_rng;
  w_list (w_pair w_int w_int) b d.Hw.Inject.dump_armed;
  w_list (w_pair w_int w_int) b d.Hw.Inject.dump_poison;
  w_int b d.Hw.Inject.dump_total

let r_inject_dump r : Hw.Inject.dump =
  let dump_rng = r_int r in
  let dump_armed = r_list (r_pair r_int r_int) r in
  let dump_poison = r_list (r_pair r_int r_int) r in
  let dump_total = r_int r in
  { Hw.Inject.dump_rng; dump_armed; dump_poison; dump_total }

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* {1 Capture} *)

let write_counters b (c : Trace.Counters.t) =
  w_list (w_pair w_str w_int) b
    (Trace.Counters.fields (Trace.Counters.snapshot c))

(* The machine section is written in three pieces so the incremental
   delta codec can reuse the exact writers around a different memory
   encoding: [pre] (configuration + live processor state), the sparse
   memory image, and [post] (SDW tag population + injector).  A full
   image is always pre ++ memory ++ post — [flatten] leans on that. *)
let write_machine_pre b (m : Isa.Machine.t) =
  (* Immutable configuration, serialized so restore can shape-check
     that the respawned machine was built the same way. *)
  w_int b
    (match m.Isa.Machine.mode with
    | Isa.Machine.Ring_hardware -> 0
    | Isa.Machine.Ring_software_645 -> 1
    | Isa.Machine.Ring_capability -> 2);
  w_int b
    (match m.Isa.Machine.stack_rule with
    | Rings.Stack_rule.Segno_equals_ring -> 0
    | Rings.Stack_rule.Dbr_stack_relative -> 1);
  w_bool b m.Isa.Machine.gate_on_same_ring;
  w_bool b m.Isa.Machine.use_r1_in_indirection;
  (* Live processor state. *)
  w_regs b m.Isa.Machine.regs;
  w_bool b m.Isa.Machine.halted;
  w_opt
    (fun b (s : Isa.Machine.saved_state) ->
      w_regs b s.Isa.Machine.regs;
      w_fault b s.Isa.Machine.fault)
    b m.Isa.Machine.saved;
  w_opt w_int b (Isa.Machine.timer m);
  w_opt w_int b (Isa.Machine.io_countdown m);
  w_opt w_io_request b m.Isa.Machine.io_request;
  w_bool b m.Isa.Machine.inhibit;
  w_opt
    (fun b (t : Isa.Machine.trap_config) ->
      w_addr b t.Isa.Machine.vector_base;
      w_addr b t.Isa.Machine.conditions_base)
    b m.Isa.Machine.trap_config;
  w_bool b m.Isa.Machine.degraded;
  w_bool b m.Isa.Machine.io_fail_pending

let write_memory b (mem : Hw.Memory.t) =
  (* Memory, sparsely: (address, word) pairs ascending.  A page never
     written holds only zeros (the stamp-0 invariant of {!Hw.Memory}),
     so it is skipped unread. *)
  let size = Hw.Memory.size mem in
  w_int b size;
  let words = Buffer.create 65536 in
  let count = ref 0 in
  for p = 0 to Hw.Memory.pages mem - 1 do
    if Hw.Memory.written_since mem ~epoch:0 p then begin
      let base = p * Hw.Memory.page_words in
      for a = base to min size (base + Hw.Memory.page_words) - 1 do
        let w = Hw.Memory.read_silent mem a in
        if w <> 0 then begin
          incr count;
          w_int words a;
          w_int words w
        end
      done
    end
  done;
  w_int b !count;
  Buffer.add_buffer b words

let write_machine_post b (m : Isa.Machine.t) =
  (* The modeled SDW tag-store population — keys only: quiesce demoted
     every value to the absent sentinel before we got here, and the
     population is what drives modeled accounting. *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) m.Isa.Machine.sdw_tags [] in
  w_list w_int b (List.sort compare keys);
  (* Fault injector: RNG, armed-rule positions, poison table.  The
     address ranges themselves are re-registered by the respawn. *)
  w_opt w_inject_dump b
    (Option.map Hw.Inject.dump m.Isa.Machine.injector);
  (* Capability-backend state: the validity-tag population (addresses
     only — a tag is one bit) and the sealed-return stack.  Both are
     empty in the other modes, so their cost there is two zero
     counts. *)
  w_bool b (Hw.Memory.tags_enabled m.Isa.Machine.mem);
  w_list w_int b (Hw.Memory.tagged_addrs m.Isa.Machine.mem);
  w_list
    (fun b (sr : Cap.Capability.sealed_return) ->
      w_int b sr.Cap.Capability.sr_otype;
      w_int b sr.Cap.Capability.sr_segno;
      w_int b sr.Cap.Capability.sr_wordno)
    b m.Isa.Machine.cap_stack

let write_machine b (m : Isa.Machine.t) =
  write_machine_pre b m;
  write_memory b m.Isa.Machine.mem;
  write_machine_post b m

let write_trace b (m : Isa.Machine.t) =
  w_bool b (Trace.Event.enabled m.Isa.Machine.log);
  let d = Trace.Event.dump m.Isa.Machine.log in
  w_list w_stamped b d.Trace.Event.d_entries;
  w_int b d.Trace.Event.d_next_seq;
  w_int b d.Trace.Event.d_dropped;
  w_int b d.Trace.Event.d_sampled_out;
  w_int b d.Trace.Event.d_high_water;
  w_int b d.Trace.Event.d_sample_interval;
  w_int b d.Trace.Event.d_sample_seed;
  w_int b d.Trace.Event.d_instr_interval;
  w_bool b (Trace.Span.enabled m.Isa.Machine.spans);
  let d = Trace.Span.dump m.Isa.Machine.spans in
  w_list w_open_span b d.Trace.Span.dump_stack;
  w_int b d.Trace.Span.dump_next_seq;
  w_list w_completed b d.Trace.Span.dump_completed;
  w_int b d.Trace.Span.dump_dropped;
  w_int b d.Trace.Span.dump_unmatched;
  w_int b d.Trace.Span.dump_sampled_out;
  w_int b d.Trace.Span.dump_sample_interval;
  w_int b d.Trace.Span.dump_sample_seed;
  w_int b (Array.length d.Trace.Span.dump_hists);
  Array.iter (w_hist b) d.Trace.Span.dump_hists;
  w_bool b (Trace.Profile.enabled m.Isa.Machine.profile);
  let ring_cycles, ring_instructions, segments, kernel_cycles =
    Trace.Profile.dump m.Isa.Machine.profile
  in
  w_int_array b ring_cycles;
  w_int_array b ring_instructions;
  w_list
    (fun b (segno, cycles, instructions) ->
      w_int b segno;
      w_int b cycles;
      w_int b instructions)
    b segments;
  w_int b kernel_cycles

let write_process b (p : Process.t) =
  w_str b p.Process.user;
  w_int b (Array.length p.Process.descsegs);
  Array.iter (w_dbr b) p.Process.descsegs;
  w_list (w_pair w_int w_access) b (sorted_bindings p.Process.ring_data);
  w_list (w_pair w_int w_placement) b (sorted_bindings p.Process.placement);
  w_list w_loaded b p.Process.loaded;
  w_int b p.Process.next_segno;
  w_int b p.Process.next_free;
  w_opt
    (fun b (ps : Process.paging_state) ->
      w_list w_int b ps.Process.free_frames;
      w_list
        (fun b (frame, segno, pageno) ->
          w_int b frame;
          w_int b segno;
          w_int b pageno)
        b ps.Process.resident;
      w_list (w_pair w_int w_int_array) b (sorted_bindings ps.Process.backing))
    b p.Process.paging;
  w_list w_crossing b p.Process.crossings;
  w_int b p.Process.fault_count;
  w_int b p.Process.io_attempts;
  (* A directory search path holds live closures and is not
     snapshottable; record its presence so restore can refuse. *)
  w_bool b (p.Process.search_rules <> None);
  let input, output, next_seq = Device.dump p.Process.typewriter in
  w_list w_int b input;
  w_list w_int b output;
  w_int b next_seq

let write_entry b (e : System.entry) =
  w_str b e.System.pname;
  (match e.System.status with
  | System.Ready -> w_int b 0
  | System.Blocked -> w_int b 1
  | System.Done exit ->
      w_int b 2;
      w_exit b exit);
  w_regs b e.System.saved_regs;
  let countdown, request = e.System.saved_io in
  w_opt w_int b countdown;
  w_opt w_io_request b request;
  w_int b e.System.stalled;
  write_process b e.System.process

let write_system b sys =
  w_int b (System.slices sys);
  w_list (w_pair w_str w_exit) b (System.finished_log sys);
  w_list w_str b (System.rotation sys);
  w_list write_entry b (System.entries sys)

let encode sys =
  let b = Buffer.create (1 lsl 16) in
  let m = System.machine sys in
  write_counters b m.Isa.Machine.counters;
  write_machine b m;
  write_trace b m;
  write_system b sys;
  let payload = Buffer.contents b in
  let hdr = Buffer.create header_len in
  Buffer.add_string hdr magic;
  w_int hdr version;
  w_int hdr (String.length payload);
  w_int hdr (checksum payload);
  Buffer.contents hdr ^ payload

(* The count is bumped {e before} serializing, so the image already
   carries its own capture: an uninterrupted checkpointing run and a
   run resumed from any of its images agree on [snapshots_written].
   If the capture then fails to produce an image, the bump is rolled
   back — a failed capture must not inflate the counter. *)
let with_capture_counted (c : Trace.Counters.t) f =
  let before = Trace.Counters.snapshot c in
  Trace.Counters.bump_snapshots_written c;
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

let apply_counters r (c : Trace.Counters.t) =
  let fields = r_list (r_pair r_str r_int) r in
  match Trace.Counters.of_fields fields with
  | Ok snap -> Trace.Counters.restore c snap
  | Error msg -> corrupt msg

(* Memory: write the image's pairs, zero every other word.  Words are
   only touched when they differ, so the common case is mostly reads.
   [since] is an epoch at which memory is known to have held this very
   image (0 when none is known): a page not written after it still
   holds the image's words, zeros included, so only the pages written
   since are swept for stale words.  With [since = 0] that is every
   page ever written, which the stamp-0 invariant makes exact.  With
   [mark], memory is marked as holding that image once the section has
   been applied, so the next rewind to it sweeps only what changed. *)
let apply_memory r mem ~since ~mark =
  let size = Hw.Memory.size mem in
  if r_int r <> size then shape "memory size differs";
  let count = r_int r in
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
    let a = r_int r in
    let w = r_int r in
    if a <= !prev || a >= size then corrupt "memory pairs not ascending";
    zero (!prev + 1) a;
    set a w;
    prev := a
  done;
  zero (!prev + 1) size;
  Option.iter (Hw.Memory.set_mark mem) mark

let apply_machine ?(since = 0) ?mark r (m : Isa.Machine.t) =
  let mode_tag =
    match m.Isa.Machine.mode with
    | Isa.Machine.Ring_hardware -> 0
    | Isa.Machine.Ring_software_645 -> 1
    | Isa.Machine.Ring_capability -> 2
  in
  if r_int r <> mode_tag then shape "machine mode differs";
  let rule_tag =
    match m.Isa.Machine.stack_rule with
    | Rings.Stack_rule.Segno_equals_ring -> 0
    | Rings.Stack_rule.Dbr_stack_relative -> 1
  in
  if r_int r <> rule_tag then shape "stack rule differs";
  if r_bool r <> m.Isa.Machine.gate_on_same_ring then
    shape "gate-on-same-ring ablation differs";
  if r_bool r <> m.Isa.Machine.use_r1_in_indirection then
    shape "R1-in-indirection ablation differs";
  Hw.Registers.restore m.Isa.Machine.regs ~from:(r_regs r);
  m.Isa.Machine.halted <- r_bool r;
  m.Isa.Machine.saved <-
    r_opt
      (fun r ->
        let regs = r_regs r in
        let fault = r_fault r in
        { Isa.Machine.regs; fault })
      r;
  Isa.Machine.set_timer m (r_opt r_int r);
  Isa.Machine.set_io_countdown m (r_opt r_int r);
  m.Isa.Machine.io_request <- r_opt r_io_request r;
  m.Isa.Machine.inhibit <- r_bool r;
  m.Isa.Machine.trap_config <-
    r_opt
      (fun r ->
        let vector_base = r_addr r in
        let conditions_base = r_addr r in
        { Isa.Machine.vector_base; conditions_base })
      r;
  m.Isa.Machine.degraded <- r_bool r;
  m.Isa.Machine.io_fail_pending <- r_bool r;
  let mem = m.Isa.Machine.mem in
  let size = Hw.Memory.size mem in
  apply_memory r mem ~since ~mark;
  (* SDW tag-store population: every key present, every value absent —
     exactly the state [quiesce] leaves behind. *)
  let keys = r_list r_int r in
  Hashtbl.reset m.Isa.Machine.sdw_tags;
  List.iter
    (fun k -> Hashtbl.replace m.Isa.Machine.sdw_tags k Hw.Sdw.absent)
    keys;
  (match (r_opt r_inject_dump r, m.Isa.Machine.injector) with
  | None, None -> ()
  | Some d, Some i -> (
      try Hw.Inject.restore i d
      with Invalid_argument msg -> shape msg)
  | Some _, None -> shape "image has a fault injector, this run does not"
  | None, Some _ -> shape "this run has a fault injector, the image does not");
  (* Capability state.  The tag re-application must come after the
     memory loop above: restoring a word goes through [write_silent],
     which clears its tag, so tags written earlier would be erased.
     Tags are outside the write stamps ([set_tag]/[clear_tag] stamp no
     page), so the tag store is always rewound whole, even when the
     memory rewind above swept only the pages written since a mark. *)
  if r_bool r <> Hw.Memory.tags_enabled mem then
    shape "capability tag store presence differs";
  let tagged = r_list r_int r in
  if Hw.Memory.tags_enabled mem then begin
    Hw.Memory.clear_tags mem;
    List.iter
      (fun a ->
        if a < 0 || a >= size then corrupt "tag address out of range";
        Hw.Memory.set_tag mem a)
      tagged
  end
  else if tagged <> [] then corrupt "tagged words without a tag store";
  m.Isa.Machine.cap_stack <-
    r_list
      (fun r ->
        let sr_otype = r_int r in
        let sr_segno = r_int r in
        let sr_wordno = r_int r in
        { Cap.Capability.sr_otype; sr_segno; sr_wordno })
      r

let apply_trace r (m : Isa.Machine.t) =
  Trace.Event.set_enabled m.Isa.Machine.log (r_bool r);
  let d_entries = r_list r_stamped r in
  let d_next_seq = r_int r in
  let d_dropped = r_int r in
  let d_sampled_out = r_int r in
  let d_high_water = r_int r in
  let d_sample_interval = r_int r in
  let d_sample_seed = r_int r in
  let d_instr_interval = r_int r in
  (try
     Trace.Event.restore m.Isa.Machine.log
       {
         Trace.Event.d_entries;
         d_next_seq;
         d_dropped;
         d_sampled_out;
         d_high_water;
         d_sample_interval;
         d_sample_seed;
         d_instr_interval;
       }
   with Invalid_argument msg -> corrupt msg);
  Trace.Span.set_enabled m.Isa.Machine.spans (r_bool r);
  let dump_stack = r_list r_open_span r in
  let dump_next_seq = r_int r in
  let dump_completed = r_list r_completed r in
  let dump_dropped = r_int r in
  let dump_unmatched = r_int r in
  let dump_sampled_out = r_int r in
  let dump_sample_interval = r_int r in
  let dump_sample_seed = r_int r in
  let nhists = r_int r in
  if nhists < 0 then corrupt "negative histogram count";
  let dump_hists = Array.make (max nhists 1) ([||], 0, 0, 0, 0) in
  for i = 0 to nhists - 1 do
    dump_hists.(i) <- r_hist r
  done;
  let dump_hists = Array.sub dump_hists 0 nhists in
  (try
     Trace.Span.restore m.Isa.Machine.spans
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
       }
   with Invalid_argument msg -> corrupt msg);
  Trace.Profile.set_enabled m.Isa.Machine.profile (r_bool r);
  let ring_cycles = r_int_array r in
  let ring_instructions = r_int_array r in
  let segments =
    r_list
      (fun r ->
        let segno = r_int r in
        let cycles = r_int r in
        let instructions = r_int r in
        (segno, cycles, instructions))
      r
  in
  let kernel_cycles = r_int r in
  try
    Trace.Profile.restore m.Isa.Machine.profile
      (ring_cycles, ring_instructions, segments, kernel_cycles)
  with Invalid_argument msg -> corrupt msg

let apply_process r (p : Process.t) =
  if not (String.equal (r_str r) p.Process.user) then shape "process user differs";
  let ndbr = r_int r in
  if ndbr <> Array.length p.Process.descsegs then
    shape "descriptor-segment count differs";
  for i = 0 to ndbr - 1 do
    if r_dbr r <> p.Process.descsegs.(i) then
      shape (Printf.sprintf "descriptor segment %d differs" i)
  done;
  let ring_data = r_list (r_pair r_int r_access) r in
  Hashtbl.reset p.Process.ring_data;
  List.iter (fun (k, v) -> Hashtbl.replace p.Process.ring_data k v) ring_data;
  let placement = r_list (r_pair r_int r_placement) r in
  Hashtbl.reset p.Process.placement;
  List.iter (fun (k, v) -> Hashtbl.replace p.Process.placement k v) placement;
  p.Process.loaded <- r_list r_loaded r;
  p.Process.next_segno <- r_int r;
  p.Process.next_free <- r_int r;
  (match (r_opt (fun r -> r) r, p.Process.paging) with
  | None, None -> ()
  | Some r, Some ps ->
      ps.Process.free_frames <- r_list r_int r;
      ps.Process.resident <-
        r_list
          (fun r ->
            let frame = r_int r in
            let segno = r_int r in
            let pageno = r_int r in
            (frame, segno, pageno))
          r;
      let backing = r_list (r_pair r_int r_int_array) r in
      Hashtbl.reset ps.Process.backing;
      List.iter
        (fun (segno, contents) ->
          Hashtbl.replace ps.Process.backing segno contents)
        backing
  | Some _, None -> shape "image process is demand-paged, this one is not"
  | None, Some _ -> shape "this process is demand-paged, the image's is not");
  p.Process.crossings <- r_list r_crossing r;
  p.Process.fault_count <- r_int r;
  p.Process.io_attempts <- r_int r;
  if r_bool r then corrupt "directory search rules are not snapshottable";
  let input = r_list r_int r in
  let output = r_list r_int r in
  let next_seq = r_int r in
  Device.restore p.Process.typewriter (input, output, next_seq)

let apply_entry r (e : System.entry) =
  if not (String.equal (r_str r) e.System.pname) then
    shape "process names differ";
  e.System.status <-
    (match r_int r with
    | 0 -> System.Ready
    | 1 -> System.Blocked
    | 2 -> System.Done (r_exit r)
    | n -> corrupt (Printf.sprintf "bad status tag %d" n));
  e.System.saved_regs <- r_regs r;
  let countdown = r_opt r_int r in
  let request = r_opt r_io_request r in
  e.System.saved_io <- (countdown, request);
  e.System.stalled <- r_int r;
  apply_process r e.System.process

let apply_system r sys =
  System.set_slices sys (r_int r);
  System.set_finished_log sys (r_list (r_pair r_str r_exit) r);
  let rotation = r_list r_str r in
  let known pname = List.exists (fun (e : System.entry) -> String.equal e.System.pname pname) (System.entries sys) in
  List.iter (fun pname -> if not (known pname) then shape (Printf.sprintf "rotation names unknown process %s" pname)) rotation;
  System.set_rotation sys rotation;
  let n = r_int r in
  let entries = System.entries sys in
  if n <> List.length entries then shape "process count differs";
  List.iter (apply_entry r) entries

(* Validate a sealed image's header — magic [m], version, length —
   and its payload checksum, and return a reader at the payload.  Full
   images and deltas share the header shape and differ in magic. *)
let parse_sealed m image =
  if String.length image < String.length m then raise (Fail Truncated);
  if not (String.equal (String.sub image 0 (String.length m)) m) then
    raise (Fail Bad_magic);
  if String.length image < header_len then raise (Fail Truncated);
  let hr = { data = image; pos = String.length m } in
  let v = r_int hr in
  if v <> version then raise (Fail (Bad_version { expected = version; got = v }));
  let len = r_int hr in
  let sum = r_int hr in
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

(* Trusted fast path for images this very process captured: header and
   checksum are still verified (cheap), but the re-capture self-check
   and the kernel-table audit — the two expensive restore layers that
   exist to catch on-disk damage and tampering — are skipped, and the
   [restores] counter is left exactly as the image recorded it.  This
   is the serving fleet's warm-boot: rewinding a shard's machine to
   its boot image between requests, with the restored counters
   byte-for-byte the boot counters, so per-request deltas are
   comparable across shards and runs.

   The memory rewind is proportional to what changed, not to memory:
   when the last warm boot of this memory was to this same image, only
   the pages written since that boot are swept; every non-memory
   section is still decoded in full. *)
let rewind sys image =
  let m = System.machine sys in
  let mem = m.Isa.Machine.mem in
  try
    let r = parse_header image in
    let since = Hw.Memory.mark_epoch mem image in
    let start = Hw.Memory.epoch mem in
    Isa.Machine.quiesce m;
    apply_counters r m.Isa.Machine.counters;
    apply_machine ~since ~mark:image r m;
    apply_trace r m;
    apply_system r sys;
    if r.pos <> String.length r.data then corrupt "unconsumed payload";
    Ok (List.length (Hw.Memory.pages_since mem ~epoch:start))
  with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)

let warm_boot sys image = Result.map ignore (rewind sys image)

let restore sys image =
  let m = System.machine sys in
  let applied =
    try
      let r = parse_header image in
      (* Flush whatever host state the respawn replay left behind; the
         apply below rebuilds the exact quiesced state the image was
         captured in. *)
      Isa.Machine.quiesce m;
      apply_counters r m.Isa.Machine.counters;
      apply_machine r m;
      apply_trace r m;
      apply_system r sys;
      if r.pos <> String.length r.data then corrupt "unconsumed payload";
      Ok ()
    with
    | Fail e -> Error e
    | Invalid_argument msg -> Error (Corrupt msg)
  in
  match applied with
  | Error e -> Error e
  | Ok () ->
      (* Self-check: the restored state must re-capture to the very
         bytes we just read — any state the codec forgot, or applied
         differently than it serialized, surfaces here rather than as
         a silent divergence thousands of cycles later. *)
      if not (String.equal (capture_silent sys) image) then
        Error Self_check_failed
      else begin
        Trace.Counters.bump_restores m.Isa.Machine.counters;
        (* Audit: re-derive every SDW from the kernel's authoritative
           tables and walk the crossing stacks — the same invariants
           the chaos harness checks after fault campaigns.  A
           tampered-but-well-checksummed image fails here. *)
        match Chaos.check_invariants ~campaign:0 sys with
        | [] -> Ok ()
        | problems ->
            Trace.Counters.bump_restore_audit_rejections
              m.Isa.Machine.counters;
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
             | pre_len | pre       counters + machine-pre, same writers
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

   Because pre and post come from the very writers a full capture
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

let seal_image_sum ~magic:m ~sum payload =
  let hdr = Buffer.create header_len in
  Buffer.add_string hdr m;
  w_int hdr version;
  w_int hdr (String.length payload);
  w_int hdr sum;
  Buffer.contents hdr ^ payload

let seal_image ~magic:m payload =
  seal_image_sum ~magic:m ~sum:(checksum payload) payload

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
      w_int b chain.tail_sum;
      let pre = Buffer.create 4096 in
      write_counters pre m.Isa.Machine.counters;
      write_machine_pre pre m;
      w_str b (Buffer.contents pre);
      let size = Hw.Memory.size mem in
      w_int b size;
      let pages = Hw.Memory.pages_since mem ~epoch:chain.since in
      w_int b (List.length pages);
      let pairs = Buffer.create 4096 in
      List.iter
        (fun p ->
          let base_addr = p * Hw.Memory.page_words in
          let len = min Hw.Memory.page_words (size - base_addr) in
          w_int b p;
          w_int b len;
          Buffer.clear pairs;
          let nnz = ref 0 in
          for i = 0 to len - 1 do
            let w = Hw.Memory.read_silent mem (base_addr + i) in
            if w <> 0 then begin
              incr nnz;
              w_int pairs i;
              w_int pairs w
            end
          done;
          w_int b !nnz;
          Buffer.add_buffer b pairs)
        pages;
      write_machine_post b m;
      write_trace b m;
      write_system b sys;
      let payload = Buffer.contents b in
      let sum = checksum payload in
      let image = seal_image_sum ~magic:delta_magic ~sum payload in
      Hw.Memory.clear_dirty mem;
      chain.since <- Hw.Memory.epoch mem;
      chain.tail_sum <- sum;
      chain.deltas_taken <- chain.deltas_taken + 1;
      image)

(* Skip readers: consume exactly the bytes the corresponding writers
   produced, so [flatten] can locate the memory section inside a full
   payload without a live system to apply it to. *)
let skip_counters r = ignore (r_list (r_pair r_str r_int) r)

let skip_machine_pre r =
  ignore (r_int r);
  ignore (r_int r);
  ignore (r_bool r);
  ignore (r_bool r);
  ignore (r_regs r);
  ignore (r_bool r);
  ignore
    (r_opt
       (fun r ->
         let (_ : Hw.Registers.t) = r_regs r in
         let (_ : Rings.Fault.t) = r_fault r in
         ())
       r);
  ignore (r_opt r_int r);
  ignore (r_opt r_int r);
  ignore (r_opt r_io_request r);
  ignore (r_bool r);
  ignore
    (r_opt
       (fun r ->
         let (_ : Hw.Addr.t) = r_addr r in
         let (_ : Hw.Addr.t) = r_addr r in
         ())
       r);
  ignore (r_bool r);
  ignore (r_bool r)

(* Position a reader just past a full payload's pre section, at the
   memory section, and return the memory size. *)
let memory_size r =
  skip_counters r;
  skip_machine_pre r;
  let size = r_int r in
  if size < 0 then corrupt "negative memory size";
  size

(* A byte range of one image — the pre and post sections [flatten]
   splices into its output without copying them out first. *)
type slice = { src : string; off : int; len : int }

let r_slice r n =
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
  try
    let r = parse_header base in
    let size = memory_size r in
    (* The pre section ends where the 8-byte memory size begins. *)
    let pre =
      ref { src = base; off = header_len; len = r.pos - 8 - header_len }
    in
    let count = r_int r in
    if count < 0 then corrupt "negative memory pair count";
    let base_pairs = r.pos in
    let prev = ref (-1) in
    for _ = 1 to count do
      let a = r_int r in
      let (_ : int) = r_int r in
      if a <= !prev || a >= size then corrupt "memory pairs not ascending";
      prev := a
    done;
    let post = ref (r_slice r (String.length base - r.pos)) in
    let owned = Hashtbl.create 64 in
    let prev_sum = ref (sealed_sum base) in
    List.iteri
      (fun i delta ->
        let r = parse_sealed delta_magic delta in
        let base_sum = r_int r in
        if base_sum <> !prev_sum then
          raise (Fail (if i = 0 then Stale_base else Broken_chain i));
        let pre_len = r_int r in
        if pre_len < 0 then corrupt "negative string length";
        let pre_bytes = r_slice r pre_len in
        let delta_size = r_int r in
        if delta_size <> size then
          raise
            (Fail
               (Shape_mismatch
                  (Printf.sprintf "delta %d memory size %d, base has %d" i
                     delta_size size)));
        let npages = r_int r in
        if npages < 0 then corrupt "negative page count";
        let prev_page = ref (-1) in
        for _ = 1 to npages do
          let p = r_int r in
          let len = r_int r in
          let base_addr = p * Hw.Memory.page_words in
          if p <= !prev_page then corrupt "delta pages not ascending";
          if
            base_addr < 0 || base_addr >= size
            || len <> min Hw.Memory.page_words (size - base_addr)
          then corrupt "delta page out of range";
          let nnz = r_int r in
          if nnz < 0 || nnz > len then corrupt "delta page pair count";
          (* A sparse page is the page's whole contents: it replaces
             whatever the base or an older delta held there. *)
          Hashtbl.replace owned p { delta; at = r.pos; nnz };
          let prev_off = ref (-1) in
          for _ = 1 to nnz do
            let off = r_int r in
            let w = r_int r in
            if off <= !prev_off || off >= len then
              corrupt "delta page pairs not ascending";
            if w = 0 then corrupt "zero word in sparse delta page";
            prev_off := off
          done;
          prev_page := p
        done;
        pre := pre_bytes;
        post := r_slice r (String.length delta - r.pos);
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
        w_int pairs a;
        w_int pairs w;
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
    w_int b size;
    w_int b !emitted;
    Buffer.add_buffer b pairs;
    Buffer.add_substring b !post.src !post.off !post.len;
    Ok (seal_image ~magic (Buffer.contents b))
  with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)

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
  try
    let size = memory_size (parse_header base) in
    if size <> chain.chain_mem_size then
      raise
        (Fail
           (Shape_mismatch
              (Printf.sprintf "rebase image memory size %d, chain has %d" size
                 chain.chain_mem_size)));
    chain.tail_sum <- sealed_sum base;
    chain.deltas_taken <- 0;
    Ok ()
  with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Corrupt msg)
