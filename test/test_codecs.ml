(* Round trip of every snapshot domain codec: decoding an encoded value
   gives the value back, and encoding that again gives the same bytes. *)

open QCheck.Gen

let ring = map Rings.Ring.v (int_range 0 7)
let small = int_range 0 100_000
let name = string_size ~gen:printable (int_range 0 12)
let addr = QCheck.get_gen Gen.addr
let access = QCheck.get_gen Gen.access

(* Every constructor, in {!Rings.Fault.code} order. *)
let fault : Rings.Fault.t QCheck.Gen.t =
  let open Rings.Fault in
  oneof
    [
      return No_read_permission;
      return No_write_permission;
      return No_execute_permission;
      map2
        (fun effective top -> Read_bracket_violation { effective; top })
        ring ring;
      map2
        (fun effective top -> Write_bracket_violation { effective; top })
        ring ring;
      map3
        (fun ring bottom top -> Execute_bracket_violation { ring; bottom; top })
        ring ring ring;
      map2 (fun wordno gates -> Gate_violation { wordno; gates }) small small;
      map2
        (fun effective top -> Outside_gate_extension { effective; top })
        ring ring;
      map4
        (fun from_ring to_ring segno wordno ->
          Upward_call { from_ring; to_ring; segno; wordno })
        ring ring small small;
      map2
        (fun exec effective -> Effective_ring_raised { exec; effective })
        ring ring;
      map2
        (fun from_ring to_ring -> Downward_return { from_ring; to_ring })
        ring ring;
      map2
        (fun exec effective -> Transfer_ring_change { exec; effective })
        ring ring;
      map (fun ring -> Privileged_instruction { ring }) ring;
      map (fun segno -> Missing_segment { segno }) small;
      map2 (fun segno pageno -> Missing_page { segno; pageno }) small small;
      map3
        (fun segno wordno bound -> Bound_violation { segno; wordno; bound })
        small small small;
      map (fun word -> Illegal_opcode { word }) small;
      map2
        (fun segno wordno -> Cross_ring_transfer { segno; wordno })
        small small;
      map (fun ring -> Halt_in_slave_ring { ring }) ring;
      return Divide_by_zero;
      map (fun code -> Service_call { code }) small;
      return Timer_runout;
      return Io_completion;
      map (fun addr -> Parity_error { addr }) small;
      return Io_error;
      map (fun budget -> Watchdog_timeout { budget }) small;
      map2
        (fun resource limit -> Quota_exhausted { resource; limit })
        name small;
      map (fun effective -> Cap_load_violation { effective }) ring;
      map (fun effective -> Cap_store_violation { effective }) ring;
      map (fun ring -> Cap_exec_violation { ring }) ring;
      map2
        (fun wordno gates -> Cap_seal_violation { wordno; gates })
        small small;
      map2
        (fun effective limit -> Cap_attenuation_violation { effective; limit })
        ring ring;
      map2 (fun addr segno -> Cap_tag_violation { addr; segno }) small small;
    ]

let exit : Os.Kernel.exit QCheck.Gen.t =
  oneof
    [
      return Os.Kernel.Halted;
      return Os.Kernel.Exited;
      return Os.Kernel.Preempted;
      return Os.Kernel.Blocked;
      map (fun f -> Os.Kernel.Terminated f) fault;
      map (fun msg -> Os.Kernel.Gatekeeper_error msg) name;
      return Os.Kernel.Out_of_budget;
      map (fun f -> Os.Kernel.Quarantined f) fault;
    ]

let kind =
  oneofl Trace.Event.[ Same_ring; Downward; Upward; Recovery ]

let event : Trace.Event.t QCheck.Gen.t =
  let open Trace.Event in
  let transfer make =
    map3
      (fun crossing (from_ring, to_ring) (segno, wordno) ->
        make crossing from_ring to_ring segno wordno)
      kind (pair small small) (pair small small)
  in
  oneof
    [
      map2
        (fun (ring, segno, wordno) text ->
          Instruction { ring; segno; wordno; text })
        (triple small small small) name;
      transfer (fun crossing from_ring to_ring segno wordno ->
          Call { crossing; from_ring; to_ring; segno; wordno });
      transfer (fun crossing from_ring to_ring segno wordno ->
          Return { crossing; from_ring; to_ring; segno; wordno });
      map2 (fun ring cause -> Trap { ring; cause }) small name;
      map (fun action -> Gatekeeper { action }) name;
      map2
        (fun from_ring to_ring -> Descriptor_switch { from_ring; to_ring })
        small small;
      map (fun s -> Note s) name;
    ]

let open_span : Trace.Span.open_span QCheck.Gen.t =
  map3
    (fun o_kind (o_from_ring, o_to_ring, o_segno)
         (o_wordno, o_start, (o_depth, o_seq)) ->
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
    kind (triple small small small) (triple small small (pair small small))

let completed : Trace.Span.completed QCheck.Gen.t =
  map4
    (fun kind (from_ring, to_ring, segno) (wordno, start_cycles, end_cycles)
         (depth, seq, forced) ->
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
    kind (triple small small small) (triple small small small)
    (triple small small bool)

let placement : Os.Process.placement QCheck.Gen.t =
  oneof
    [
      map2 (fun base bound -> Os.Process.Direct { base; bound }) small small;
      map2
        (fun pt_base bound -> Os.Process.Paged_at { pt_base; bound })
        small small;
    ]

let loaded : Os.Process.loaded QCheck.Gen.t =
  map3
    (fun (name, segno) (base, bound) (access, symbols) ->
      { Os.Process.name; segno; base; bound; access; symbols })
    (pair name small) (pair small small)
    (pair access (list_size (int_range 0 4) (pair name small)))

let ptr = map2 (fun ring addr -> { Hw.Registers.ring; addr }) ring addr

let regs : Hw.Registers.t QCheck.Gen.t =
  let bank g = array_size (return Hw.Registers.pr_count) g in
  map4
    (fun (base, bound, stack_base) (ipr, prs) (a, q, xs)
         (ind_zero, ind_negative) ->
      {
        Hw.Registers.dbr = { Hw.Registers.base; bound; stack_base };
        ipr;
        prs;
        a;
        q;
        xs;
        ind_zero;
        ind_negative;
      })
    (triple small small small) (pair ptr (bank ptr))
    (triple small small (bank small)) (pair bool bool)

let crossing : Os.Process.crossing QCheck.Gen.t =
  map4
    (fun kind saved (caller_ring, callee_ring) copy_back ->
      { Os.Process.kind; saved; caller_ring; callee_ring; copy_back })
    (oneofl [ Os.Process.Inward; Os.Process.Outward ])
    regs (pair ring ring)
    (list_size (int_range 0 3) (pair addr addr))

let round_trip name codec gen =
  QCheck.Test.make ~name:(name ^ " codec round trip") ~count:300
    (QCheck.make gen)
    (fun x ->
      let bytes = Os.Snapshot.to_string codec x in
      match Os.Snapshot.of_string codec bytes with
      | Ok y -> y = x && String.equal (Os.Snapshot.to_string codec y) bytes
      | Error e ->
          QCheck.Test.fail_reportf "decode failed: %a" Os.Snapshot.pp_error e)

(* The codec lists its cases in code order: a fault's tag on the wire is
   its {!Rings.Fault.code}, as in every image written before. *)
let fault_tag_is_code =
  QCheck.Test.make ~name:"fault tag is its code" ~count:300 (QCheck.make fault)
    (fun f ->
      let bytes = Os.Snapshot.to_string Os.Snapshot.fault f in
      Int64.to_int (String.get_int64_be bytes 0) = Rings.Fault.code f)

let suite =
  [
    ( "codecs",
      List.map QCheck_alcotest.to_alcotest
        [
          round_trip "fault" Os.Snapshot.fault fault;
          fault_tag_is_code;
          round_trip "exit" Os.Snapshot.exit exit;
          round_trip "event" Os.Snapshot.event event;
          round_trip "open span" Os.Snapshot.open_span open_span;
          round_trip "completed span" Os.Snapshot.completed completed;
          round_trip "placement" Os.Snapshot.placement placement;
          round_trip "loaded" Os.Snapshot.loaded loaded;
          round_trip "crossing" Os.Snapshot.crossing crossing;
          round_trip "registers" Os.Snapshot.regs regs;
        ] );
  ]
