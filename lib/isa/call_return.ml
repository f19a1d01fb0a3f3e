let set_stack_base_pr m ~new_ring ~stack_segno =
  Hw.Registers.set_pr m.Machine.regs 0
    {
      Hw.Registers.ring = new_ring;
      addr = Hw.Addr.v ~segno:stack_segno ~wordno:0;
    }

(* Event construction is gated so the disabled path allocates
   nothing — CALL/RETURN are the crossing workloads' hot path. *)
let record_call m ~crossing ~from_ring ~to_ring =
  if Trace.Event.enabled m.Machine.log then
    Trace.Event.record_call m.Machine.log ~crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno;
  if Trace.Span.enabled m.Machine.spans then
    Trace.Span.open_span m.Machine.spans ~kind:crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno
      ~cycles:(Trace.Counters.cycles m.Machine.counters)

let record_return m ~crossing ~from_ring ~to_ring =
  if Trace.Event.enabled m.Machine.log then
    Trace.Event.record_return m.Machine.log ~crossing
      ~from_ring:(Rings.Ring.to_int from_ring)
      ~to_ring:(Rings.Ring.to_int to_ring)
      ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno;
  if Trace.Span.enabled m.Machine.spans then
    (* A same-ring return undoes a same-ring call; an upward return
       undoes a downward call.  Closing by expected kind keeps the
       intermediate upward return of the outward-return mechanism from
       ending the enclosing outward span. *)
    let expected =
      match crossing with
      | Trace.Event.Same_ring -> Trace.Event.Same_ring
      | Trace.Event.Upward | Trace.Event.Downward -> Trace.Event.Downward
      (* Recovery spans are opened and closed by the kernel's fault
         path, never by a RETURN instruction. *)
      | Trace.Event.Recovery -> Trace.Event.Recovery
    in
    Trace.Span.close_span ~kind:expected m.Machine.spans
      ~cycles:(Trace.Counters.cycles m.Machine.counters)

(* The target must lie within the segment's bound, like any
   translation; the word itself is not read. *)
let check_target sdw ~segno ~wordno =
  match Hw.Descriptor.translate sdw ~segno ~wordno with
  | Ok _ -> ()
  | Error f -> Machine.raise_fault f

let transfer_to m ~new_ring =
  m.Machine.regs.Hw.Registers.ipr <-
    {
      Hw.Registers.ring = new_ring;
      addr = Hw.Addr.v ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno;
    }

(* Hardware and capability modes.  Both take the same decision
   ({!Rings.Call.validate}) and perform the same domain switch — ring
   change, stack discipline, counters and spans.  Capability mode
   differs in mechanism only: a downward CALL unseals the target's
   entry capability (the gate word reread as a sealed entry) and seals
   the caller's continuation under the caller's domain, pushing it on
   the machine's capability stack; the matching upward RETURN unseals
   it.  The seal/unseal work is charged explicitly ([Hw.Costs.cap_seal],
   [cap_unseal]) — a handful of cycles against the 645's trap round
   trip, which is the headline of the backends bench.  Its refusals
   are the hardware's, renamed into capability vocabulary by
   {!Rings.Backend.cap_fault_of}; the upward-call fault passes through
   verbatim so the kernel's outward-call emulation engages
   unchanged. *)
let ring_call m ~cap =
  let regs = m.Machine.regs in
  let ipr = regs.Hw.Registers.ipr in
  let exec = ipr.Hw.Registers.ring in
  let segno = m.Machine.tpr_segno and wordno = m.Machine.tpr_wordno in
  let sdw = Machine.fetch_sdw_exn m ~segno in
  let same_segment = segno = ipr.Hw.Registers.addr.Hw.Addr.segno in
  match
    Rings.Call.validate ~gate_on_same_ring:m.Machine.gate_on_same_ring
      sdw.Hw.Sdw.access ~exec ~effective:m.Machine.tpr_ring ~segno ~wordno
      ~same_segment
  with
  | Error (Rings.Fault.Upward_call _ as f) ->
      Trace.Counters.bump m.Machine.counters Calls_upward;
      Machine.raise_fault f
  | Error f ->
      Machine.raise_fault (if cap then Rings.Backend.cap_fault_of f else f)
  | Ok { Rings.Call.new_ring; crossing; via_gate = _ } ->
      check_target sdw ~segno ~wordno;
      let ring_changed = not (Rings.Ring.equal new_ring exec) in
      let stack_segno =
        Rings.Stack_rule.stack_segno m.Machine.stack_rule
          ~dbr_stack_base:regs.Hw.Registers.dbr.Hw.Registers.stack_base
          ~current_stack_segno:
            (Hw.Registers.get_pr regs Hw.Registers.pr_stack).Hw.Registers.addr
              .Hw.Addr.segno
          ~ring_changed ~new_ring
      in
      set_stack_base_pr m ~new_ring ~stack_segno;
      (match crossing with
      | Rings.Call.Same_ring ->
          Trace.Counters.bump m.Machine.counters Calls_same_ring;
          record_call m ~crossing:Trace.Event.Same_ring ~from_ring:exec
            ~to_ring:new_ring
      | Rings.Call.Downward ->
          if cap then begin
            (* Unseal the entry, seal the continuation.  IPR is already
               advanced: it holds the return point. *)
            Trace.Counters.charge m.Machine.counters
              (Hw.Costs.cap_unseal + Hw.Costs.cap_seal);
            m.Machine.cap_stack <-
              Cap.Capability.seal_return ~otype:(Rings.Ring.to_int exec)
                ~segno:ipr.Hw.Registers.addr.Hw.Addr.segno
                ~wordno:ipr.Hw.Registers.addr.Hw.Addr.wordno
              :: m.Machine.cap_stack
          end;
          Trace.Counters.bump m.Machine.counters Calls_downward;
          record_call m ~crossing:Trace.Event.Downward ~from_ring:exec
            ~to_ring:new_ring);
      transfer_to m ~new_ring

let ring_retn m ~cap =
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr.Hw.Registers.ring in
  let segno = m.Machine.tpr_segno and wordno = m.Machine.tpr_wordno in
  let sdw = Machine.fetch_sdw_exn m ~segno in
  match
    Rings.Return_op.validate sdw.Hw.Sdw.access ~exec
      ~effective:m.Machine.tpr_ring
  with
  | Error f ->
      Machine.raise_fault (if cap then Rings.Backend.cap_fault_of f else f)
  | Ok { Rings.Return_op.new_ring; crossing; maximize_pr_rings } ->
      check_target sdw ~segno ~wordno;
      if maximize_pr_rings then Hw.Registers.maximize_pr_rings regs new_ring;
      (match crossing with
      | Rings.Return_op.Same_ring ->
          Trace.Counters.bump m.Machine.counters Returns_same_ring;
          record_return m ~crossing:Trace.Event.Same_ring ~from_ring:exec
            ~to_ring:new_ring
      | Rings.Return_op.Upward ->
          if cap then begin
            (* Unseal the sealed return.  The pop is lenient: the
               outward-return trampoline performs an upward RETN with
               no matching hardware CALL, so a top entry sealed under a
               different domain stays. *)
            Trace.Counters.charge m.Machine.counters Hw.Costs.cap_unseal;
            match m.Machine.cap_stack with
            | sr :: rest
              when Cap.Capability.unseal_return sr
                     ~otype:(Rings.Ring.to_int new_ring)
                   <> None ->
                m.Machine.cap_stack <- rest
            | _ -> ()
          end;
          Trace.Counters.bump m.Machine.counters Returns_upward;
          record_return m ~crossing:Trace.Event.Upward ~from_ring:exec
            ~to_ring:new_ring);
      transfer_to m ~new_ring

(* 645 mode: CALL/RETURN are plain transfers; a target that is not
   executable under the current descriptor segment faults to the
   software gatekeeper, which implements the ring switch. *)
let software_transfer m ~is_call =
  let regs = m.Machine.regs in
  let ring = regs.Hw.Registers.ipr.Hw.Registers.ring in
  let cross_ring () =
    Machine.raise_fault
      (Rings.Fault.Cross_ring_transfer
         { segno = m.Machine.tpr_segno; wordno = m.Machine.tpr_wordno })
  in
  let e =
    match Machine.resolve_tpr m with
    | e -> e
    | exception
        Machine.Fault
          (Rings.Fault.Missing_segment _ | Rings.Fault.Bound_violation _) ->
        (* In the 645 baseline a call out of the virtual memory visible
           to this ring is indistinguishable from a gate reference: the
           gatekeeper sorts it out. *)
        cross_ring ()
  in
  (match Machine.validate_fetch m e.Machine.r_sdw ~ring with
  | Ok () -> ()
  | Error _ -> cross_ring ());
  if is_call then begin
    Trace.Counters.bump m.Machine.counters Calls_same_ring;
    let stack_segno =
      (Hw.Registers.get_pr regs Hw.Registers.pr_stack).Hw.Registers.addr
        .Hw.Addr.segno
    in
    set_stack_base_pr m ~new_ring:ring ~stack_segno;
    record_call m ~crossing:Trace.Event.Same_ring ~from_ring:ring
      ~to_ring:ring
  end
  else begin
    Trace.Counters.bump m.Machine.counters Returns_same_ring;
    record_return m ~crossing:Trace.Event.Same_ring ~from_ring:ring
      ~to_ring:ring
  end;
  regs.Hw.Registers.ipr <- Machine.transfer_ptr m e ~ring

let call m =
  match m.Machine.mode with
  | Machine.Ring_hardware -> ring_call m ~cap:false
  | Machine.Ring_software_645 -> software_transfer m ~is_call:true
  | Machine.Ring_capability -> ring_call m ~cap:true

let retn m =
  match m.Machine.mode with
  | Machine.Ring_hardware -> ring_retn m ~cap:false
  | Machine.Ring_software_645 -> software_transfer m ~is_call:false
  | Machine.Ring_capability -> ring_retn m ~cap:true
