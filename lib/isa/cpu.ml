type outcome = Running | Halted | Faulted of Rings.Fault.t

(* One instruction, Figs. 4–9: retrieve it (the fetch memo covers
   translation, the execute-bracket validation, the word read and the
   decode), advance IPR, form the operand address in TPR, perform.
   Faults are raised as [Machine.Fault] and caught by [step_unprofiled]
   below. *)
let cycle m =
  let regs = m.Machine.regs in
  let at = regs.Hw.Registers.ipr in
  let fetched = Machine.fetch_exn m in
  let instr = fetched.Machine.f_instr in
  Trace.Counters.bump m.Machine.counters Instructions;
  Trace.Counters.charge m.Machine.counters Hw.Costs.instruction_overhead;
  (* All event construction sits behind the enabled check, and the
     enabled path is a few unboxed stores — no disassembly, no variant:
     the text is re-decoded lazily at export from the segment image
     (Machine registers the resolver). *)
  if Trace.Event.enabled m.Machine.log then
    Trace.Event.record_instruction m.Machine.log
      ~ring:(Rings.Ring.to_int at.Hw.Registers.ring)
      ~segno:at.Hw.Registers.addr.Hw.Addr.segno
      ~wordno:at.Hw.Registers.addr.Hw.Addr.wordno;
  (* Advance IPR before executing so transfers and TSX see the address
     of the next sequential instruction. *)
  regs.Hw.Registers.ipr <- fetched.Machine.f_next;
  Exec.execute m instr (Eff_addr.form m instr)

(* Trap entry.  With a simulated supervisor configured the processor
   has transferred to its vector, and execution continues there. *)
let deliver m ~at fault =
  Machine.take_fault m ~at fault;
  if m.Machine.trap_config = None then Faulted fault else Running

(* Between instructions the saved state addresses the next one. *)
let deliver_between m fault =
  deliver m ~at:m.Machine.regs.Hw.Registers.ipr fault

(* A Recovery span opens where an injected fault is delivered; the
   kernel closes it at its recovery decision. *)
let open_recovery_span m =
  if Trace.Span.enabled m.Machine.spans then begin
    let ring = Rings.Ring.to_int (Machine.ring m) in
    let ipr = m.Machine.regs.Hw.Registers.ipr in
    Trace.Span.open_span m.Machine.spans ~kind:Trace.Event.Recovery
      ~from_ring:ring ~to_ring:ring ~segno:ipr.Hw.Registers.addr.Hw.Addr.segno
      ~wordno:ipr.Hw.Registers.addr.Hw.Addr.wordno
      ~cycles:(Trace.Counters.cycles m.Machine.counters)
  end

(* The between-instruction chain, run only when [Machine.next_event]
   falls due at the boundary about to be counted.  The injection poll
   and the cycle ceiling act before the countdowns see the boundary, so
   a fault either delivers leaves them untouched; an I/O completion
   keeps the boundary from the timer. *)
let[@inline never] between_instructions m =
  (* Injected faults are asynchronous, like the timer and channel
     completions: they fire between instructions and honour the same
     inhibit discipline (the chain never runs under inhibit, so a fault
     due during a handler waits for RTRAP). *)
  match Machine.poll_injection m with
  | Some fault ->
      open_recovery_span m;
      deliver_between m fault
  | None -> (
      match Machine.cycle_limit m with
      | Some limit when Trace.Counters.cycles m.Machine.counters >= limit ->
          (* The arena's billing ceiling derails the stream between
             instructions, so a quarantined tenant's saved state sits at
             an instruction boundary. *)
          Machine.set_cycle_limit m None;
          deliver_between m
            (Rings.Fault.Quota_exhausted { resource = "cycles"; limit })
      | _ ->
          let ticks = m.Machine.ticks + 1 in
          if ticks >= m.Machine.io_at then begin
            (* Channel I/O completes between instructions.  An injected
               channel failure surfaces at completion time: the request
               stays posted so the supervisor can retry the transfer. *)
            Machine.set_io_countdown m None;
            let fault =
              if m.Machine.io_fail_pending then begin
                m.Machine.io_fail_pending <- false;
                open_recovery_span m;
                Rings.Fault.Io_error
              end
              else Rings.Fault.Io_completion
            in
            deliver_between m fault
          end
          else begin
            m.Machine.ticks <- ticks;
            if ticks >= m.Machine.timer_at then begin
              (* The interval timer ticks once per retired instruction
                 and fires between instructions. *)
              Machine.set_timer m None;
              deliver_between m Rings.Fault.Timer_runout
            end
            else Running
          end)

let step_unprofiled m =
  if m.Machine.halted then Halted
  else
    let at = m.Machine.regs.Hw.Registers.ipr in
    match cycle m with
    | Exec.Continue ->
        (* Interrupts are inhibited between a trap and its RTRAP: the
           timer, channel completions and injected faults wait. *)
        if m.Machine.inhibit then Running
        else begin
          let ticks = m.Machine.ticks + 1 in
          if ticks >= m.Machine.next_event then between_instructions m
          else begin
            m.Machine.ticks <- ticks;
            Running
          end
        end
    | Exec.Halt ->
        m.Machine.halted <- true;
        Halted
    | exception Machine.Fault fault ->
        (* The one place a fault raised inside the cycle is caught; the
           saved state addresses the disrupted instruction. *)
        deliver m ~at fault

(* Profile attribution wraps the whole step so the cycle delta covers
   everything the instruction caused — address formation, execution,
   and any trap-entry cost — attributed to the ring and segment the
   instruction was fetched from.  Disabled, the wrapper is one bool
   test. *)
let step m =
  if not (Trace.Profile.enabled m.Machine.profile) then step_unprofiled m
  else begin
    let at = m.Machine.regs.Hw.Registers.ipr in
    let c0 = Trace.Counters.cycles m.Machine.counters in
    let i0 = Trace.Counters.instructions m.Machine.counters in
    let outcome = step_unprofiled m in
    let dc = Trace.Counters.cycles m.Machine.counters - c0 in
    let di = Trace.Counters.instructions m.Machine.counters - i0 in
    if dc <> 0 || di <> 0 then
      Trace.Profile.attribute m.Machine.profile
        ~ring:(Rings.Ring.to_int at.Hw.Registers.ring)
        ~segno:at.Hw.Registers.addr.Hw.Addr.segno ~cycles:dc ~instructions:di;
    outcome
  end

let run ?(max_instructions = 1_000_000) m =
  let rec loop n =
    if n = 0 then Running
    else
      match step m with Running -> loop (n - 1) | other -> other
  in
  loop max_instructions
