type action = Continue | Halt

let illegal (instr : Instr.t) =
  Machine.raise_fault (Rings.Fault.Illegal_opcode { word = Instr.encode instr })

(* Fig. 6, left side: validate then read the operand. *)
let read_operand m instr formed =
  match formed with
  | Eff_addr.Tpr_immediate -> m.Machine.tpr_imm
  | Eff_addr.Tpr_absent -> illegal instr
  | Eff_addr.Tpr_memory ->
      let e = Machine.resolve_tpr m in
      Machine.check
        (Machine.validate_read m e.Machine.r_sdw ~effective:m.Machine.tpr_ring);
      Hw.Memory.read m.Machine.mem e.Machine.r_abs

(* Fig. 6, right side: validate then write the operand. *)
let write_operand m instr formed w =
  match formed with
  | Eff_addr.Tpr_immediate | Eff_addr.Tpr_absent -> illegal instr
  | Eff_addr.Tpr_memory ->
      let e = Machine.resolve_tpr m in
      Machine.check
        (Machine.validate_write m e.Machine.r_sdw
           ~effective:m.Machine.tpr_ring);
      Hw.Memory.write m.Machine.mem e.Machine.r_abs w

(* Instructions that use the effective address itself need one. *)
let require_memory instr formed =
  match formed with
  | Eff_addr.Tpr_memory -> ()
  | Eff_addr.Tpr_immediate | Eff_addr.Tpr_absent -> illegal instr

let set_a m w =
  let regs = m.Machine.regs in
  regs.Hw.Registers.a <- w;
  Hw.Registers.set_indicators regs w

let set_q m w =
  let regs = m.Machine.regs in
  regs.Hw.Registers.q <- w;
  Hw.Registers.set_indicators regs w

(* Fig. 7: advance check and performance of ordinary transfers. *)
let transfer m instr formed =
  require_memory instr formed;
  let regs = m.Machine.regs in
  let exec = regs.Hw.Registers.ipr.Hw.Registers.ring in
  let e = Machine.resolve_tpr m in
  Machine.check
    (Machine.validate_transfer m e.Machine.r_sdw ~exec
       ~effective:m.Machine.tpr_ring);
  regs.Hw.Registers.ipr <- Machine.transfer_ptr m e ~ring:exec

let conditional_transfer m instr formed condition =
  if condition then transfer m instr formed

let binop_a m instr formed f =
  let w = read_operand m instr formed in
  set_a m (f m.Machine.regs.Hw.Registers.a w)

let binop_q m instr formed f =
  let w = read_operand m instr formed in
  set_q m (f m.Machine.regs.Hw.Registers.q w)

let perform m (instr : Instr.t) formed =
  let regs = m.Machine.regs in
  match instr.opcode with
  | Opcode.NOP | Opcode.HALT -> ()
  | Opcode.LDA -> set_a m (read_operand m instr formed)
  | Opcode.STA -> write_operand m instr formed regs.Hw.Registers.a
  | Opcode.LDQ -> set_q m (read_operand m instr formed)
  | Opcode.STQ -> write_operand m instr formed regs.Hw.Registers.q
  | Opcode.LDX ->
      let w = read_operand m instr formed in
      regs.Hw.Registers.xs.(instr.xr) <- w land ((1 lsl 18) - 1)
  | Opcode.STX ->
      write_operand m instr formed regs.Hw.Registers.xs.(instr.xr)
  | Opcode.ADA -> binop_a m instr formed Hw.Word.add
  | Opcode.SBA -> binop_a m instr formed Hw.Word.sub
  | Opcode.MPA -> binop_a m instr formed Hw.Word.mul
  | Opcode.DVA -> (
      let w = read_operand m instr formed in
      match Hw.Word.div regs.Hw.Registers.a w with
      | None -> Machine.raise_fault Rings.Fault.Divide_by_zero
      | Some q -> set_a m q)
  | Opcode.ADQ -> binop_q m instr formed Hw.Word.add
  | Opcode.SBQ -> binop_q m instr formed Hw.Word.sub
  | Opcode.ANA -> binop_a m instr formed Hw.Word.logand
  | Opcode.ORA -> binop_a m instr formed Hw.Word.logor
  | Opcode.XRA -> binop_a m instr formed Hw.Word.logxor
  | Opcode.CMPA ->
      let w = read_operand m instr formed in
      Hw.Registers.set_indicators regs (Hw.Word.sub regs.Hw.Registers.a w)
  | Opcode.AOS ->
      (* Read-modify-write: both Fig. 6 checks apply. *)
      require_memory instr formed;
      let e = Machine.resolve_tpr m in
      let effective = m.Machine.tpr_ring in
      Machine.check (Machine.validate_read m e.Machine.r_sdw ~effective);
      Machine.check (Machine.validate_write m e.Machine.r_sdw ~effective);
      let w = Hw.Word.add (Hw.Memory.read m.Machine.mem e.Machine.r_abs) 1 in
      Hw.Memory.write m.Machine.mem e.Machine.r_abs w;
      Hw.Registers.set_indicators regs w
  | Opcode.STZ -> write_operand m instr formed 0
  | Opcode.ALS ->
      require_memory instr formed;
      set_a m
        (Hw.Word.of_int
           (regs.Hw.Registers.a lsl min m.Machine.tpr_wordno Hw.Word.bits))
  | Opcode.ARS ->
      require_memory instr formed;
      set_a m
        (Hw.Word.of_signed
           (Hw.Word.to_signed regs.Hw.Registers.a
           asr min m.Machine.tpr_wordno Hw.Word.bits))
  | Opcode.TRA -> transfer m instr formed
  | Opcode.TZE ->
      conditional_transfer m instr formed regs.Hw.Registers.ind_zero
  | Opcode.TNZ ->
      conditional_transfer m instr formed (not regs.Hw.Registers.ind_zero)
  | Opcode.TMI ->
      conditional_transfer m instr formed regs.Hw.Registers.ind_negative
  | Opcode.TPL ->
      conditional_transfer m instr formed
        (not regs.Hw.Registers.ind_negative)
  | Opcode.TSX ->
      (* IPR is already advanced: it holds the return address. *)
      regs.Hw.Registers.xs.(instr.xr) <-
        regs.Hw.Registers.ipr.Hw.Registers.addr.Hw.Addr.wordno;
      transfer m instr formed
  | Opcode.EAP ->
      (* Fig. 7: loads PRn from TPR; the operand is not referenced
         and no access validation is required. *)
      require_memory instr formed;
      Hw.Registers.set_pr regs instr.xr
        {
          Hw.Registers.ring = Rings.Effective_ring.ring m.Machine.tpr_ring;
          addr =
            Hw.Addr.v ~segno:m.Machine.tpr_segno
              ~wordno:m.Machine.tpr_wordno;
        }
  | Opcode.SPR ->
      let p = Hw.Registers.get_pr regs instr.xr in
      write_operand m instr formed (Indword.encode_ptr p)
  | Opcode.EAA ->
      require_memory instr formed;
      set_a m m.Machine.tpr_wordno
  | Opcode.CALL ->
      require_memory instr formed;
      Call_return.call m
  | Opcode.RETN ->
      require_memory instr formed;
      Call_return.retn m
  | Opcode.LDBR ->
      regs.Hw.Registers.dbr <-
        {
          Hw.Registers.base =
            Hw.Word.field ~pos:14 ~width:21 regs.Hw.Registers.a;
          bound = Hw.Word.field ~pos:0 ~width:14 regs.Hw.Registers.a;
          stack_base = Hw.Word.field ~pos:0 ~width:14 regs.Hw.Registers.q;
        }
  | Opcode.SIOC ->
      (* Start an I/O channel operation: the channel runs for a
         fixed number of instruction times and then raises the
         completion trap.  What matters for the reproduction is
         that SIOC is ring-0-only and that completions are one of
         the trap sources. *)
      Trace.Counters.bump m.Machine.counters Channel_ops;
      Machine.set_io_countdown m (Some 20)
  | Opcode.SIOT ->
      (* Read the channel control word pair and arm the channel;
         the supervisor performs the transfer at completion
         time. *)
      require_memory instr formed;
      let segno = m.Machine.tpr_segno and wordno = m.Machine.tpr_wordno in
      let w0 =
        Hw.Memory.read m.Machine.mem (Machine.resolve_tpr m).Machine.r_abs
      in
      let e1 =
        Machine.resolve_exn m ~segno
          ~wordno:((wordno + 1) land Hw.Addr.max_wordno)
      in
      let w1 = Hw.Memory.read m.Machine.mem e1.Machine.r_abs in
      let buffer = (Indword.decode w0).Indword.addr in
      let direction =
        if Hw.Word.field ~pos:17 ~width:1 w1 = 0 then `Read else `Write
      in
      let count = Hw.Word.field ~pos:0 ~width:17 w1 in
      Trace.Counters.bump m.Machine.counters Channel_ops;
      m.Machine.io_request <-
        Some
          {
            Machine.ccw = Hw.Addr.v ~segno ~wordno;
            buffer;
            direction;
            count;
          };
      Machine.set_io_countdown m (Some (20 + (2 * count)))
  | Opcode.RTRAP ->
      (* Restoring with nothing saved is a program error, not a
         simulator crash. *)
      if m.Machine.saved = None && m.Machine.trap_config = None then
        illegal instr
      else Machine.restore_saved m
  | Opcode.MME ->
      (* A deliberate trap: the supervisor dispatches on the
         code. *)
      Machine.raise_fault
        (Rings.Fault.Service_call { code = instr.offset })

let execute m (instr : Instr.t) formed =
  if Opcode.privileged instr.opcode then
    Machine.check
      (Rings.Policy.validate_privileged
         ~ring:m.Machine.regs.Hw.Registers.ipr.Hw.Registers.ring);
  match instr.opcode with
  | Opcode.HALT -> Halt
  | _ ->
      perform m instr formed;
      Continue
