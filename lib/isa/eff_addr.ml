type operand =
  | Memory of { effective : Rings.Effective_ring.t; addr : Hw.Addr.t }
  | Immediate of Hw.Word.t
  | Absent

type formed = Tpr_memory | Tpr_immediate | Tpr_absent

exception Runaway_indirection of Hw.Addr.t

let max_indirections = 64

let sign_extend_18 v =
  if v land 0o400000 <> 0 then Hw.Word.of_signed (v - (1 lsl 18)) else v

let wordno_mask = (1 lsl 18) - 1

(* Follow the indirection chain from the address in TPR, decoding each
   indirect word's fields straight into TPR and updating TPR.RING per
   Fig. 5 in hardware mode. *)
let rec indirect m ~depth =
  if depth > max_indirections then
    raise
      (Runaway_indirection
         (Hw.Addr.v ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno));
  let e = Machine.resolve_tpr m in
  let sdw = e.Machine.r_sdw in
  Machine.check (Machine.validate_read m sdw ~effective:m.Machine.tpr_ring);
  Trace.Counters.bump m.Machine.counters Indirections;
  let w = Hw.Memory.read m.Machine.mem e.Machine.r_abs in
  (match m.Machine.mode with
  | Machine.Ring_software_645 -> ()
  | Machine.Ring_hardware | Machine.Ring_capability ->
      let container_write_top =
        if m.Machine.use_r1_in_indirection then
          Rings.Brackets.write_bracket_top
            sdw.Hw.Sdw.access.Rings.Access.brackets
        else Rings.Ring.r0
      in
      m.Machine.tpr_ring <-
        Rings.Effective_ring.via_indirect_word m.Machine.tpr_ring
          ~ind_ring:(Indword.word_ring w) ~container_write_top);
  m.Machine.tpr_segno <- Indword.word_segno w;
  m.Machine.tpr_wordno <- Indword.word_wordno w;
  if Indword.word_indirect w then indirect m ~depth:(depth + 1)

(* Index register, then the indirection chain: the steps shared by
   both memory-addressing bases once TPR holds the base address. *)
let finish_memory m (instr : Instr.t) =
  if instr.indexed then
    m.Machine.tpr_wordno <-
      (m.Machine.tpr_wordno + m.Machine.regs.Hw.Registers.xs.(instr.xr))
      land wordno_mask;
  if instr.indirect then indirect m ~depth:1;
  Tpr_memory

let form m (instr : Instr.t) =
  match Opcode.operand_class instr.opcode with
  | Opcode.No_operand -> Tpr_absent
  | _ -> (
      let regs = m.Machine.regs in
      let ipr = regs.Hw.Registers.ipr in
      match instr.base with
      | Instr.Immediate ->
          m.Machine.tpr_imm <- sign_extend_18 instr.offset;
          Tpr_immediate
      | Instr.Ipr_relative ->
          m.Machine.tpr_ring <-
            Rings.Effective_ring.start ipr.Hw.Registers.ring;
          m.Machine.tpr_segno <- ipr.Hw.Registers.addr.Hw.Addr.segno;
          m.Machine.tpr_wordno <- instr.offset;
          finish_memory m instr
      | Instr.Pr n ->
          let p = Hw.Registers.get_pr regs n in
          let ring = Rings.Effective_ring.start ipr.Hw.Registers.ring in
          m.Machine.tpr_ring <-
            (match m.Machine.mode with
            | Machine.Ring_software_645 -> ring
            | Machine.Ring_hardware | Machine.Ring_capability ->
                Rings.Effective_ring.via_pointer_register ring
                  ~pr_ring:p.Hw.Registers.ring);
          m.Machine.tpr_segno <- p.Hw.Registers.addr.Hw.Addr.segno;
          m.Machine.tpr_wordno <-
            (p.Hw.Registers.addr.Hw.Addr.wordno + instr.offset)
            land wordno_mask;
          finish_memory m instr)

let operand_of m = function
  | Tpr_absent -> Absent
  | Tpr_immediate -> Immediate m.Machine.tpr_imm
  | Tpr_memory ->
      Memory
        {
          effective = m.Machine.tpr_ring;
          addr =
            Hw.Addr.v ~segno:m.Machine.tpr_segno ~wordno:m.Machine.tpr_wordno;
        }

let compute m instr =
  match form m instr with
  | formed -> Ok (operand_of m formed)
  | exception Machine.Fault f -> Error f
