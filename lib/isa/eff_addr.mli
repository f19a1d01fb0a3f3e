(** Effective-address formation (Fig. 5).

    Forms in TPR the effective address of an instruction's operand: a
    final two-part address after all pointer register and indirect-word
    modifications, together with the effective ring number (TPR.RING)
    against which the actual operand reference will be validated.

    The effective ring starts at the ring of execution; addressing
    relative to PRn folds in PRn.RING; each indirect word folds in its
    own RING field and SDW.R1 of the segment it was read from.  The
    capability to read each indirect word is validated, against
    TPR.RING {e as it stands when the word is encountered}, before the
    word is retrieved.

    In 645 mode no ring arithmetic is performed (the hardware has no
    ring logic); indirect words are still followed and their reads
    still validated against the current descriptor segment's read
    flag.

    {b TPR is machine state.}  As on the hardware, the address is
    formed by overwriting one register: [Machine.tpr_ring],
    [tpr_segno] and [tpr_wordno] (or [tpr_imm] for an immediate
    operand).  {!form} writes them in place, following each indirect
    word by decoding its fields straight into TPR, and allocates
    nothing.  A fault while forming the address — an indirect word
    that cannot be read — is raised as {!Machine.Fault} and caught by
    {!Cpu.step}.  {!compute}, the result-returning API, is a wrapper
    that catches the exception and packages TPR as an {!operand}. *)

type operand =
  | Memory of { effective : Rings.Effective_ring.t; addr : Hw.Addr.t }
      (** A memory operand with its validation level. *)
  | Immediate of Hw.Word.t
      (** The sign-extended 18-bit offset field itself. *)
  | Absent  (** The instruction takes no operand. *)

(** What {!form} left in TPR. *)
type formed =
  | Tpr_memory  (** TPR.RING, SEGNO and WORDNO name the operand. *)
  | Tpr_immediate  (** [Machine.tpr_imm] holds the operand. *)
  | Tpr_absent  (** The instruction takes no operand. *)

exception Runaway_indirection of Hw.Addr.t
(** Raised after 64 levels of indirection, carrying the address of the
    65th indirect word — the one it refused to resolve: the program
    built an indirect loop, which would hang the real processor.  Not
    a fault: it escapes {!Cpu.step}. *)

val form : Machine.t -> Instr.t -> formed
(** Form the operand address of [instr] in TPR.  Raises
    {!Machine.Fault}; for the instruction cycle. *)

val compute : Machine.t -> Instr.t -> (operand, Rings.Fault.t) result
(** [form], with faults returned as [Error] and TPR packaged as an
    operand. *)
