(** The execute phase of the instruction cycle (Figs. 6–9).

    Given a decoded instruction whose operand address {!Eff_addr.form}
    has left in TPR, performs the instruction: operand references are
    resolved and validated from TPR against TPR.RING per Fig. 6,
    EAP-type and transfer instructions per Fig. 7, and CALL/RETURN
    are delegated to {!Call_return}.  The IPR has already been
    advanced past the instruction, so transfer targets and TSX return
    addresses are taken from the registers as they stand. *)

type action =
  | Continue
  | Halt  (** The (privileged) HALT instruction was executed. *)

val execute : Machine.t -> Instr.t -> Eff_addr.formed -> action
(** Perform [instr].  Faults are raised as {!Machine.Fault}, for
    {!Cpu.step} to catch. *)
