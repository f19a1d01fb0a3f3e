(** The instruction cycle (Fig. 4 onward).

    [step] performs one full cycle: instruction fetch with the Fig. 4
    execute-bracket validation, effective-address formation (Fig. 5),
    and instruction performance (Figs. 6–9).  Any condition requiring
    software intervention derails the cycle into a trap: the processor
    state (with IPR pointing at the disrupted instruction) is saved in
    the machine for the privileged RTRAP instruction to restore, and
    [step] reports the fault so a supervisor — simulated or host-level
    ({!Os.Kernel}) — can service it.

    Inside the cycle a fault travels as {!Machine.Fault}; [step] is
    the one place it is caught, and it never escapes [step].  Between
    instructions, one comparison of [Machine.ticks] with
    [Machine.next_event] decides whether the event chain (injection
    poll, cycle ceiling, I/O completion, timer) has anything due. *)

type outcome =
  | Running
  | Halted
  | Faulted of Rings.Fault.t
      (** Trap taken; state saved; IPR of the saved state addresses
          the faulting instruction. *)

val step : Machine.t -> outcome
(** One instruction cycle.  Stepping a halted machine returns [Halted]
    without further effect. *)

val run : ?max_instructions:int -> Machine.t -> outcome
(** Step until something other than [Running] happens, or until
    [max_instructions] (default 1,000,000) cycles have retired —
    in which case [Running] is returned. *)
