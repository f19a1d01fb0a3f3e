(** Performance of the CALL and RETURN instructions (Figs. 8 and 9).

    In hardware-ring mode these implement the paper's contribution:
    downward calls through gates and upward returns switch the ring of
    execution without software intervention, CALL generates the new
    ring's stack base pointer in PR0, and upward RETURN raises the
    RING fields of all pointer registers.

    In 645 mode the hardware knows nothing of rings: CALL and RETURN
    are ordinary transfers that also load PR0 (so that the {e same
    object code sequences} work in both modes, as the paper requires
    of its own design), and any target that is not executable under
    the current ring's descriptor segment faults to the software
    gatekeeper ({!Os.Softrings}). *)

val call : Machine.t -> unit
(** Validate and perform a CALL to the address in TPR, with effective
    ring TPR.RING.  On success IPR and PR0 are updated and the
    appropriate crossing counter bumped.  An upward call raises
    [Machine.Fault (Upward_call _)] (software intervention); other
    faults are access violations.  For the instruction cycle: faults
    are raised, never returned. *)

val retn : Machine.t -> unit
(** Validate and perform a RETURN to the address in TPR, in ring
    TPR.RING. *)
