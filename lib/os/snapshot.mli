(** Checkpoint/restore: the whole machine in one deterministic image.

    A snapshot serializes everything that can influence a future
    instruction, counter, trace event or device transfer: memory (with
    the injector's poison table), the register file, every process's
    kernel tables and crossing stacks, the scheduler's queue and
    budgets, the fault-injection plan state, and the full observability
    surface (counters, event log, spans, profile).  Host-side caches
    are {e not} serialized: {!capture} quiesces them
    ({!Isa.Machine.quiesce}) and {!restore} rebuilds the same cold
    state, so a run resumed from a checkpoint and the uninterrupted
    run that wrote it continue from identical footing and export
    byte-identical counters, traces and device output.

    Images are versioned ([magic "RINGSNAP"], format {!version}) and
    checksummed (FNV-1a 64 over the payload).  {!restore} refuses
    anything it cannot prove whole: bad magic, other versions,
    truncation, checksum failure, structural corruption, an image that
    does not match the respawned system's shape, an image whose
    restored state fails the kernel-table audit, or one that does not
    re-capture to the same bytes. *)

type error =
  | Bad_magic  (** Not a snapshot image at all. *)
  | Bad_version of { expected : int; got : int }
      (** The format version differs; images are not cross-version. *)
  | Truncated  (** Shorter than its header claims. *)
  | Checksum_mismatch  (** Payload bytes were damaged. *)
  | Corrupt of string
      (** Checksum passes but the structure does not decode (bad tag,
          negative length, unconsumed bytes, ...). *)
  | Shape_mismatch of string
      (** The image is whole but describes a different system than the
          one respawned for it: different program, mode, memory size,
          process set or injector wiring. *)
  | Audit_rejected of string list
      (** The restored state failed the kernel-table audit
          ({!Chaos.check_invariants}): some SDW no longer matches the
          access the kernel granted, or a crossing stack is damaged —
          a tampered-but-well-checksummed image lands here. *)
  | Self_check_failed
      (** The restored state did not re-capture to the input bytes —
          a codec defect, never a user error. *)
  | Stale_base
      (** The first delta of a chain does not reference the base image
          it was handed — the caller mixed images from different
          capture chains, or the base was re-captured since. *)
  | Broken_chain of int
      (** Delta [i] (0-based) does not reference its predecessor in
          the list: a link is missing, reordered, or from another
          chain. *)

val pp_error : Format.formatter -> error -> unit

val version : int
(** Current image format version. *)

val capture : System.t -> string
(** Serialize the complete system state.  Bumps the
    [snapshots_written] counter {e before} serializing (so the image
    carries its own capture) and quiesces the machine's host caches —
    the live run continues from the same cold-cache state a restored
    run starts in, which is what makes kill-and-resume byte-identical.
    If serialization fails, the bump is rolled back before the
    exception propagates: a failed capture never inflates the
    counter. *)

(** {1 Incremental capture}

    A chain is a full base image followed by deltas that serialize
    only the memory pages written since the previous image plus the
    complete — and small — non-memory state.  Every image references
    its predecessor by payload checksum, and {!flatten} folds a chain
    back into a full image that is {e byte-identical} to what
    {!capture} would have produced at the last delta's capture point,
    so restore semantics are exactly full-capture semantics.

    Which pages a delta carries comes from {!Hw.Memory}'s write stamps:
    at each of its capture points the chain takes its own memory
    epoch, and the next delta serializes every page stamped after it.
    No other observer can move that epoch, so a full {!capture},
    another chain, a {!warm_boot} or a foreign
    {!Hw.Memory.clear_dirty} between two deltas changes nothing about
    what the next delta carries — a delta can no longer miss pages,
    and there is nothing to refuse.  Public captures still clear the
    global dirty map ({!Hw.Memory.dirty_pages}), which remains a view
    of what changed since the most recent capture point of any
    kind. *)

type chain
(** Host-side chain state: the predecessor's payload checksum and the
    memory epoch taken at its capture point.  Not serialized — a chain
    lives and dies with the process that started it. *)

val start_chain : System.t -> chain * string
(** Capture a full base image ({!capture} semantics, including the
    counter bump) and open a chain on it. *)

val capture_delta : System.t -> chain -> string
(** Capture a delta over the chain's newest image: only pages written
    since then are serialized.  Bumps [snapshots_written] like
    {!capture} (rolled back if the capture fails), quiesces, clears
    the global dirty map and advances the chain's epoch.  Raises
    [Invalid_argument] if the system's memory size differs from the
    one the chain was opened on. *)

val chain_length : chain -> int
(** Deltas captured on this chain so far. *)

val rebase : chain -> base:string -> (unit, error) result
(** [rebase chain ~base] re-anchors the chain on a full image —
    normally the {!flatten} of everything captured so far — after a
    garbage-collection pass has replaced the on-disk base and deleted
    the folded deltas.  The next {!capture_delta} then links to
    [base]'s payload, and {!chain_length} restarts at 0.  No capture
    happens and the chain's memory epoch is untouched, so the chain
    keeps accumulating from exactly where it was.  The image is validated
    (magic, version, checksum, memory size) before the chain is
    touched; on [Error] the chain is unchanged.

    Cost: one pass over [base]'s bytes (the checksum) plus a decode of
    the sections before its memory size; the memory pairs are not read
    and nothing is allocated in proportion to the memory size. *)

val flatten : base:string -> string list -> (string, error) result
(** [flatten ~base deltas] folds a base image and its deltas (oldest
    first) into one full image, byte-identical to a {!capture} at the
    last delta's capture point.  [flatten ~base []] re-seals the base
    unchanged.  Refuses a first delta that does not reference [base]
    with [Stale_base], a later delta that does not reference its
    predecessor with [Broken_chain], and anything damaged with the
    same layered errors as {!restore}.

    Cost: O(base bytes + delta bytes).  The fold is a merge of the
    images' sparse memory sections by page — the newest delta naming a
    page supplies all of it, every other page keeps the base's pairs —
    so neither its time nor its allocation grows with the memory size,
    and a corrupt size field cannot trigger a large allocation.  Each
    image is checksummed once. *)

val restore_chain : System.t -> base:string -> string list -> (unit, error) result
(** [restore_chain sys ~base deltas] = {!flatten} then {!restore}:
    full validation, self-check and audit included. *)

val warm_boot : System.t -> string -> (unit, error) result
(** Trusted fast restore for images captured by this same process —
    the serving fleet's per-request rewind.  The header is parsed, the
    checksum verified and every non-memory section decoded and applied
    in full, but the two expensive layers that defend against on-disk
    damage ({!restore}'s re-capture self-check and kernel-table audit)
    are skipped, and the [restores] counter is left exactly as the
    image recorded it, so a rewound machine's counters are
    byte-identical to the boot state and per-request deltas compare
    cleanly.

    The memory rewind costs what the last request touched, not what
    memory holds.  Each machine's memory remembers the image it was
    last warm-booted to and a memory epoch taken at the end of that
    boot ({!Hw.Memory.set_mark}).  Booting the same image again applies
    the image's sparse (address, word) pairs — each written only if
    the word differs — and zero-fills the remaining words only on the
    pages stamped after that epoch: every other page is exactly as
    that boot left it.  Booting any other image uses epoch 0, which
    sweeps every page ever written and skips the rest, which are zero.
    No dense copy of the image's memory is kept.  Validity tags carry
    no stamps, so the capability tag store is always rewound whole.

    Never pass an image from outside this process here — use
    {!restore} for those. *)

val rewind : System.t -> string -> (int, error) result
(** {!warm_boot}, returning how many memory pages the rewind rewrote —
    the pages holding at least one word that differed from the image.
    For a machine rewound between requests of one class that is a
    function of the class alone, however the rewind found them.  A
    host statistic for the serving layer; nothing modeled depends on
    it. *)

val restore : System.t -> string -> (unit, error) result
(** Overwrite a freshly respawned system — same program file, same
    flags — with a captured image.  On success the system is
    indistinguishable from the one that called {!capture}.  The
    restore path validates in layers: header (magic, version, length),
    checksum, structural decode with shape checks against the
    respawned system, then a self-check (the restored state must
    re-capture to the same bytes, bumping [restores] once it does) and
    finally the kernel-table audit (bumping [restore_audit_rejections]
    and returning [Audit_rejected] on failure).  On any error the
    system state is unspecified and must be discarded. *)

(** {1 Codecs}

    Each type an image holds is described once, as a codec that both
    writes and reads it; the capture path, {!restore} and {!flatten}
    all run the same codecs.  These are the codecs of the domain types,
    exposed so that each can be checked on its own. *)

type ('w, 'r) codec
(** Writes a ['w], reads back an ['r]; the domain codecs below have
    ['w = 'r]. *)

val to_string : ('a, _) codec -> 'a -> string

val of_string : (_, 'a) codec -> string -> ('a, error) result
(** Decode exactly the whole string: trailing bytes are [Corrupt]. *)

val fault : (Rings.Fault.t, Rings.Fault.t) codec
(** A fault's tag on the wire is its {!Rings.Fault.code}. *)

val exit : (Kernel.exit, Kernel.exit) codec
val event : (Trace.Event.t, Trace.Event.t) codec
val open_span : (Trace.Span.open_span, Trace.Span.open_span) codec
val completed : (Trace.Span.completed, Trace.Span.completed) codec
val placement : (Process.placement, Process.placement) codec
val loaded : (Process.loaded, Process.loaded) codec
val crossing : (Process.crossing, Process.crossing) codec
val regs : (Hw.Registers.t, Hw.Registers.t) codec
