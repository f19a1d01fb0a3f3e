(** Absolute (physical) memory.

    A flat array of 36-bit words addressed by absolute address.
    Accesses made on behalf of the simulated processor go through
    {!read} and {!write}, which charge one cycle each and bump the
    memory counters; the loader and the inspection tools use the
    [_silent] variants, which model no hardware activity.

    Addressing outside physical memory raises [Invalid_argument]: it
    indicates a simulator configuration error, not a condition the
    simulated hardware can reach (segment bounds are checked during
    address translation before any absolute access). *)

type t

type storage
(** The arrays behind a memory — words, write stamps and tag store —
    detached by {!release} so a later {!create} can reuse them instead
    of allocating. *)

val default_size : int
(** 2^21 words. *)

val create : ?size:int -> ?storage:storage -> Trace.Counters.t -> t
(** [size] defaults to {!default_size}, or to [storage]'s size when
    that is given.  A memory built on [storage] is indistinguishable
    from a fresh one: the pages the storage's last owner stamped are
    zeroed (the last page clipped to the memory's size), every stamp
    is 0, the clock, dirty map and rewind mark start over, and tags are
    disabled — {!enable_tags} later hands back the old tag store, all
    clear.  Raises [Invalid_argument] if [size] and [storage] disagree. *)

val release : t -> storage
(** Detach [t]'s arrays and poison [t]: every later {!read},
    {!write}, {!set_tag} or other addressed access through [t] raises
    [Invalid_argument], and [t] has {!size} 0.  The caller owns the
    returned storage and must hand it to at most one {!create}: two
    live memories on one storage would alias.  Release a memory only
    once nothing will touch it again. *)

val size : t -> int
val counters : t -> Trace.Counters.t

val set_write_observer : t -> (int -> unit) -> unit
(** [set_write_observer t f] arranges for [f addr] to run after every
    store into [t] — {!write} and {!write_silent} alike — so caches
    layered above memory (SDW, page-table and decoded-instruction
    associative memories) can invalidate entries that depend on the
    written word.  One observer at a time; the machine that owns the
    memory installs it.  The observer must not write to [t]. *)

val read : t -> int -> Word.t
val write : t -> int -> Word.t -> unit

val read_silent : t -> int -> Word.t
val write_silent : t -> int -> Word.t -> unit

val blit_silent : t -> int -> Word.t array -> unit
(** [blit_silent mem addr words] copies [words] to consecutive
    absolute addresses starting at [addr]. *)

(** {1 Write stamps and dirty-page tracking}

    Memory is divided into pages of {!page_words} words, and every page
    carries a {e write stamp}: the value of a monotonically increasing
    clock at the page's latest store.  Every store — {!write},
    {!write_silent}, {!blit_silent}, and everything layered on them
    (the injector's poison writes, fault frames, journal replay,
    snapshot application) — goes through {!write_silent}, which stamps
    the written page at the cost of the boolean store it replaces.

    {!epoch} closes the clock: every store made before the call carries
    a stamp [<=] the value it returns, every store made after carries a
    larger one.  "Page [p] was written since epoch [e]" is therefore
    [stamp p > e], and any number of independent observers — the
    global dirty map below, each incremental-capture chain, the warm
    boot's rewind mark — can keep their own epochs over the one stamp
    array without disturbing each other.

    {b The stamp-0 invariant.}  Memory starts all zero, the clock starts
    at 1, and every store stamps [>= 1], so a page whose stamp is 0 was
    never written and holds only zeros.  Capture and restore lean on
    this to skip never-written pages; it holds for as long as
    {!write_silent} stays the only path that writes words.

    Validity tags are {e outside} the stamps: {!set_tag} and
    {!clear_tag} change no word, so they stamp no page, and a stamp
    says nothing about a page's tags.  Anything that rewinds the tag
    store must do it whole.

    Nothing in the simulated machine reads the stamps; they cannot
    affect modeled cycles. *)

val page_words : int
(** Words per stamped page (a power of two).  Page [p] covers
    absolute addresses [p * page_words .. min ((p+1) * page_words,
    size) - 1]. *)

val pages : t -> int
(** Number of pages, the last one possibly partial. *)

val epoch : t -> int
(** Close the current clock value and return it: the next store is
    stamped strictly above the result. *)

val written_since : t -> epoch:int -> int -> bool
(** [written_since t ~epoch p]: page [p] was stored to after [epoch]
    was taken.  [~epoch:0] asks whether it was ever written. *)

val pages_since : t -> epoch:int -> int list
(** Pages written since [epoch], ascending. *)

val dirty_pages : t -> int list
(** Pages written since the last {!clear_dirty} (since creation, before
    the first), in ascending order. *)

val clear_dirty : t -> unit
(** Take a fresh {!epoch} as the dirty map's origin and advance
    {!dirty_generation}.  The snapshot layer calls this at every
    capture point.  It moves no other epoch: a foreign call can only
    shrink what {!dirty_pages} reports, never what a chain or a rewind
    sees. *)

val dirty_generation : t -> int
(** Number of {!clear_dirty} calls so far. *)

(** {2 Rewind mark}

    A memory remembers one image it is known to have held: the key of
    that image (the caller's choice — the snapshot layer uses the image
    bytes themselves) and the epoch at which it held it exactly.  A
    page not written since that epoch still holds the image's words, so
    rewinding to the same image need only revisit the pages written
    after it. *)

val set_mark : t -> string -> unit
(** [set_mark t key]: memory now holds exactly [key]'s contents.  Takes
    a fresh {!epoch}.  The empty key is never matched. *)

val mark_epoch : t -> string -> int
(** The epoch of the mark when [key] equals the marked key, otherwise
    0 — which is always sound: by the stamp-0 invariant, a page not
    written since epoch 0 is all zero. *)

(** {1 Validity tags}

    One tag bit per word — the capability backend's tag store.  The
    store is lazily allocated: until {!enable_tags} runs, every
    operation below is a single length test and the write path carries
    no extra work, so the hardware and 645 machines are untouched.
    When enabled, {b every} store clears the written word's tag (a
    forged descriptor is just data); only {!set_tag} — the kernel
    installing a capability — sets one. *)

val enable_tags : t -> unit
(** Allocate the tag store (all words untagged).  Idempotent. *)

val tags_enabled : t -> bool

val set_tag : t -> int -> unit
(** Mark a word as holding a valid capability.  Raises
    [Invalid_argument] when the tag store is not enabled: only the
    capability machine may mint tags. *)

val clear_tag : t -> int -> unit
(** Explicitly untag a word.  No-op when tags are disabled. *)

val tagged : t -> int -> bool
(** [false] whenever tags are disabled. *)

val tagged_addrs : t -> int list
(** Absolute addresses of all tagged words, ascending — what the
    snapshot codec serializes. *)

val clear_tags : t -> unit
(** Untag every word (snapshot restore resets then re-applies). *)
