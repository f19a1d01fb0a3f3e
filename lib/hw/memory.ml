type t = {
  words : int array;
  counters : Trace.Counters.t;
  mutable on_write : int -> unit;
  (* Write stamps: one per [page_words]-word page, holding the [clock]
     value of the page's latest store (0 = never written, so the page
     is all zero).  The stamp rides the existing write path — one array
     store, no branch on the hot path.  [epoch] closes the current
     clock value, so "written since epoch e" is [stamps.(p) > e], and
     the dirty map is that view over [dirty_since]. *)
  stamps : int array;
  mutable clock : int;
  mutable dirty_since : int;
  mutable dirty_generation : int;
  (* Rewind mark: memory held exactly [mark]'s image at epoch
     [mark_epoch] ([mark = ""]: no mark). *)
  mutable mark : string;
  mutable mark_epoch : int;
  (* Validity tags, one byte per word — the capability backend's tag
     store.  Zero-length (and therefore branch-free to test) unless
     [enable_tags] ran: the hardware and 645 machines never allocate
     it, so their write path is untouched.  When enabled, every store
     clears the written word's tag; only {!set_tag} (the kernel
     installing a capability) sets one. *)
  mutable tags : Bytes.t;
}

let default_size = 1 lsl 21

(* Power of two so the page of an address is a shift, not a divide. *)
let page_shift = 10
let page_words = 1 lsl page_shift

let ignore_write (_ : int) = ()

let create ?(size = default_size) counters =
  {
    words = Array.make size 0;
    counters;
    on_write = ignore_write;
    stamps = Array.make ((size + page_words - 1) lsr page_shift) 0;
    clock = 1;
    dirty_since = 0;
    dirty_generation = 0;
    mark = "";
    mark_epoch = 0;
    tags = Bytes.empty;
  }

let size t = Array.length t.words
let counters t = t.counters
let set_write_observer t f = t.on_write <- f

let check t addr =
  if addr < 0 || addr >= Array.length t.words then
    invalid_arg (Printf.sprintf "Memory: absolute address %d out of range" addr)

let read_silent t addr =
  check t addr;
  t.words.(addr)

let write_silent t addr w =
  check t addr;
  t.words.(addr) <- Word.of_int w;
  t.stamps.(addr lsr page_shift) <- t.clock;
  if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000';
  t.on_write addr

let read t addr =
  Trace.Counters.bump_memory_reads t.counters;
  Trace.Counters.charge t.counters Costs.memory_access;
  read_silent t addr

let write t addr w =
  Trace.Counters.bump_memory_writes t.counters;
  Trace.Counters.charge t.counters Costs.memory_access;
  write_silent t addr w

let blit_silent t addr words =
  Array.iteri (fun i w -> write_silent t (addr + i) w) words

let pages t = Array.length t.stamps

let epoch t =
  let e = t.clock in
  t.clock <- e + 1;
  e

let written_since t ~epoch p = t.stamps.(p) > epoch

let pages_since t ~epoch =
  let acc = ref [] in
  for p = Array.length t.stamps - 1 downto 0 do
    if t.stamps.(p) > epoch then acc := p :: !acc
  done;
  !acc

let dirty_pages t = pages_since t ~epoch:t.dirty_since

let clear_dirty t =
  t.dirty_since <- epoch t;
  t.dirty_generation <- t.dirty_generation + 1

let dirty_generation t = t.dirty_generation

let set_mark t key =
  t.mark <- key;
  t.mark_epoch <- epoch t

let mark_epoch t key =
  if String.length key > 0 && String.equal key t.mark then t.mark_epoch else 0

(* {1 Validity tags} *)

let enable_tags t =
  if Bytes.length t.tags = 0 then
    t.tags <- Bytes.make (Array.length t.words) '\000'

let tags_enabled t = Bytes.length t.tags <> 0

let set_tag t addr =
  check t addr;
  if Bytes.length t.tags = 0 then
    invalid_arg "Memory.set_tag: tag store not enabled";
  Bytes.unsafe_set t.tags addr '\001'

let clear_tag t addr =
  check t addr;
  if Bytes.length t.tags <> 0 then Bytes.unsafe_set t.tags addr '\000'

let tagged t addr =
  check t addr;
  Bytes.length t.tags <> 0 && Bytes.unsafe_get t.tags addr = '\001'

let tagged_addrs t =
  let acc = ref [] in
  for a = Bytes.length t.tags - 1 downto 0 do
    if Bytes.unsafe_get t.tags a = '\001' then acc := a :: !acc
  done;
  !acc

let clear_tags t =
  if Bytes.length t.tags <> 0 then
    Bytes.fill t.tags 0 (Bytes.length t.tags) '\000'
