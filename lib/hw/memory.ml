type t = {
  mutable words : int array;
  counters : Trace.Counters.t;
  mutable on_write : int -> unit;
  (* Write stamps: one per [page_words]-word page, holding the [clock]
     value of the page's latest store (0 = never written, so the page
     is all zero).  The stamp rides the existing write path — one array
     store, no branch on the hot path.  [epoch] closes the current
     clock value, so "written since epoch e" is [stamps.(p) > e], and
     the dirty map is that view over [dirty_since]. *)
  mutable stamps : int array;
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
  (* A recycled tag store waiting for {!enable_tags}: a memory built on
     released storage starts with tags disabled, as a fresh one does,
     but keeps the old store so a capability machine need not allocate
     one again. *)
  mutable spare_tags : Bytes.t;
}

type storage = { s_words : int array; s_stamps : int array; s_tags : Bytes.t }

let default_size = 1 lsl 21

(* Power of two so the page of an address is a shift, not a divide. *)
let page_shift = 10
let page_words = 1 lsl page_shift

let ignore_write (_ : int) = ()

(* Back to the state [Array.make] builds: by the stamp-0 invariant only
   the stamped pages can hold anything but zeros. *)
let zero_stamped { s_words; s_stamps; _ } =
  let size = Array.length s_words in
  Array.iteri
    (fun p stamp ->
      if stamp <> 0 then begin
        let lo = p lsl page_shift in
        Array.fill s_words lo (min page_words (size - lo)) 0;
        s_stamps.(p) <- 0
      end)
    s_stamps

let create ?size ?storage counters =
  let s =
    match (storage, size) with
    | None, _ ->
        let size = Option.value size ~default:default_size in
        {
          s_words = Array.make size 0;
          s_stamps = Array.make ((size + page_words - 1) lsr page_shift) 0;
          s_tags = Bytes.empty;
        }
    | Some s, Some size when size <> Array.length s.s_words ->
        invalid_arg "Memory.create: storage of another size"
    | Some s, _ ->
        zero_stamped s;
        s
  in
  {
    words = s.s_words;
    counters;
    on_write = ignore_write;
    stamps = s.s_stamps;
    clock = 1;
    dirty_since = 0;
    dirty_generation = 0;
    mark = "";
    mark_epoch = 0;
    tags = Bytes.empty;
    spare_tags = s.s_tags;
  }

let release t =
  let s =
    {
      s_words = t.words;
      s_stamps = t.stamps;
      s_tags = (if Bytes.length t.tags <> 0 then t.tags else t.spare_tags);
    }
  in
  (* Poison the handle: every access through it now fails [check]. *)
  t.words <- [||];
  t.stamps <- [||];
  t.tags <- Bytes.empty;
  t.spare_tags <- Bytes.empty;
  t.on_write <- ignore_write;
  s

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
  Trace.Counters.bump t.counters Memory_reads;
  Trace.Counters.charge t.counters Costs.memory_access;
  read_silent t addr

let write t addr w =
  Trace.Counters.bump t.counters Memory_writes;
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
  if Bytes.length t.tags = 0 then begin
    let size = Array.length t.words in
    if Bytes.length t.spare_tags = size then begin
      Bytes.fill t.spare_tags 0 size '\000';
      t.tags <- t.spare_tags;
      t.spare_tags <- Bytes.empty
    end
    else t.tags <- Bytes.make size '\000'
  end

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
