(* Call/return spans over the simulated call stack.

   Every CALL that transfers control opens a span; the RETURN that
   undoes it closes the innermost open span — the calling conventions
   are strictly LIFO, so matching is a stack.  A crossing that never
   returns (a fault that terminates the process, a trace that stops
   mid-call) is closed by [drain] with [forced = true] so exporters
   see a complete interval set.

   Closed spans feed two sinks: a per-crossing-kind latency histogram
   (always, cheap, deterministic percentiles) and a bounded ring
   buffer of completed spans for the Chrome-trace exporter (lazily
   allocated, oldest dropped first). *)

type completed = {
  kind : Event.crossing;
  from_ring : int;
  to_ring : int;
  segno : int;
  wordno : int;
  start_cycles : int;
  end_cycles : int;
  depth : int;
  seq : int;
  forced : bool;
}

type open_span = {
  o_kind : Event.crossing;
  o_from_ring : int;
  o_to_ring : int;
  o_segno : int;
  o_wordno : int;
  o_start : int;
  o_depth : int;
  o_seq : int;
}

let default_capacity = 65536

type tracker = {
  mutable enabled : bool;
  mutable stack : open_span list;
  mutable next_seq : int;
  mutable capacity : int;
  mutable buf : completed array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable unmatched_returns : int;
  mutable sampled_out : int;
  mutable sample_interval : int;
  mutable sample_seed : int;
  mutable stats : Counters.t;
  (* Which protection backend produced these spans ("hw", "645",
     "cap") — a label only: set once by the machine at creation,
     surfaced by the exporters so crossing spans from different
     backends are distinguishable in one merged trace. *)
  mutable backend : string;
  hist_same : Histogram.t;
  hist_down : Histogram.t;
  hist_up : Histogram.t;
  hist_recovery : Histogram.t;
}

let dummy =
  {
    kind = Event.Same_ring;
    from_ring = 0;
    to_ring = 0;
    segno = 0;
    wordno = 0;
    start_cycles = 0;
    end_cycles = 0;
    depth = 0;
    seq = -1;
    forced = false;
  }

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Span.create: capacity < 1";
  {
    enabled = false;
    stack = [];
    next_seq = 0;
    capacity;
    buf = [||];
    head = 0;
    len = 0;
    dropped = 0;
    unmatched_returns = 0;
    sampled_out = 0;
    sample_interval = 1;
    sample_seed = 0;
    stats = Counters.create ();
    backend = "hw";
    hist_same = Histogram.create ();
    hist_down = Histogram.create ();
    hist_up = Histogram.create ();
    hist_recovery = Histogram.create ();
  }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
let set_stats t c = t.stats <- c
let backend t = t.backend
let set_backend t b = t.backend <- b
let dropped t = t.dropped
let unmatched_returns t = t.unmatched_returns
let sampled_out t = t.sampled_out
let sample_interval t = t.sample_interval
let sample_seed t = t.sample_seed

let set_sampling t ~interval ~seed =
  if interval < 1 then invalid_arg "Span.set_sampling: interval < 1";
  t.sample_interval <- interval;
  t.sample_seed <- seed

let open_depth t = List.length t.stack

let histogram t = function
  | Event.Same_ring -> t.hist_same
  | Event.Downward -> t.hist_down
  | Event.Upward -> t.hist_up
  | Event.Recovery -> t.hist_recovery

let clear t =
  t.stack <- [];
  t.next_seq <- 0;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  t.unmatched_returns <- 0;
  t.sampled_out <- 0;
  Histogram.clear t.hist_same;
  Histogram.clear t.hist_down;
  Histogram.clear t.hist_up;
  Histogram.clear t.hist_recovery

let push_completed t c =
  if Array.length t.buf = 0 then t.buf <- Array.make t.capacity dummy;
  let slot =
    if t.len < t.capacity then begin
      let i = t.head + t.len in
      let i = if i >= t.capacity then i - t.capacity else i in
      t.len <- t.len + 1;
      i
    end
    else begin
      let i = t.head in
      t.head <- (if i + 1 >= t.capacity then 0 else i + 1);
      t.dropped <- t.dropped + 1;
      i
    end
  in
  t.buf.(slot) <- c

let open_span t ~kind ~from_ring ~to_ring ~segno ~wordno ~cycles =
  if t.enabled then begin
    t.stack <-
      {
        o_kind = kind;
        o_from_ring = from_ring;
        o_to_ring = to_ring;
        o_segno = segno;
        o_wordno = wordno;
        o_start = cycles;
        o_depth = List.length t.stack;
        o_seq = t.next_seq;
      }
      :: t.stack;
    t.next_seq <- t.next_seq + 1
  end

(* Sampling applies at completion, not at open: the LIFO stack is
   always fully maintained (matching must see every call), and whether
   a finished span is kept is a pure hash of its open-order sequence
   number — the same seeded workload keeps the same spans on every run
   and every shard.  A sampled-out span skips both sinks (histogram
   and ring buffer), so sampled percentiles are computed over the
   selected subset. *)
let complete t o ~cycles ~forced =
  if Event.sample_hit ~interval:t.sample_interval ~seed:t.sample_seed o.o_seq
  then begin
    let c =
      {
        kind = o.o_kind;
        from_ring = o.o_from_ring;
        to_ring = o.o_to_ring;
        segno = o.o_segno;
        wordno = o.o_wordno;
        start_cycles = o.o_start;
        end_cycles = cycles;
        depth = o.o_depth;
        seq = o.o_seq;
        forced;
      }
    in
    Histogram.observe (histogram t o.o_kind) (cycles - o.o_start);
    push_completed t c
  end
  else begin
    t.sampled_out <- t.sampled_out + 1;
    Counters.bump t.stats Spans_sampled_out
  end

(* [kind]: what the closer believes it is undoing.  The outward-return
   mechanism bounces through an intermediate hardware upward return (to
   the return-gate trampoline) before the gate closes the crossing, so
   a kind-blind close would end the outward span early and leave the
   gate's close unmatched.  A close whose expected kind disagrees with
   the innermost open span is part of such a mechanism, not the
   matching return — leave the span open. *)
let close_span ?kind t ~cycles =
  if t.enabled then
    match t.stack with
    | [] -> t.unmatched_returns <- t.unmatched_returns + 1
    | o :: rest -> (
        match kind with
        | Some k when k <> o.o_kind -> ()
        | _ ->
            t.stack <- rest;
            complete t o ~cycles ~forced:false)

let drain t ~cycles =
  List.iter (fun o -> complete t o ~cycles ~forced:true) t.stack;
  t.stack <- []

let completed t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    let j = t.head + i in
    let j = if j >= t.capacity then j - t.capacity else j in
    acc := t.buf.(j) :: !acc
  done;
  !acc

(* Checkpoint support.  The whole tracker state round-trips: open
   spans (innermost first, as stacked), retained completed spans,
   monotonic counters, and all four latency histograms. *)
type dump = {
  dump_stack : open_span list;
  dump_next_seq : int;
  dump_completed : completed list;
  dump_dropped : int;
  dump_unmatched : int;
  dump_sampled_out : int;
  dump_sample_interval : int;
  dump_sample_seed : int;
  dump_hists : (int array * int * int * int * int) array;
      (* same, down, up, recovery *)
}

let dump t =
  {
    dump_stack = t.stack;
    dump_next_seq = t.next_seq;
    dump_completed = completed t;
    dump_dropped = t.dropped;
    dump_unmatched = t.unmatched_returns;
    dump_sampled_out = t.sampled_out;
    dump_sample_interval = t.sample_interval;
    dump_sample_seed = t.sample_seed;
    dump_hists =
      [|
        Histogram.dump t.hist_same;
        Histogram.dump t.hist_down;
        Histogram.dump t.hist_up;
        Histogram.dump t.hist_recovery;
      |];
  }

let restore t d =
  if List.length d.dump_completed > t.capacity then
    invalid_arg "Span.restore: completed spans > capacity";
  if Array.length d.dump_hists <> 4 then
    invalid_arg "Span.restore: expected four histograms";
  if d.dump_sample_interval < 1 then
    invalid_arg "Span.restore: sample_interval < 1";
  clear t;
  t.stack <- d.dump_stack;
  t.next_seq <- d.dump_next_seq;
  List.iter (fun c -> push_completed t c) d.dump_completed;
  t.dropped <- d.dump_dropped;
  t.unmatched_returns <- d.dump_unmatched;
  t.sampled_out <- d.dump_sampled_out;
  t.sample_interval <- d.dump_sample_interval;
  t.sample_seed <- d.dump_sample_seed;
  Histogram.restore t.hist_same d.dump_hists.(0);
  Histogram.restore t.hist_down d.dump_hists.(1);
  Histogram.restore t.hist_up d.dump_hists.(2);
  Histogram.restore t.hist_recovery d.dump_hists.(3)
