(* Spans for the traced run, kept in memory and written out at the end.

   A span wraps one call the benchmark makes into a layer's public
   function: its name is the layer call (["os.snapshot.warm_boot"]), its
   parent is the span open around it, and its request id is the op (or
   served request) it belongs to.  The untraced run passes [None]
   everywhere, so it pays one match per call and records nothing. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** [-1] for a root span. *)
  start : float;  (** Host seconds on the monotonic clock, {!now}. *)
  stop : float;
}

type t = {
  mutable spans : span list;  (** Completed spans, newest first. *)
  mutable stack : int list;  (** Ids of the open spans, innermost first. *)
  mutable next_id : int;
  mutable req : int;
  counts : (string, float) Hashtbl.t;
      (** Work counted at the same boundaries as the spans. *)
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let create () =
  { spans = []; stack = []; next_id = 0; req = 0; counts = Hashtbl.create 16 }
let set_req tr r = Option.iter (fun t -> t.req <- r) tr

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent t = match t.stack with [] -> -1 | p :: _ -> p

(* Record a span whose interval was measured by the caller — a slice
   seen only from the scheduler's callbacks. *)
let record tr name ~start ~stop =
  Option.iter
    (fun t ->
      let id = fresh_id t in
      t.spans <- { id; name; req = t.req; parent = parent t; start; stop } :: t.spans)
    tr

let with_span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = fresh_id t and parent = parent t and req = t.req in
      t.stack <- id :: t.stack;
      let start = now () in
      Fun.protect f ~finally:(fun () ->
          let stop = now () in
          t.stack <- List.tl t.stack;
          t.spans <- { id; name; req; parent; start; stop } :: t.spans)

let count tr name v =
  Option.iter
    (fun t ->
      Hashtbl.replace t.counts name
        (v +. Option.value (Hashtbl.find_opt t.counts name) ~default:0.0))
    tr

let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.0
let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* Durations, in seconds, of every span called [name], oldest first. *)
let durations t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    (spans t)

(* Self time per span name: a span's duration minus the time its child
   spans cover.  Children of one span never overlap (every span opens
   and closes on the calling domain), so the covered time is the sum of
   their durations. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.0))
    t.spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0
      in
      Hashtbl.replace self s.name
        (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.0))
    t.spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* One JSON object per span, times in microseconds from the first
   span's start. *)
let write_jsonl t path =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"req\": %d, \"parent\": %d, \"start_us\": \
         %.1f, \"end_us\": %.1f}\n"
        s.id s.name s.req s.parent
        ((s.start -. origin) *. 1e6)
        ((s.stop -. origin) *. 1e6))
    (spans t);
  close_out oc
