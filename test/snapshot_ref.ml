(* Reference model for {!Os.Snapshot.flatten}: the dense fold it
   replaced.  The base's memory is unpacked into an array of [size]
   words, each delta page is zeroed and its pairs laid over it, and
   every nonzero word is re-encoded.  Its cost is proportional to
   memory, which is why the library no longer folds this way; as a
   model it is hard to get wrong.  It decodes the v4 wire format with
   its own minimal reader, so the differential property in
   [Test_snapshot] does not lean on the code it checks.  A machine
   carrying a saved fault state is outside the model (the property's
   machines never fault). *)

type error = Os.Snapshot.error

exception Fail of error

let corrupt msg = raise (Fail (Os.Snapshot.Corrupt msg))
let magic = "RINGSNAP"
let delta_magic = "RINGDELT"
let header_len = 32
let page_words = Hw.Memory.page_words

let checksum s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Int64.to_int !h

let w_int b n = Buffer.add_int64_be b (Int64.of_int n)

let seal ~magic:m payload =
  let b = Buffer.create (header_len + String.length payload) in
  Buffer.add_string b m;
  w_int b Os.Snapshot.version;
  w_int b (String.length payload);
  w_int b (checksum payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Re-seal an edited image: same magic, checksum of its payload. *)
let reseal image =
  seal ~magic:(String.sub image 0 8)
    (String.sub image header_len (String.length image - header_len))

type reader = { data : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.data then
    raise (Fail Os.Snapshot.Truncated)

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_str r =
  let n = r_int r in
  if n < 0 then corrupt "negative string length";
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let skip_ints r n =
  for _ = 1 to n do
    ignore (r_int r)
  done

let skip_bool r =
  match r_int r with 0 | 1 -> () | n -> corrupt (Printf.sprintf "bad boolean %d" n)

let skip_opt f r =
  match r_int r with
  | 0 -> ()
  | 1 -> f r
  | n -> corrupt (Printf.sprintf "bad option tag %d" n)

let skip_list f r =
  let n = r_int r in
  if n < 0 then corrupt "negative list length";
  for _ = 1 to n do
    f r
  done

(* dbr, IPR, the pointer registers, A, Q, the index registers and the
   two indicators. *)
let skip_regs r =
  skip_ints r 3;
  skip_ints r 3;
  skip_list (fun r -> skip_ints r 3) r;
  skip_ints r 2;
  skip_list (fun r -> skip_ints r 1) r;
  skip_bool r;
  skip_bool r

(* Counters, then machine configuration and processor state: the bytes
   before the memory section of a full payload. *)
let skip_pre r =
  skip_list (fun r -> ignore (r_str r); ignore (r_int r)) r;
  skip_ints r 2;
  skip_bool r;
  skip_bool r;
  skip_regs r;
  skip_bool r;
  skip_opt (fun _ -> failwith "Snapshot_ref: saved fault state not modeled") r;
  skip_opt (fun r -> skip_ints r 1) r;
  skip_opt (fun r -> skip_ints r 1) r;
  skip_opt (fun r -> skip_ints r 6) r;
  skip_bool r;
  skip_opt (fun r -> skip_ints r 4) r;
  skip_bool r;
  skip_bool r

let parse_sealed m image =
  if String.length image < String.length m then raise (Fail Os.Snapshot.Truncated);
  if not (String.equal (String.sub image 0 (String.length m)) m) then
    raise (Fail Os.Snapshot.Bad_magic);
  if String.length image < header_len then raise (Fail Os.Snapshot.Truncated);
  let hr = { data = image; pos = String.length m } in
  let v = r_int hr in
  if v <> Os.Snapshot.version then
    raise (Fail (Os.Snapshot.Bad_version { expected = Os.Snapshot.version; got = v }));
  let len = r_int hr in
  let sum = r_int hr in
  if len < 0 then corrupt "negative payload length";
  if String.length image - header_len < len then raise (Fail Os.Snapshot.Truncated);
  if String.length image - header_len > len then
    corrupt "trailing bytes after payload";
  let payload = String.sub image header_len len in
  if checksum payload <> sum then raise (Fail Os.Snapshot.Checksum_mismatch);
  { data = payload; pos = 0 }

(* Offset in [image] of a full image's memory pair count; the pairs
   follow it. *)
let memory_pairs_at image =
  let r = parse_sealed magic image in
  skip_pre r;
  header_len + r.pos + 8

(* Offset in [image] of a delta's memory size field; its pages follow. *)
let delta_size_at image =
  let r = parse_sealed delta_magic image in
  ignore (r_int r);
  ignore (r_str r);
  header_len + r.pos

let flatten ~base deltas =
  try
    let r = parse_sealed magic base in
    skip_pre r;
    let pre = ref (String.sub r.data 0 r.pos) in
    let size = r_int r in
    if size < 0 then corrupt "negative memory size";
    let count = r_int r in
    if count < 0 then corrupt "negative memory pair count";
    let words = Array.make size 0 in
    let prev = ref (-1) in
    for _ = 1 to count do
      let a = r_int r in
      let w = r_int r in
      if a <= !prev || a >= size then corrupt "memory pairs not ascending";
      words.(a) <- w;
      prev := a
    done;
    let post = ref (String.sub r.data r.pos (String.length r.data - r.pos)) in
    let prev_sum = ref (checksum r.data) in
    List.iteri
      (fun i delta ->
        let r = parse_sealed delta_magic delta in
        if r_int r <> !prev_sum then
          raise
            (Fail
               (if i = 0 then Os.Snapshot.Stale_base else Os.Snapshot.Broken_chain i));
        let pre_bytes = r_str r in
        let dsize = r_int r in
        if dsize <> size then
          raise
            (Fail
               (Os.Snapshot.Shape_mismatch
                  (Printf.sprintf "delta %d memory size %d, base has %d" i dsize
                     size)));
        let npages = r_int r in
        if npages < 0 then corrupt "negative page count";
        let prev_page = ref (-1) in
        for _ = 1 to npages do
          let p = r_int r in
          let len = r_int r in
          let base_addr = p * page_words in
          if p <= !prev_page then corrupt "delta pages not ascending";
          if
            base_addr < 0 || base_addr >= size
            || len <> min page_words (size - base_addr)
          then corrupt "delta page out of range";
          Array.fill words base_addr len 0;
          let nnz = r_int r in
          if nnz < 0 || nnz > len then corrupt "delta page pair count";
          let prev_off = ref (-1) in
          for _ = 1 to nnz do
            let off = r_int r in
            let w = r_int r in
            if off <= !prev_off || off >= len then
              corrupt "delta page pairs not ascending";
            if w = 0 then corrupt "zero word in sparse delta page";
            words.(base_addr + off) <- w;
            prev_off := off
          done;
          prev_page := p
        done;
        pre := pre_bytes;
        post := String.sub r.data r.pos (String.length r.data - r.pos);
        prev_sum := checksum r.data)
      deltas;
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b !pre;
    w_int b size;
    let pairs = Buffer.create 4096 in
    let count = ref 0 in
    Array.iteri
      (fun a w ->
        if w <> 0 then begin
          incr count;
          w_int pairs a;
          w_int pairs w
        end)
      words;
    w_int b !count;
    Buffer.add_buffer b pairs;
    Buffer.add_string b !post;
    Ok (seal ~magic (Buffer.contents b))
  with
  | Fail e -> Error e
  | Invalid_argument msg -> Error (Os.Snapshot.Corrupt msg)
