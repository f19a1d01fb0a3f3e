let words_per_sdw = 2

(* The counter-free fetch: what the hardware reads from the descriptor
   segment, without modeling any activity.  The machine's host-side
   SDW cache refills through this so cache residency never perturbs
   the modeled cycle accounting. *)
let fetch_sdw_silent mem (dbr : Registers.dbr) ~segno =
  if segno < 0 || segno >= dbr.bound then
    Error (Rings.Fault.Missing_segment { segno })
  else
    let w0 = Memory.read_silent mem (dbr.base + (words_per_sdw * segno)) in
    let w1 =
      Memory.read_silent mem (dbr.base + (words_per_sdw * segno) + 1)
    in
    match Sdw.decode (w0, w1) with
    | Error _ -> Error (Rings.Fault.Missing_segment { segno })
    | Ok sdw ->
        if sdw.Sdw.present then Ok sdw
        else Error (Rings.Fault.Missing_segment { segno })

let fetch_sdw mem (dbr : Registers.dbr) ~segno =
  Trace.Counters.bump (Memory.counters mem) Sdw_fetches;
  Trace.Counters.charge (Memory.counters mem) Costs.sdw_fetch;
  fetch_sdw_silent mem dbr ~segno

let store_sdw mem (dbr : Registers.dbr) ~segno sdw =
  if segno < 0 || segno >= dbr.bound then
    invalid_arg
      (Printf.sprintf "Descriptor.store_sdw: segno %d outside DBR bound %d"
         segno dbr.bound);
  let w0, w1 = Sdw.encode sdw in
  let a0 = dbr.base + (words_per_sdw * segno) in
  Memory.write_silent mem a0 w0;
  Memory.write_silent mem (a0 + 1) w1;
  (* In the capability backend every installed SDW is a capability at
     rest: mint its validity tags.  [store_sdw] is the kernel's only
     descriptor-install path, so tags exist exactly on words the
     kernel wrote — any other store clears them. *)
  if Memory.tags_enabled mem then begin
    Memory.set_tag mem a0;
    Memory.set_tag mem (a0 + 1)
  end

let translate (sdw : Sdw.t) ~segno ~wordno =
  if Sdw.contains sdw ~wordno then Ok (sdw.base + wordno)
  else
    Error (Rings.Fault.Bound_violation { segno; wordno; bound = sdw.bound })

(* Paged translation: an extra PTW retrieval, counted and charged as a
   memory access, then the frame base plus the in-page offset. *)
let translate_paged mem (sdw : Sdw.t) ~segno ~wordno =
  if not (Sdw.contains sdw ~wordno) then
    Error (Rings.Fault.Bound_violation { segno; wordno; bound = sdw.bound })
  else begin
    let pageno = Paging.page_of_wordno wordno in
    Trace.Counters.bump (Memory.counters mem) Ptw_fetches;
    let ptw = Paging.decode_ptw (Memory.read mem (sdw.base + pageno)) in
    if ptw.Paging.present then
      Ok (ptw.Paging.frame_base + Paging.offset_in_page wordno)
    else Error (Rings.Fault.Missing_page { segno; pageno })
  end

let resolve mem dbr (addr : Addr.t) =
  match fetch_sdw mem dbr ~segno:addr.segno with
  | Error _ as e -> e
  | Ok sdw -> (
      let translated =
        if sdw.Sdw.paged then
          translate_paged mem sdw ~segno:addr.segno ~wordno:addr.wordno
        else translate sdw ~segno:addr.segno ~wordno:addr.wordno
      in
      match translated with
      | Error _ as e -> e
      | Ok abs -> Ok (sdw, abs))
