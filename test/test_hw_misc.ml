(* Addresses, memory, registers and descriptor-segment translation. *)

let counters () = Trace.Counters.create ()

(* Addr *)

let test_addr_bounds () =
  (try
     ignore (Hw.Addr.v ~segno:(Hw.Addr.max_segno + 1) ~wordno:0);
     Alcotest.fail "oversized segno accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Hw.Addr.v ~segno:0 ~wordno:(Hw.Addr.max_wordno + 1));
    Alcotest.fail "oversized wordno accepted"
  with Invalid_argument _ -> ()

let test_addr_offset_wraps () =
  let a = Hw.Addr.v ~segno:3 ~wordno:Hw.Addr.max_wordno in
  let a' = Hw.Addr.offset a 1 in
  Alcotest.(check int) "wraps to zero" 0 a'.Hw.Addr.wordno;
  Alcotest.(check int) "same segment" 3 a'.Hw.Addr.segno

(* Memory *)

let test_memory_rw_and_accounting () =
  let c = counters () in
  let mem = Hw.Memory.create ~size:64 c in
  Hw.Memory.write mem 10 42;
  Alcotest.(check int) "read back" 42 (Hw.Memory.read mem 10);
  Alcotest.(check int) "one write" 1 (Trace.Counters.get c Memory_writes);
  Alcotest.(check int) "one read" 1 (Trace.Counters.get c Memory_reads);
  Alcotest.(check int) "two cycles" 2 (Trace.Counters.cycles c);
  ignore (Hw.Memory.read_silent mem 10);
  Hw.Memory.write_silent mem 11 1;
  Alcotest.(check int) "silent ops unaccounted" 2 (Trace.Counters.cycles c)

let test_memory_bounds () =
  let mem = Hw.Memory.create ~size:64 (counters ()) in
  try
    ignore (Hw.Memory.read mem 64);
    Alcotest.fail "out of range read accepted"
  with Invalid_argument _ -> ()

let test_memory_masks () =
  let mem = Hw.Memory.create ~size:64 (counters ()) in
  Hw.Memory.write mem 0 (-1);
  Alcotest.(check int) "written masked to 36 bits" Hw.Word.mask
    (Hw.Memory.read mem 0)

(* A released memory comes back exactly as [create] builds it: the
   last, partial page (1500 is not a multiple of [page_words]) is
   zeroed up to the memory's size, the stamps, dirty map and mark start
   over, and the tag store is disabled until enabled again, then clear. *)
let test_memory_release_resets () =
  let size = 1500 in
  Alcotest.(check bool) "size is not page-aligned" true
    (size mod Hw.Memory.page_words <> 0);
  let mem = Hw.Memory.create ~size (counters ()) in
  Hw.Memory.enable_tags mem;
  Hw.Memory.write_silent mem 3 7;
  Hw.Memory.write_silent mem (size - 1) 42;
  Hw.Memory.set_tag mem (size - 1);
  Hw.Memory.set_tag mem 0;
  Hw.Memory.set_mark mem "image";
  Hw.Memory.clear_dirty mem;
  Hw.Memory.write_silent mem 5 1;
  let again = Hw.Memory.create ~storage:(Hw.Memory.release mem) (counters ()) in
  Alcotest.(check int) "same size" size (Hw.Memory.size again);
  for a = 0 to size - 1 do
    if Hw.Memory.read_silent again a <> 0 then
      Alcotest.failf "word %d not zero after release" a
  done;
  Alcotest.(check (list int)) "nothing dirty" [] (Hw.Memory.dirty_pages again);
  Alcotest.(check (list int)) "nothing ever written" []
    (Hw.Memory.pages_since again ~epoch:0);
  Alcotest.(check int) "dirty generation" 0 (Hw.Memory.dirty_generation again);
  Alcotest.(check int) "mark gone" 0 (Hw.Memory.mark_epoch again "image");
  Alcotest.(check int) "clock starts over" 1 (Hw.Memory.epoch again);
  Alcotest.(check bool) "tags disabled" false (Hw.Memory.tags_enabled again);
  Hw.Memory.enable_tags again;
  Alcotest.(check (list int)) "tags clear" [] (Hw.Memory.tagged_addrs again)

let test_memory_release_poisons () =
  let mem = Hw.Memory.create ~size:1500 (counters ()) in
  Hw.Memory.enable_tags mem;
  let _storage = Hw.Memory.release mem in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s through a released memory accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "read" (fun () -> ignore (Hw.Memory.read mem 0));
  raises "write" (fun () -> Hw.Memory.write mem 0 1);
  raises "set_tag" (fun () -> Hw.Memory.set_tag mem 0);
  Alcotest.(check int) "size" 0 (Hw.Memory.size mem)

(* Registers *)

let test_registers_prs () =
  let regs = Hw.Registers.create () in
  let p = Hw.Registers.ptr ~ring:4 ~segno:10 ~wordno:5 in
  Hw.Registers.set_pr regs 3 p;
  Alcotest.(check bool) "stored" true (Hw.Registers.get_pr regs 3 = p);
  try
    ignore (Hw.Registers.get_pr regs 8);
    Alcotest.fail "PR8 accepted"
  with Invalid_argument _ -> ()

let test_maximize_pr_rings () =
  let regs = Hw.Registers.create () in
  Hw.Registers.set_pr regs 0 (Hw.Registers.ptr ~ring:1 ~segno:0 ~wordno:0);
  Hw.Registers.set_pr regs 1 (Hw.Registers.ptr ~ring:6 ~segno:0 ~wordno:0);
  Hw.Registers.maximize_pr_rings regs (Rings.Ring.v 4);
  Alcotest.(check int) "raised to 4" 4
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 0).Hw.Registers.ring);
  Alcotest.(check int) "6 untouched" 6
    (Rings.Ring.to_int (Hw.Registers.get_pr regs 1).Hw.Registers.ring)

let test_indicators () =
  let regs = Hw.Registers.create () in
  Hw.Registers.set_indicators regs 0;
  Alcotest.(check bool) "zero on" true regs.Hw.Registers.ind_zero;
  Hw.Registers.set_indicators regs (Hw.Word.of_signed (-3));
  Alcotest.(check bool) "zero off" false regs.Hw.Registers.ind_zero;
  Alcotest.(check bool) "negative on" true regs.Hw.Registers.ind_negative

let test_copy_restore () =
  let regs = Hw.Registers.create () in
  regs.Hw.Registers.a <- 7;
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:3 ~segno:9 ~wordno:1);
  let saved = Hw.Registers.copy regs in
  regs.Hw.Registers.a <- 99;
  Hw.Registers.set_pr regs 2 (Hw.Registers.ptr ~ring:0 ~segno:0 ~wordno:0);
  Hw.Registers.restore regs ~from:saved;
  Alcotest.(check int) "A restored" 7 regs.Hw.Registers.a;
  Alcotest.(check int) "PR2 restored" 9
    (Hw.Registers.get_pr regs 2).Hw.Registers.addr.Hw.Addr.segno;
  (* The copy is deep: mutating the copy must not affect the live file. *)
  saved.Hw.Registers.xs.(0) <- 42;
  Alcotest.(check int) "deep copy" 0 regs.Hw.Registers.xs.(0)

(* Descriptor *)

let with_descseg f =
  let c = counters () in
  let mem = Hw.Memory.create ~size:4096 c in
  let dbr = { Hw.Registers.base = 0; bound = 16; stack_base = 0 } in
  f c mem dbr

let access = Rings.Access.data_segment ~writable_to:4 ~readable_to:5 ()

let test_descriptor_fetch_store () =
  with_descseg (fun _c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      match Hw.Descriptor.fetch_sdw mem dbr ~segno:5 with
      | Ok sdw' ->
          Alcotest.(check bool) "round trip" true (Hw.Sdw.equal sdw sdw')
      | Error f -> Alcotest.failf "unexpected fault %a" Rings.Fault.pp f)

let test_descriptor_missing () =
  with_descseg (fun _c mem dbr ->
      (match Hw.Descriptor.fetch_sdw mem dbr ~segno:3 with
      | Error (Rings.Fault.Missing_segment { segno }) ->
          Alcotest.(check int) "segno" 3 segno
      | _ -> Alcotest.fail "expected Missing_segment (absent)");
      match Hw.Descriptor.fetch_sdw mem dbr ~segno:16 with
      | Error (Rings.Fault.Missing_segment _) -> ()
      | _ -> Alcotest.fail "expected Missing_segment (out of DBR bound)")

let test_translate_bounds () =
  with_descseg (fun _c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      (match Hw.Descriptor.resolve mem dbr (Hw.Addr.v ~segno:5 ~wordno:63) with
      | Ok (_, abs) -> Alcotest.(check int) "absolute" (1024 + 63) abs
      | Error f -> Alcotest.failf "unexpected fault %a" Rings.Fault.pp f);
      match Hw.Descriptor.resolve mem dbr (Hw.Addr.v ~segno:5 ~wordno:64) with
      | Error (Rings.Fault.Bound_violation { segno; wordno; bound }) ->
          Alcotest.(check int) "segno" 5 segno;
          Alcotest.(check int) "wordno" 64 wordno;
          Alcotest.(check int) "bound" 64 bound
      | _ -> Alcotest.fail "expected Bound_violation")

let test_sdw_fetch_counted () =
  with_descseg (fun c mem dbr ->
      let sdw = Hw.Sdw.v ~base:1024 ~bound:64 access in
      Hw.Descriptor.store_sdw mem dbr ~segno:5 sdw;
      let before = Trace.Counters.get c Sdw_fetches in
      ignore (Hw.Descriptor.fetch_sdw mem dbr ~segno:5);
      Alcotest.(check int) "counted" (before + 1)
        (Trace.Counters.get c Sdw_fetches))

let suite =
  [
    ( "hw-misc",
      [
        Alcotest.test_case "addr bounds" `Quick test_addr_bounds;
        Alcotest.test_case "addr offset wraps" `Quick test_addr_offset_wraps;
        Alcotest.test_case "memory rw and accounting" `Quick
          test_memory_rw_and_accounting;
        Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
        Alcotest.test_case "memory masks" `Quick test_memory_masks;
        Alcotest.test_case "released memory resets" `Quick
          test_memory_release_resets;
        Alcotest.test_case "released handle poisoned" `Quick
          test_memory_release_poisons;
        Alcotest.test_case "registers PRs" `Quick test_registers_prs;
        Alcotest.test_case "maximize PR rings" `Quick test_maximize_pr_rings;
        Alcotest.test_case "indicators" `Quick test_indicators;
        Alcotest.test_case "copy/restore" `Quick test_copy_restore;
        Alcotest.test_case "descriptor fetch/store" `Quick
          test_descriptor_fetch_store;
        Alcotest.test_case "descriptor missing" `Quick
          test_descriptor_missing;
        Alcotest.test_case "translate bounds" `Quick test_translate_bounds;
        Alcotest.test_case "SDW fetch counted" `Quick test_sdw_fetch_counted;
      ] );
  ]
