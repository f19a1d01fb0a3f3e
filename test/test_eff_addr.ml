(* Effective-address formation (Fig. 5) at machine level. *)

let compute m instr =
  match Isa.Eff_addr.compute m instr with
  | Ok op -> op
  | Error f -> Alcotest.failf "unexpected fault %a" Rings.Fault.pp f

let expect_memory name (op : Isa.Eff_addr.operand) =
  match op with
  | Isa.Eff_addr.Memory { effective; addr } ->
      (Rings.Effective_ring.to_int effective, addr)
  | _ -> Alcotest.failf "%s: expected memory operand" name

(* Segment 1: code in ring 2.  Segment 2: data writable to ring 5
   holding indirect words.  Segment 3: final data, writable to 3. *)
let machine () =
  let m =
    Fixtures.build
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          ( 2,
            [|
              Fixtures.its ~ring:0 ~segno:3 ~wordno:7 ();
              Fixtures.its ~ring:6 ~segno:3 ~wordno:8 ();
              Fixtures.its ~indirect:true ~ring:0 ~segno:2 ~wordno:0 ();
            |],
            Fixtures.data_ring 5 );
          (3, [||], Fixtures.data_ring 3);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  (* PR1 addresses the indirect-word segment at the executing ring. *)
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  m

let test_ipr_relative () =
  let m = machine () in
  let e, addr =
    expect_memory "ipr-rel"
      (compute m (Fixtures.i ~offset:5 Isa.Opcode.LDA))
  in
  Alcotest.(check int) "effective = exec" 2 e;
  Alcotest.(check int) "segno = IPR's" 1 addr.Hw.Addr.segno;
  Alcotest.(check int) "wordno = offset" 5 addr.Hw.Addr.wordno

let test_pr_relative_folds_ring () =
  let m = machine () in
  Hw.Registers.set_pr m.Isa.Machine.regs 4
    (Hw.Registers.ptr ~ring:5 ~segno:3 ~wordno:10);
  let e, addr =
    expect_memory "pr-rel"
      (compute m (Fixtures.i ~base:(Isa.Instr.Pr 4) ~offset:3 Isa.Opcode.LDA))
  in
  Alcotest.(check int) "effective = max(exec, PR.RING)" 5 e;
  Alcotest.(check int) "segno from PR" 3 addr.Hw.Addr.segno;
  Alcotest.(check int) "offset added" 13 addr.Hw.Addr.wordno

let test_indexing () =
  let m = machine () in
  m.Isa.Machine.regs.Hw.Registers.xs.(3) <- 100;
  let _, addr =
    expect_memory "indexed"
      (compute m (Fixtures.i ~indexed:true ~xr:3 ~offset:5 Isa.Opcode.LDA))
  in
  Alcotest.(check int) "offset + X3" 105 addr.Hw.Addr.wordno

let test_immediate () =
  let m = machine () in
  (match compute m (Fixtures.i ~base:Isa.Instr.Immediate ~offset:42 Isa.Opcode.LDA) with
  | Isa.Eff_addr.Immediate w -> Alcotest.(check int) "value" 42 w
  | _ -> Alcotest.fail "expected immediate");
  (* Negative immediates are sign-extended from 18 bits. *)
  match
    compute m
      (Fixtures.i ~base:Isa.Instr.Immediate
         ~offset:((1 lsl 18) - 1)
         Isa.Opcode.LDA)
  with
  | Isa.Eff_addr.Immediate w ->
      Alcotest.(check int) "minus one" (-1) (Hw.Word.to_signed w)
  | _ -> Alcotest.fail "expected immediate"

let test_indirection_folds_ind_ring_and_r1 () =
  let m = machine () in
  (* Via indirect word 1 in segment 2: IND.RING = 6, container write
     top (segment 2's R1) = 5; effective = max(2, 6, 5) = 6. *)
  let e, addr =
    expect_memory "indirect"
      (compute m
         (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:1
            Isa.Opcode.LDA))
  in
  Alcotest.(check int) "effective folds IND.RING" 6 e;
  Alcotest.(check int) "target segno" 3 addr.Hw.Addr.segno;
  Alcotest.(check int) "target wordno" 8 addr.Hw.Addr.wordno

let test_indirection_folds_container_r1 () =
  let m = machine () in
  (* Via indirect word 0: IND.RING = 0, but the container's write
     bracket top is 5 — a ring-5 procedure could have altered the
     word, so validation must be at ring 5. *)
  let e, _ =
    expect_memory "indirect r1"
      (compute m
         (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
            Isa.Opcode.LDA))
  in
  Alcotest.(check int) "effective folds container R1" 5 e

let test_ablation_no_r1 () =
  (* With the R1 term ablated the same reference validates at the
     (unsafely low) ring 2 — the confused-deputy hole. *)
  let m =
    Fixtures.build ~use_r1_in_indirection:false
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          ( 2,
            [| Fixtures.its ~ring:0 ~segno:3 ~wordno:7 () |],
            Fixtures.data_ring 5 );
          (3, [||], Fixtures.data_ring 3);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  let e, _ =
    expect_memory "ablated"
      (compute m
         (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
            Isa.Opcode.LDA))
  in
  Alcotest.(check int) "effective stays at 2" 2 e

let test_indirect_fetch_validated () =
  (* The indirect word itself must be readable at the effective ring
     as it stands: put the chain in a segment readable only to ring 1
     while executing in ring 2. *)
  let m =
    Fixtures.build
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          ( 2,
            [| Fixtures.its ~ring:0 ~segno:3 ~wordno:0 () |],
            Fixtures.data_ring 1 );
          (3, [||], Fixtures.data_ring 3);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  match
    Isa.Eff_addr.compute m
      (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
         Isa.Opcode.LDA)
  with
  | Error (Rings.Fault.Read_bracket_violation _) -> ()
  | Error f -> Alcotest.failf "wrong fault %a" Rings.Fault.pp f
  | Ok _ -> Alcotest.fail "indirect fetch not validated"

let test_chained_indirection () =
  let m = machine () in
  (* Word 2 of segment 2 points indirectly back at word 0, which
     points at 3|7. *)
  let _, addr =
    expect_memory "chain"
      (compute m
         (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:2
            Isa.Opcode.LDA))
  in
  Alcotest.(check int) "final wordno" 7 addr.Hw.Addr.wordno;
  Alcotest.(check int) "two indirections"
    2
    (Trace.Counters.get m.Isa.Machine.counters Indirections)

let test_runaway_indirection () =
  let m =
    Fixtures.build
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          ( 2,
            [| Fixtures.its ~indirect:true ~ring:0 ~segno:2 ~wordno:0 () |],
            Fixtures.data_ring 5 );
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  match
    Isa.Eff_addr.compute m
      (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
         Isa.Opcode.LDA)
  with
  | exception Isa.Eff_addr.Runaway_indirection _ -> ()
  | _ -> Alcotest.fail "expected Runaway_indirection"

(* A chain of distinct indirect words in segment 2: word k points at
   word k+1, and word [last] ends the chain (or not).  The guard allows
   64 levels of indirection and refuses the 65th, naming the address it
   would have resolved next. *)
let chain_machine ~last_indirect =
  let words =
    Array.init 64 (fun k ->
        if k < 63 || last_indirect then
          Fixtures.its ~indirect:true ~ring:0 ~segno:2 ~wordno:(k + 1) ()
        else Fixtures.its ~ring:0 ~segno:3 ~wordno:5 ())
  in
  let m =
    Fixtures.build
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          (2, words, Fixtures.data_ring 5);
          (3, [||], Fixtures.data_ring 3);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:2 ~segno:2 ~wordno:0);
  m

let chain_instr =
  Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0 Isa.Opcode.LDA

let test_runaway_depth_boundary () =
  let m = chain_machine ~last_indirect:false in
  let _, addr = expect_memory "64 levels" (compute m chain_instr) in
  Alcotest.(check string) "64 levels resolve" "3|000005"
    (Format.asprintf "%a" Hw.Addr.pp addr);
  Alcotest.(check int) "64 indirect words read" 64
    (Trace.Counters.get m.Isa.Machine.counters Indirections);
  let m = chain_machine ~last_indirect:true in
  match Isa.Eff_addr.compute m chain_instr with
  | exception Isa.Eff_addr.Runaway_indirection addr ->
      Alcotest.(check string) "carries the 65th address" "2|000100"
        (Format.asprintf "%a" Hw.Addr.pp addr);
      Alcotest.(check int) "refused before reading it" 64
        (Trace.Counters.get m.Isa.Machine.counters Indirections)
  | _ -> Alcotest.fail "expected Runaway_indirection at depth 65"

let test_645_mode_no_ring_folding () =
  let m =
    Fixtures.build ~mode:Isa.Machine.Ring_software_645
      ~segments:
        [
          (1, [||], Fixtures.code_ring 2);
          ( 2,
            [| Fixtures.its ~ring:6 ~segno:3 ~wordno:8 () |],
            Fixtures.data_ring 5 );
          (3, [||], Fixtures.data_ring 3);
        ]
      ()
  in
  Fixtures.set_ipr m ~ring:2 ~segno:1 ~wordno:0;
  Hw.Registers.set_pr m.Isa.Machine.regs 1
    (Hw.Registers.ptr ~ring:7 ~segno:2 ~wordno:0);
  let e, _ =
    expect_memory "645"
      (compute m
         (Fixtures.i ~base:(Isa.Instr.Pr 1) ~indirect:true ~offset:0
            Isa.Opcode.LDA))
  in
  Alcotest.(check int) "no ring arithmetic on the 645" 2 e

let suite =
  [
    ( "eff-addr",
      [
        Alcotest.test_case "IPR-relative" `Quick test_ipr_relative;
        Alcotest.test_case "PR-relative folds ring" `Quick
          test_pr_relative_folds_ring;
        Alcotest.test_case "indexing" `Quick test_indexing;
        Alcotest.test_case "immediate" `Quick test_immediate;
        Alcotest.test_case "runaway guard fires at depth 65" `Quick
          test_runaway_depth_boundary;
        Alcotest.test_case "indirection folds IND.RING" `Quick
          test_indirection_folds_ind_ring_and_r1;
        Alcotest.test_case "indirection folds container R1" `Quick
          test_indirection_folds_container_r1;
        Alcotest.test_case "ablation: no R1 fold" `Quick test_ablation_no_r1;
        Alcotest.test_case "indirect fetch validated" `Quick
          test_indirect_fetch_validated;
        Alcotest.test_case "chained indirection" `Quick
          test_chained_indirection;
        Alcotest.test_case "runaway indirection" `Quick
          test_runaway_indirection;
        Alcotest.test_case "645: no ring folding" `Quick
          test_645_mode_no_ring_folding;
      ] );
  ]
