(* The disassembler, including assemble-then-disassemble round trips
   and the listing renderer. *)

let test_instruction_rendering () =
  let check expected instr =
    Alcotest.(check string) expected expected (Asm.Disasm.instruction instr)
  in
  check "lda =5" (Isa.Instr.v ~base:Isa.Instr.Immediate ~offset:5 Isa.Opcode.LDA);
  check "sta pr6|2" (Isa.Instr.v ~base:(Isa.Instr.Pr 6) ~offset:2 Isa.Opcode.STA);
  check "lda pr2|1,*"
    (Isa.Instr.v ~base:(Isa.Instr.Pr 2) ~indirect:true ~offset:1
       Isa.Opcode.LDA);
  check "eap pr5, pr0|0,*"
    (Isa.Instr.v ~base:(Isa.Instr.Pr 0) ~indirect:true ~xr:5 Isa.Opcode.EAP);
  check "mme =2" (Isa.Instr.v ~base:Isa.Instr.Immediate ~offset:2 Isa.Opcode.MME);
  check "nop" (Isa.Instr.v Isa.Opcode.NOP)

let test_symbolic_offsets () =
  let symbols = [ ("start", 0); ("loop", 4) ] in
  Alcotest.(check string)
    "exact label" "tra loop"
    (Asm.Disasm.instruction ~symbols
       (Isa.Instr.v ~offset:4 Isa.Opcode.TRA));
  Alcotest.(check string)
    "label+offset" "tra loop+2"
    (Asm.Disasm.instruction ~symbols
       (Isa.Instr.v ~offset:6 Isa.Opcode.TRA))

let test_classification () =
  (match Asm.Disasm.classify (Isa.Instr.encode (Isa.Instr.v Isa.Opcode.NOP)) with
  | Asm.Disasm.Instruction _ -> ()
  | _ -> Alcotest.fail "NOP should classify as instruction");
  let its =
    Isa.Indword.encode (Isa.Indword.v ~ring:4 ~segno:10 ~wordno:5 ())
  in
  (match Asm.Disasm.classify its with
  | Asm.Disasm.Instruction _ ->
      (* An ITS whose bits also decode as an instruction is rendered
         as an instruction — the heuristic prefers code. *)
      ()
  | Asm.Disasm.Indirect_word ind ->
      Alcotest.(check int) "segno" 10 ind.Isa.Indword.addr.Hw.Addr.segno
  | Asm.Disasm.Data _ -> Alcotest.fail "ITS classified as raw data");
  match Asm.Disasm.classify 0 with
  | Asm.Disasm.Instruction i ->
      Alcotest.(check bool) "zero decodes as the zero opcode" true
        (i.Isa.Instr.opcode = Isa.Opcode.NOP)
  | _ -> Alcotest.fail "zero word"

let test_segment_dump () =
  let src = "start:  lda =1\nloop:   tra loop\n" in
  match Asm.Assemble.assemble src with
  | Error _ -> Alcotest.fail "assembly failed"
  | Ok prog ->
      let dump =
        Asm.Disasm.segment ~symbols:prog.Asm.Assemble.symbols
          ~base_label:"demo" prog.Asm.Assemble.words
      in
      let has needle =
        let n = String.length needle and h = String.length dump in
        let rec go i =
          i + n <= h && (String.sub dump i n = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "segment header" true (has "; segment demo");
      Alcotest.(check bool) "start label" true (has "start:");
      Alcotest.(check bool) "loop label" true (has "loop:");
      Alcotest.(check bool) "self transfer symbolic" true (has "tra loop")

(* Round trip: assemble a small program, disassemble every word, and
   reassemble the disassembly of the instructions — same encodings. *)
let test_reassembly_roundtrip () =
  let src =
    "start:  lda =7\n\
    \        sta pr6|2\n\
    \        ldx x3, =1\n\
    \        tra start\n"
  in
  match Asm.Assemble.assemble src with
  | Error _ -> Alcotest.fail "assembly failed"
  | Ok prog ->
      Array.iter
        (fun w ->
          match Asm.Disasm.classify w with
          | Asm.Disasm.Instruction i -> (
              let line =
                "    "
                ^ Asm.Disasm.instruction ~symbols:prog.Asm.Assemble.symbols i
                ^ "\n"
              in
              (* Labels in the rendering refer to the original symbol
                 table; provide them via an .org trick: assemble with
                 the symbols bound through equ-like .org is overkill —
                 instead render without symbols for exactness. *)
              let line_plain = "    " ^ Asm.Disasm.instruction i ^ "\n" in
              ignore line;
              match Asm.Assemble.assemble line_plain with
              | Ok p2 ->
                  Alcotest.(check int) "reassembles to the same word" w
                    p2.Asm.Assemble.words.(0)
              | Error errs ->
                  Alcotest.failf "reassembly failed for %S: %a" line_plain
                    (Format.pp_print_list Asm.Assemble.pp_error)
                    errs)
          | _ -> ())
        prog.Asm.Assemble.words

(* Immediates across the whole signed 18-bit range, including the
   negative ones whose field has bit 17 set: assemble, disassemble and
   assemble again must give the same word. *)
let test_immediate_roundtrip () =
  let assemble_one line =
    match Asm.Assemble.assemble ("    " ^ line ^ "\n") with
    | Ok p -> p.Asm.Assemble.words.(0)
    | Error errs ->
        Alcotest.failf "assembly failed for %S: %a" line
          (Format.pp_print_list Asm.Assemble.pp_error)
          errs
  in
  List.iter
    (fun mnemonic ->
      List.iter
        (fun v ->
          let src = Printf.sprintf "%s =%d" mnemonic v in
          let w = assemble_one src in
          let text =
            match Asm.Disasm.classify w with
            | Asm.Disasm.Instruction i -> Asm.Disasm.instruction i
            | _ -> Alcotest.failf "%s: not disassembled as an instruction" src
          in
          Alcotest.(check string) "renders the signed value" src text;
          Alcotest.(check int) (src ^ " reassembles") w (assemble_one text))
        [ -131072; -1; 0; 1; 131071 ])
    [ "lda"; "ada" ]

let prop_disasm_total =
  QCheck.Test.make ~name:"disassembly total over all words" ~count:500
    Gen.word36 (fun w ->
      String.length (Asm.Disasm.word w) > 0)

let suite =
  [
    ( "disasm",
      [
        Alcotest.test_case "instruction rendering" `Quick
          test_instruction_rendering;
        Alcotest.test_case "symbolic offsets" `Quick test_symbolic_offsets;
        Alcotest.test_case "classification" `Quick test_classification;
        Alcotest.test_case "segment dump" `Quick test_segment_dump;
        Alcotest.test_case "reassembly round trip" `Quick
          test_reassembly_roundtrip;
        Alcotest.test_case "immediate round trip" `Quick
          test_immediate_roundtrip;
        QCheck_alcotest.to_alcotest prop_disasm_total;
      ] );
  ]
