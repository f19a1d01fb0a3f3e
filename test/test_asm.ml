(* The assembler: parsing, two-pass assembly, directives, errors. *)

let assemble ?externals ?self_segno src =
  match Asm.Assemble.assemble ?externals ?self_segno src with
  | Ok p -> p
  | Error errs ->
      Alcotest.failf "assembly failed: %a"
        (Format.pp_print_list Asm.Assemble.pp_error)
        errs

let decode w =
  match Isa.Instr.decode w with
  | Ok i -> i
  | Error _ -> Alcotest.fail "undecodable word"

let test_basic_program () =
  let p =
    assemble
      "start:  lda =5\n        sta pr6|2\n        tra start\nvalue:  .word 9\n"
  in
  Alcotest.(check int) "four words" 4 (Array.length p.Asm.Assemble.words);
  Alcotest.(check int) "start at 0" 0 (Asm.Assemble.symbol p "start");
  Alcotest.(check int) "value at 3" 3 (Asm.Assemble.symbol p "value");
  Alcotest.(check int) "literal" 9 p.Asm.Assemble.words.(3);
  let lda = decode p.Asm.Assemble.words.(0) in
  Alcotest.(check bool) "lda immediate" true
    (lda.Isa.Instr.base = Isa.Instr.Immediate && lda.Isa.Instr.offset = 5);
  let sta = decode p.Asm.Assemble.words.(1) in
  Alcotest.(check bool) "sta pr6|2" true
    (sta.Isa.Instr.base = Isa.Instr.Pr 6 && sta.Isa.Instr.offset = 2);
  let tra = decode p.Asm.Assemble.words.(2) in
  Alcotest.(check int) "tra back to start" 0 tra.Isa.Instr.offset

let test_suffixes () =
  let p = assemble "l:  lda pr2|1,*\n    tra 5,x3\n    ldx x4, =7\n" in
  let i0 = decode p.Asm.Assemble.words.(0) in
  Alcotest.(check bool) "indirect" true i0.Isa.Instr.indirect;
  let i1 = decode p.Asm.Assemble.words.(1) in
  Alcotest.(check bool) "indexed by x3" true
    (i1.Isa.Instr.indexed && i1.Isa.Instr.xr = 3);
  let i2 = decode p.Asm.Assemble.words.(2) in
  Alcotest.(check int) "ldx register" 4 i2.Isa.Instr.xr

let test_octal_and_negative () =
  let p = assemble "a: .word 0o777\nb: .word -1\n" in
  Alcotest.(check int) "octal" 0o777 p.Asm.Assemble.words.(0);
  Alcotest.(check int) "negative wraps" Hw.Word.mask p.Asm.Assemble.words.(1)

let test_org_zero () =
  let p = assemble "    .org 4\nhere: .word 1\n    .zero 2\ntail: .word 2\n" in
  Alcotest.(check int) "here at 4" 4 (Asm.Assemble.symbol p "here");
  Alcotest.(check int) "tail after zeros" 7 (Asm.Assemble.symbol p "tail");
  Alcotest.(check int) "size" 8 (Array.length p.Asm.Assemble.words);
  Alcotest.(check int) "zeros" 0 p.Asm.Assemble.words.(5)

let test_gates () =
  let p = assemble "g1: .gate impl\ng2: .gate impl\nimpl: nop\n" in
  Alcotest.(check int) "two gates" 2 p.Asm.Assemble.gates;
  let w0 = decode p.Asm.Assemble.words.(0) in
  Alcotest.(check bool) "gate is TRA impl" true
    (w0.Isa.Instr.opcode = Isa.Opcode.TRA && w0.Isa.Instr.offset = 2)

let test_gates_must_be_first () =
  match Asm.Assemble.assemble "    nop\ng: .gate g2\ng2: nop\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gate after code accepted"

let test_its_local_needs_segno () =
  (match Asm.Assemble.assemble "p: .its 3, target\ntarget: nop\n" with
  | Error [ e ] ->
      Alcotest.(check bool) "mentions self_segno" true
        (String.length e.Asm.Assemble.message > 0)
  | _ -> Alcotest.fail "expected one error");
  let p = assemble ~self_segno:42 "p: .its 3, target\ntarget: nop\n" in
  let ind = Isa.Indword.decode p.Asm.Assemble.words.(0) in
  Alcotest.(check int) "segno" 42 ind.Isa.Indword.addr.Hw.Addr.segno;
  Alcotest.(check int) "wordno" 1 ind.Isa.Indword.addr.Hw.Addr.wordno;
  Alcotest.(check int) "ring" 3 (Rings.Ring.to_int ind.Isa.Indword.ring)

let test_its_external () =
  let externals ~segment ~symbol =
    if segment = "svc" && symbol = "entry" then
      Some (Hw.Addr.v ~segno:17 ~wordno:3)
    else None
  in
  let p = assemble ~externals "lnk: .its 0, svc$entry, *\n" in
  let ind = Isa.Indword.decode p.Asm.Assemble.words.(0) in
  Alcotest.(check int) "segno" 17 ind.Isa.Indword.addr.Hw.Addr.segno;
  Alcotest.(check int) "wordno" 3 ind.Isa.Indword.addr.Hw.Addr.wordno;
  Alcotest.(check bool) "further indirection" true ind.Isa.Indword.indirect

let test_unresolved_external () =
  match Asm.Assemble.assemble "lnk: .its 0, nowhere$gone\n" with
  | Error [ e ] ->
      Alcotest.(check int) "line 1" 1 e.Asm.Assemble.line
  | _ -> Alcotest.fail "expected unresolved-external error"

let test_duplicate_label () =
  match Asm.Assemble.assemble "a: nop\na: nop\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate label accepted"

let test_undefined_symbol () =
  match Asm.Assemble.assemble "    tra nowhere\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined symbol accepted"

let test_unknown_opcode_line_number () =
  match Asm.Assemble.assemble "    nop\n    frobnicate\n" with
  | Error [ e ] -> Alcotest.(check int) "line 2" 2 e.Asm.Assemble.line
  | _ -> Alcotest.fail "expected a single error on line 2"

(* An immediate reads back through the effective-address sign
   extension: the largest value that survives is 2^17 - 1, and 2^17 —
   which would come back as -2^17 — is refused at assembly time. *)
let test_immediate_range () =
  let lda_value n =
    let p = assemble (Printf.sprintf "    lda =%d\n" n) in
    let m =
      Fixtures.build
        ~segments:[ (1, p.Asm.Assemble.words, Fixtures.code_ring 4) ]
        ()
    in
    Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
    Fixtures.expect_running "lda" (Isa.Cpu.step m);
    Hw.Word.to_signed m.Isa.Machine.regs.Hw.Registers.a
  in
  Alcotest.(check int) "largest immediate round-trips" 131071
    (lda_value 131071);
  Alcotest.(check int) "smallest immediate round-trips" (-131072)
    (lda_value (-131072));
  match Asm.Assemble.assemble "    lda =131072\n" with
  | Error [ e ] ->
      Alcotest.(check string) "refusal message" "immediate out of 18-bit range"
        e.Asm.Assemble.message
  | Error _ -> Alcotest.fail "expected a single error"
  | Ok _ -> Alcotest.fail "2^17 immediate accepted"

let test_comments_and_blanks () =
  let p = assemble "; header\n\nstart: nop ; trailing\n\n" in
  Alcotest.(check int) "one word" 1 (Array.length p.Asm.Assemble.words)

let test_survey_matches_assemble () =
  let src = "g: .gate impl\nimpl: lda =1\n     mme =2\nbuf: .zero 4\n" in
  match Asm.Assemble.survey src with
  | Error _ -> Alcotest.fail "survey failed"
  | Ok s ->
      let p = assemble src in
      Alcotest.(check int) "size" (Array.length p.Asm.Assemble.words)
        s.Asm.Assemble.survey_size;
      Alcotest.(check int) "gates" p.Asm.Assemble.gates
        s.Asm.Assemble.survey_gates;
      Alcotest.(check bool) "symbols agree" true
        (List.sort compare s.Asm.Assemble.survey_symbols
        = List.sort compare p.Asm.Assemble.symbols)

(* Round trip: generated instructions assemble back to themselves via
   the disassembly-like rendering of Instr.pp.  We test a targeted
   subset with unambiguous syntax. *)
let prop_assemble_encode_agrees =
  QCheck.Test.make ~name:"assembled instruction = encoded instruction"
    ~count:300
    (QCheck.triple
       (QCheck.oneofl
          [ Isa.Opcode.LDA; Isa.Opcode.STA; Isa.Opcode.ADA; Isa.Opcode.TRA ])
       (QCheck.int_range 0 1000)
       (QCheck.pair (QCheck.int_range 0 7) QCheck.bool))
    (fun (op, offset, (pr, indirect)) ->
      let src =
        Printf.sprintf "    %s pr%d|%d%s\n"
          (String.lowercase_ascii (Isa.Opcode.mnemonic op))
          pr offset
          (if indirect then ",*" else "")
      in
      match Asm.Assemble.assemble src with
      | Error _ -> false
      | Ok p ->
          let expected =
            Isa.Instr.encode
              (Isa.Instr.v ~base:(Isa.Instr.Pr pr) ~indirect ~offset op)
          in
          p.Asm.Assemble.words.(0) = expected)

(* Parser totality: arbitrary text lines never raise; they parse or
   produce positioned errors. *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser total over arbitrary lines" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun line ->
      match Asm.Parser.parse_line 1 line with
      | Ok _ | Error _ -> true)

(* And over near-miss assembly built from real fragments. *)
let prop_parser_total_fragments =
  QCheck.Test.make ~name:"parser total over shuffled fragments" ~count:500
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (oneofl
           [ "lda"; "pr6|1"; "=5"; ",*"; "x3"; ".its"; ".gate"; "start:";
             "$"; "|"; ","; "0o777"; "-1"; "call"; "mme" ]))
    (fun fragments ->
      let line = String.concat " " fragments in
      match Asm.Parser.parse_line 1 line with
      | Ok _ | Error _ -> true)

let test_symbol_offset_expressions () =
  let p =
    assemble
      "start:  tra start+2\n\
      \        nop\n\
       next:   lda tbl-1\n\
       tbl:    .word 1, 2\n"
  in
  let i0 = decode p.Asm.Assemble.words.(0) in
  Alcotest.(check int) "start+2" 2 i0.Isa.Instr.offset;
  let i2 = decode p.Asm.Assemble.words.(2) in
  Alcotest.(check int) "tbl-1" 2 i2.Isa.Instr.offset;
  (* A leading minus is still a plain number, not an offset form. *)
  let p2 = assemble "a: .word -3\n" in
  Alcotest.(check int) "negative literal" (Hw.Word.of_signed (-3))
    p2.Asm.Assemble.words.(0)

let suite =
  [
    ( "asm",
      [
        Alcotest.test_case "basic program" `Quick test_basic_program;
        Alcotest.test_case "suffixes" `Quick test_suffixes;
        Alcotest.test_case "octal and negative" `Quick
          test_octal_and_negative;
        Alcotest.test_case "org/zero" `Quick test_org_zero;
        Alcotest.test_case "gates" `Quick test_gates;
        Alcotest.test_case "gates must be first" `Quick
          test_gates_must_be_first;
        Alcotest.test_case "local .its needs segno" `Quick
          test_its_local_needs_segno;
        Alcotest.test_case "external .its" `Quick test_its_external;
        Alcotest.test_case "unresolved external" `Quick
          test_unresolved_external;
        Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
        Alcotest.test_case "undefined symbol" `Quick test_undefined_symbol;
        Alcotest.test_case "error line numbers" `Quick
          test_unknown_opcode_line_number;
        Alcotest.test_case "immediate range" `Quick test_immediate_range;
        Alcotest.test_case "comments and blanks" `Quick
          test_comments_and_blanks;
        Alcotest.test_case "symbol offset expressions" `Quick
          test_symbol_offset_expressions;
        Alcotest.test_case "survey matches assemble" `Quick
          test_survey_matches_assemble;
        QCheck_alcotest.to_alcotest prop_assemble_encode_agrees;
        QCheck_alcotest.to_alcotest prop_parser_total;
        QCheck_alcotest.to_alcotest prop_parser_total_fragments;
      ] );
  ]


