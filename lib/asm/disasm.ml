let label_for symbols wordno =
  List.find_opt (fun (_, v) -> v = wordno) symbols |> Option.map fst

let offset_text symbols offset =
  match label_for symbols offset with
  | Some l -> l
  | None -> (
      (* The nearest preceding label, if close. *)
      match
        List.filter (fun (_, v) -> v <= offset && offset - v <= 8) symbols
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      with
      | (l, v) :: _ when offset > v -> Printf.sprintf "%s+%d" l (offset - v)
      | _ -> Printf.sprintf "%o" offset)

let instruction ?(symbols = []) (i : Isa.Instr.t) =
  let buf = Buffer.create 32 in
  Buffer.add_string buf
    (String.lowercase_ascii (Isa.Opcode.mnemonic i.Isa.Instr.opcode));
  if Isa.Opcode.uses_xr i.Isa.Instr.opcode then
    Buffer.add_string buf
      (Printf.sprintf " %s%d,"
         (match i.Isa.Instr.opcode with
         | Isa.Opcode.EAP | Isa.Opcode.SPR -> "pr"
         | _ -> "x")
         i.Isa.Instr.xr);
  (match i.Isa.Instr.base with
  | Isa.Instr.Immediate ->
      (* The field is 18-bit two's complement; render the value the
         operand takes, which is also what the assembler accepts. *)
      let v = i.Isa.Instr.offset in
      let v = if v land (1 lsl 17) <> 0 then v - (1 lsl 18) else v in
      Buffer.add_string buf (Printf.sprintf " =%d" v)
  | Isa.Instr.Ipr_relative ->
      if
        i.Isa.Instr.offset <> 0
        || i.Isa.Instr.indirect
        || Isa.Opcode.operand_class i.Isa.Instr.opcode
           <> Isa.Opcode.No_operand
      then
        Buffer.add_string buf
          (" " ^ offset_text symbols i.Isa.Instr.offset)
  | Isa.Instr.Pr n ->
      Buffer.add_string buf (Printf.sprintf " pr%d|%o" n i.Isa.Instr.offset));
  if i.Isa.Instr.indirect then Buffer.add_string buf ",*";
  if i.Isa.Instr.indexed then
    Buffer.add_string buf (Printf.sprintf ",x%d" i.Isa.Instr.xr);
  Buffer.contents buf

type rendering =
  | Instruction of Isa.Instr.t
  | Indirect_word of Isa.Indword.t
  | Data of int

let classify w =
  let as_its () =
    let ind = Isa.Indword.decode w in
    if Isa.Indword.encode ind = w && w <> 0 then Indirect_word ind
    else Data w
  in
  match Isa.Instr.decode w with
  (* A nonzero word whose opcode field happens to be NOP is far more
     plausibly an ITS or data than a NOP with operand fields. *)
  | Ok i when i.Isa.Instr.opcode = Isa.Opcode.NOP && w <> 0 -> as_its ()
  | Ok i -> Instruction i
  | Error _ -> as_its ()

let word ?(symbols = []) w =
  match classify w with
  | Instruction i -> instruction ~symbols i
  | Indirect_word ind ->
      Printf.sprintf ".its %d, %d, %d%s"
        (Rings.Ring.to_int ind.Isa.Indword.ring)
        ind.Isa.Indword.addr.Hw.Addr.segno ind.Isa.Indword.addr.Hw.Addr.wordno
        (if ind.Isa.Indword.indirect then ", *" else "")
  | Data w -> Printf.sprintf ".word %d" w

let segment ?(symbols = []) ?base_label words =
  let buf = Buffer.create 1024 in
  (match base_label with
  | Some l -> Buffer.add_string buf (Printf.sprintf "; segment %s\n" l)
  | None -> ());
  Array.iteri
    (fun wordno w ->
      (match label_for symbols wordno with
      | Some l -> Buffer.add_string buf (Printf.sprintf "%s:\n" l)
      | None -> ());
      Buffer.add_string buf
        (Printf.sprintf "  %06o  %012o  %s\n" wordno w (word ~symbols w)))
    words;
  Buffer.contents buf
