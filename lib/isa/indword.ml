type t = { ring : Rings.Ring.t; indirect : bool; addr : Hw.Addr.t }

let v ?(indirect = false) ~ring ~segno ~wordno () =
  { ring = Rings.Ring.v ring; indirect; addr = Hw.Addr.v ~segno ~wordno }

let of_ptr ?(indirect = false) (p : Hw.Registers.ptr) =
  { ring = p.ring; indirect; addr = p.addr }

let to_ptr t : Hw.Registers.ptr = { ring = t.ring; addr = t.addr }

(* The bit layout is written once, in [pack] and the [word_*] readers;
   the record codec below is built on them. *)
let pack ~ring ~indirect ~segno ~wordno =
  0
  |> Hw.Word.set_field ~pos:33 ~width:3 (Rings.Ring.to_int ring)
  |> Hw.Word.set_field ~pos:32 ~width:1 (if indirect then 1 else 0)
  |> Hw.Word.set_field ~pos:18 ~width:14 segno
  |> Hw.Word.set_field ~pos:0 ~width:18 wordno

let word_ring w = Rings.Ring.v (Hw.Word.field ~pos:33 ~width:3 w)
let word_indirect w = Hw.Word.field ~pos:32 ~width:1 w = 1
let word_segno w = Hw.Word.field ~pos:18 ~width:14 w
let word_wordno w = Hw.Word.field ~pos:0 ~width:18 w

let encode t =
  pack ~ring:t.ring ~indirect:t.indirect ~segno:t.addr.Hw.Addr.segno
    ~wordno:t.addr.Hw.Addr.wordno

let encode_ptr (p : Hw.Registers.ptr) =
  pack ~ring:p.ring ~indirect:false ~segno:p.addr.Hw.Addr.segno
    ~wordno:p.addr.Hw.Addr.wordno

let decode w =
  {
    ring = word_ring w;
    indirect = word_indirect w;
    addr = Hw.Addr.v ~segno:(word_segno w) ~wordno:(word_wordno w);
  }

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "IND{%a %a%s}" Rings.Ring.pp t.ring Hw.Addr.pp t.addr
    (if t.indirect then ",*" else "")
