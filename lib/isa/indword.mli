(** Indirect words (IND in Fig. 3).

    Indirect words contain the same information as pointer registers —
    a ring number and a two-part address — and may indicate further
    indirection with their own indirect flag.  The RING field forces
    validation of the eventual operand reference relative to a
    higher-numbered ring; it is how an argument list carries the
    caller's ring into the callee's references (see "Call and Return
    Revisited").

    Layout of the 36-bit indirect word:

    {v
    [33..35] ring/3   [32] indirect   [18..31] segno/14   [0..17] wordno/18
    v} *)

type t = { ring : Rings.Ring.t; indirect : bool; addr : Hw.Addr.t }

val v : ?indirect:bool -> ring:int -> segno:int -> wordno:int -> unit -> t

val of_ptr : ?indirect:bool -> Hw.Registers.ptr -> t
(** The encoding SPR stores: the PR's ring and address. *)

val to_ptr : t -> Hw.Registers.ptr

val encode : t -> Hw.Word.t
val decode : Hw.Word.t -> t
(** Total: every 36-bit word decodes to some indirect word. *)

val encode_ptr : Hw.Registers.ptr -> Hw.Word.t
(** [encode (of_ptr p)] without building the record: what SPR
    stores. *)

(** {1 Field readers}

    Each reads one field of a raw indirect word, so effective-address
    formation can follow an indirection chain without decoding a
    record per link. *)

val word_ring : Hw.Word.t -> Rings.Ring.t
val word_indirect : Hw.Word.t -> bool
val word_segno : Hw.Word.t -> int
val word_wordno : Hw.Word.t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
