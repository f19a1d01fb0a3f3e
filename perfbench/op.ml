(* The shape every workload shares: set up one op, run it, report. *)

type outcome = {
  seconds : float;  (** Host time of the timed part only. *)
  instructions : int;  (** Simulated instructions retired. *)
  requests : int;  (** Guest program runs the op attempted. *)
  failed : int;  (** Of those, how many failed a check. *)
  observed : (string * string) list;
      (** Modeled outputs, compared against the committed golden
          values: a mismatch fails every request of the op. *)
}

type workload = {
  name : string;
  prepare : variant:int -> deep:bool -> Span_log.t option -> unit -> outcome;
      (** The set-up part: build one op's inputs, systems and
          populations for the seed's [variant].  The returned thunk is
          the timed part; it also checks the outputs, outside its own
          timing.  [deep] asks for the expensive checks (a twin or
          plain reference run), which the runner asks for once a run. *)
  layers : variant:int -> Span_log.t -> (string * float * string) list;
      (** Traced run only: the per-layer metrics [(name, value, unit)]
          of this workload, read from the spans and counts the traced
          ops recorded plus any replay a layer needs. *)
}

let time f =
  let t0 = Span_log.now () in
  let v = f () in
  (v, Span_log.now () -. t0)

(* The iteration count of an [Os.Scenario] loop is loaded as an 18-bit
   immediate, so 2^17 or more reads back negative and the program never
   exits.  Every leg stays below it. *)
let iteration_limit = 1 lsl 17

let check_iterations n =
  if n <= 0 || n >= iteration_limit then
    invalid_arg (Printf.sprintf "iterations %d outside [1, 2^17)" n)

let digest s = Digest.to_hex (Digest.string s)
