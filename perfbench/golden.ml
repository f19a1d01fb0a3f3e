(* Committed golden modeled outputs: one line per value,
   [workload variant key value].  [main.exe --write-golden FILE]
   regenerates the file from the current tree. *)

let variants = 16

(* The seed picks one of [variants] input sets, each with its golden
   values committed, so any seed can be checked. *)
let variant_of_seed seed = ((seed mod variants) + variants) mod variants

type t = (string * int * string, string) Hashtbl.t

let load path : t =
  let t = Hashtbl.create 256 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; v; k; value ] -> Hashtbl.replace t (w, int_of_string v, k) value
         | [ "" ] -> ()
         | _ -> failwith ("golden: bad line: " ^ line));
  t

(* Keys whose observed value differs from (or is missing in) the
   golden file. *)
let mismatches (t : t) ~workload ~variant observed =
  List.filter_map
    (fun (k, v) ->
      match Hashtbl.find_opt t (workload, variant, k) with
      | Some g when String.equal g v -> None
      | _ -> Some k)
    observed

let line ~workload ~variant (k, v) = Printf.sprintf "%s %d %s %s" workload variant k v
