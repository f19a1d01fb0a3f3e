(* Order statistics over host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  match Array.length a with
  | 0 -> nan
  | n ->
      let pos = p /. 100.0 *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den
