(* The simulator benchmark.  See README.md for the workloads, the
   metrics and how to read them.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --write-golden FILE

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  --trace 0 measures W and
   reports the end-to-end metrics; --trace 1 runs every workload with
   spans around each layer call and reports the per-layer metrics. *)

let workloads =
  [ Wl_interp.workload; Wl_serve.workload; Wl_arena.workload; Wl_checkpoint.workload ]

let golden_path = "perfbench/golden.txt"
let out_dir = ".perfbench_out"

type tally = { mutable attempted : int; mutable failed : int; mutable bad : string list }

(* Run one op: set up (timed), run, check against the golden values. *)
let run_op golden tally (w : Op.workload) ~variant ~deep tr =
  let thunk, setup_s = Op.time (fun () -> w.prepare ~variant ~deep tr) in
  Gc.full_major ();
  let o = thunk () in
  let bad = Golden.mismatches golden ~workload:w.name ~variant o.observed in
  tally.attempted <- tally.attempted + o.requests;
  tally.failed <- tally.failed + if bad = [] then o.failed else o.requests;
  tally.bad <- List.map (fun k -> w.name ^ "." ^ k) bad @ tally.bad;
  (setup_s, o)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The peak heap of one op in a fresh process: a forked child sets up
   and runs one op, then reports Gc top_heap_words.  On serve one
   reading moves by a fifth between runs: the pool's steals decide how
   many shards cold-boot a class, and the stream's order changes how
   often they do (README.md, "Steadiness").  So the metric is the
   median of [heap_probes] children, one on each of the seed's variant
   and the next ones.  Fork before any op, while the process has a
   single domain, and with stdout flushed, so that a child's domains
   do not print the parent's buffered lines again. *)
let heap_probes = 7

let probe_heap op =
  flush stdout;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try
         op ();
         let s = Printf.sprintf "%.17g" (peak_heap_mb ()) in
         ignore (Unix.write_substring w s 0 (String.length s));
         Unix._exit 0
       with _ -> Unix._exit 1)
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let s = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> float_of_string s
      | _ -> failwith "heap probe failed")

(* A warm-up op, then ops until [seconds] have passed, then one op with
   the deep checks; only the middle ops are kept. *)
let repeat ~seconds step =
  ignore (step ~deep:false 0);
  let deadline = Span_log.now () +. seconds in
  let rec go i acc =
    if i > 3 && Span_log.now () >= deadline then begin
      ignore (step ~deep:true i);
      List.rev acc
    end
    else go (i + 1) (step ~deep:false i :: acc)
  in
  go 1 []

let end_to_end golden tally w ~variant ~seconds =
  let heap =
    Stat.median
      (List.init heap_probes (fun i ->
           probe_heap (fun () ->
               let scratch = { attempted = 0; failed = 0; bad = [] } in
               let variant = (variant + i) mod Golden.variants in
               ignore (run_op golden scratch w ~variant ~deep:false None))))
  in
  let samples =
    repeat ~seconds (fun ~deep _ -> run_op golden tally w ~variant ~deep None)
  in
  (* The 10th percentile of the op rates, not the median: the host's
     speed switches between a common state and faster bursts lasting
     seconds, and a run's median lands in either (README.md,
     "Steadiness"). *)
  let rate f =
    Stat.percentile (List.map (fun (_, (o : Op.outcome)) -> f o /. o.seconds) samples) 10.0
  in
  Printf.printf "%s: %d timed ops, host seconds of each: %s\n" w.name (List.length samples)
    (String.concat " "
       (List.map (fun (_, (o : Op.outcome)) -> Printf.sprintf "%.6f" o.seconds) samples));
  [
    ("instr_per_s", rate (fun o -> float_of_int o.instructions), "1/s");
    ("req_per_s", rate (fun o -> float_of_int o.requests), "1/s");
    ("setup_s", Stat.median (List.map fst samples), "s");
    ("peak_heap_mb", heap, "MB");
  ]

(* One workload's traced pass: traced and untraced ops alternate, so
   the overhead ratio compares like with like; then the layer
   metrics, and the self-time share of each span name. *)
let traced_pass golden tally (w : Op.workload) ~variant ~seconds =
  let log = Span_log.create () in
  let samples =
    repeat ~seconds (fun ~deep i ->
        let tr = if i mod 2 = 1 then Some log else None in
        Span_log.set_req tr i;
        (tr <> None, snd (run_op golden tally w ~variant ~deep tr)))
  in
  let med traced =
    Stat.median
      (List.filter_map
         (fun (t, (o : Op.outcome)) -> if t = traced then Some o.seconds else None)
         samples)
  in
  let metrics =
    w.layers ~variant log
    @ [ ("bench.trace_overhead." ^ w.name, med true /. med false, "ratio") ]
  in
  let self = Span_log.self_times log in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 self in
  Printf.printf "%s: self-time shares of traced spans\n" w.name;
  List.iter
    (fun (name, s) -> Printf.printf "  %-32s %6.1f%%  %9.4f s\n" name (100.0 *. s /. total) s)
    self;
  (log, metrics)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" name v unit)
       metrics)

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun (w : Op.workload) -> w.name = workload) workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  let golden = Golden.load golden_path in
  let variant = Golden.variant_of_seed seed in
  let tally = { attempted = 0; failed = 0; bad = [] } in
  let meta =
    Printf.sprintf
      "\"workload\": %S, \"seed\": %d, \"variant\": %d, \"seconds\": %g, \"trace\": %d, \
       \"nproc\": %d, \"ocaml\": %S"
      workload seed variant seconds trace
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
  in
  Printf.printf "perfbench: {%s}\n" meta;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let metrics =
    if trace = 0 then end_to_end golden tally w ~variant ~seconds
    else begin
      let per = seconds /. float_of_int (List.length workloads) in
      List.concat_map
        (fun (w : Op.workload) ->
          let log, metrics = traced_pass golden tally w ~variant ~seconds:per in
          Span_log.write_jsonl log
            (Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir w.name seed);
          metrics)
        workloads
    end
  in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        failwith ("metric " ^ name ^ " is not a number"))
    metrics;
  List.iter (fun k -> Printf.printf "golden mismatch: %s\n" k) tally.bad;
  let correct = tally.failed = 0 && tally.bad = [] in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct tally.attempted tally.failed (json_metrics metrics)
  in
  Out_channel.with_open_text
    (Printf.sprintf "%s/result-%s-seed%d-trace%d.json" out_dir workload seed trace)
    (fun oc -> Printf.fprintf oc "{%s, \"result\": %s}\n" meta result);
  print_endline result

let write_golden path =
  let lines =
    List.concat_map
      (fun (w : Op.workload) ->
        List.concat_map
          (fun variant ->
            let o = (w.prepare ~variant ~deep:true None) () in
            if o.failed > 0 then
              failwith (Printf.sprintf "%s variant %d: %d requests failed" w.name variant o.failed);
            List.map (Golden.line ~workload:w.name ~variant) o.observed)
          (List.init Golden.variants Fun.id))
      workloads
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  Printf.printf "wrote %d golden values to %s\n" (List.length lines) path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let golden = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W interp|serve|arena|checkpoint");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--write-golden", Arg.Set_string golden, "FILE regenerate the golden values");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !golden <> "" then write_golden !golden
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
