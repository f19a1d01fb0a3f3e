(* The observability layer: histograms, span pairing end-to-end under
   the scenario workloads, and the exporters' output formats. *)

let ( let* ) = Result.bind

(* --- Histogram percentile math vs a brute-force reference --- *)

(* Reference: what the bucket-based percentile must equal, computed
   straight from the definition — the upper bound of the bucket
   holding the rank-⌈p/100·n⌉ sample, clamped to the observed max. *)
let reference_percentile samples p =
  match List.sort compare samples with
  | [] -> 0
  | sorted ->
      let n = List.length sorted in
      let rank =
        max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n)))
      in
      let v = List.nth sorted (min (n - 1) (rank - 1)) in
      min (Trace.Histogram.bucket_upper (Trace.Histogram.bucket_of v))
        (List.nth sorted (n - 1))

let test_histogram_buckets () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Trace.Histogram.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (Trace.Histogram.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (Trace.Histogram.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Trace.Histogram.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (Trace.Histogram.bucket_of 4);
  Alcotest.(check int) "upper of 2" 3 (Trace.Histogram.bucket_upper 2);
  Alcotest.(check int) "lower of 2" 2 (Trace.Histogram.bucket_lower 2);
  Alcotest.(check int) "upper of 10" 1023 (Trace.Histogram.bucket_upper 10);
  (* Every value lies inside its own bucket. *)
  List.iter
    (fun v ->
      let b = Trace.Histogram.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "%d within bucket %d" v b)
        true
        (v <= Trace.Histogram.bucket_upper b
        && (b = 0 || v >= Trace.Histogram.bucket_lower b)))
    [ 0; 1; 2; 3; 7; 8; 100; 1023; 1024; 123456; max_int ]

let test_histogram_stats () =
  let h = Trace.Histogram.create () in
  Alcotest.(check int) "empty percentile" 0 (Trace.Histogram.percentile h 99.0);
  List.iter (Trace.Histogram.observe h) [ 5; 9; 2; 100 ];
  Alcotest.(check int) "count" 4 (Trace.Histogram.count h);
  Alcotest.(check int) "sum" 116 (Trace.Histogram.sum h);
  Alcotest.(check int) "min" 2 (Trace.Histogram.min_value h);
  Alcotest.(check int) "max" 100 (Trace.Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 29.0 (Trace.Histogram.mean h);
  Trace.Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Trace.Histogram.count h)

let test_histogram_percentiles_vs_reference () =
  (* A deterministic pseudo-random stream (LCG) of latency-shaped
     values; compare bucket percentiles against the brute-force
     reference at several p for several sizes. *)
  let seed = ref 12345 in
  let next () =
    seed := ((!seed * 1103515245) + 12321) land 0x3FFFFFFF;
    !seed mod 2000
  in
  List.iter
    (fun n ->
      let samples = List.init n (fun _ -> next ()) in
      let h = Trace.Histogram.create () in
      List.iter (Trace.Histogram.observe h) samples;
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "n=%d p%.0f" n p)
            (reference_percentile samples p)
            (Trace.Histogram.percentile h p))
        [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ])
    [ 1; 2; 7; 100; 1000 ];
  (* Identical multiset in a different order: identical percentiles. *)
  let a = [ 3; 17; 17; 80; 9; 250 ] and p = 90.0 in
  let h1 = Trace.Histogram.create () and h2 = Trace.Histogram.create () in
  List.iter (Trace.Histogram.observe h1) a;
  List.iter (Trace.Histogram.observe h2) (List.rev a);
  Alcotest.(check int) "order independent"
    (Trace.Histogram.percentile h1 p)
    (Trace.Histogram.percentile h2 p)

(* --- Span tracker unit behaviour --- *)

let test_span_stack_matching () =
  let t = Trace.Span.create () in
  Trace.Span.set_enabled t true;
  let open_at cycles =
    Trace.Span.open_span t ~kind:Trace.Event.Downward ~from_ring:4
      ~to_ring:1 ~segno:11 ~wordno:0 ~cycles
  in
  open_at 10;
  open_at 20;
  Alcotest.(check int) "depth 2" 2 (Trace.Span.open_depth t);
  Trace.Span.close_span t ~cycles:25;
  Trace.Span.close_span t ~cycles:50;
  Alcotest.(check int) "depth 0" 0 (Trace.Span.open_depth t);
  (match Trace.Span.completed t with
  | [ inner; outer ] ->
      (* LIFO: the inner span (opened at 20) completes first. *)
      Alcotest.(check int) "inner start" 20 inner.Trace.Span.start_cycles;
      Alcotest.(check int) "inner end" 25 inner.Trace.Span.end_cycles;
      Alcotest.(check int) "inner depth" 1 inner.Trace.Span.depth;
      Alcotest.(check int) "outer start" 10 outer.Trace.Span.start_cycles;
      Alcotest.(check int) "outer end" 50 outer.Trace.Span.end_cycles;
      Alcotest.(check int) "outer depth" 0 outer.Trace.Span.depth;
      Alcotest.(check bool) "not forced" false outer.Trace.Span.forced
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
  let h = Trace.Span.histogram t Trace.Event.Downward in
  Alcotest.(check int) "histogram count" 2 (Trace.Histogram.count h);
  Alcotest.(check int) "histogram sum" 45 (Trace.Histogram.sum h)

let test_span_drain_and_unmatched () =
  let t = Trace.Span.create () in
  Trace.Span.set_enabled t true;
  Trace.Span.close_span t ~cycles:5;
  Alcotest.(check int) "unmatched counted" 1 (Trace.Span.unmatched_returns t);
  Trace.Span.open_span t ~kind:Trace.Event.Upward ~from_ring:1 ~to_ring:3
    ~segno:7 ~wordno:0 ~cycles:10;
  Trace.Span.drain t ~cycles:99;
  Alcotest.(check int) "drained to 0 open" 0 (Trace.Span.open_depth t);
  (match Trace.Span.completed t with
  | [ s ] ->
      Alcotest.(check bool) "forced" true s.Trace.Span.forced;
      Alcotest.(check int) "forced end" 99 s.Trace.Span.end_cycles
  | _ -> Alcotest.fail "expected one drained span");
  (* Disabled tracker: everything is a no-op. *)
  let d = Trace.Span.create () in
  Trace.Span.open_span d ~kind:Trace.Event.Downward ~from_ring:4 ~to_ring:1
    ~segno:1 ~wordno:0 ~cycles:0;
  Trace.Span.close_span d ~cycles:1;
  Alcotest.(check int) "disabled records nothing" 0
    (List.length (Trace.Span.completed d));
  Alcotest.(check int) "disabled no unmatched" 0
    (Trace.Span.unmatched_returns d)

let test_span_kind_matching () =
  (* A close whose expected kind disagrees with the innermost span is
     an intermediate transfer (the outward-return trampoline): the
     span stays open for the real closer. *)
  let t = Trace.Span.create () in
  Trace.Span.set_enabled t true;
  Trace.Span.open_span t ~kind:Trace.Event.Upward ~from_ring:1 ~to_ring:3
    ~segno:11 ~wordno:0 ~cycles:10;
  Trace.Span.close_span ~kind:Trace.Event.Downward t ~cycles:20;
  Alcotest.(check int) "mismatch leaves span open" 1 (Trace.Span.open_depth t);
  Alcotest.(check int) "mismatch is not unmatched" 0
    (Trace.Span.unmatched_returns t);
  Trace.Span.close_span ~kind:Trace.Event.Upward t ~cycles:30;
  Alcotest.(check int) "match closes" 0 (Trace.Span.open_depth t);
  match Trace.Span.completed t with
  | [ s ] ->
      Alcotest.(check int) "closed by the matching gate" 30
        s.Trace.Span.end_cycles
  | _ -> Alcotest.fail "expected one span"

let test_span_buffer_bounds () =
  let t = Trace.Span.create ~capacity:3 () in
  Trace.Span.set_enabled t true;
  for i = 1 to 5 do
    Trace.Span.open_span t ~kind:Trace.Event.Same_ring ~from_ring:4
      ~to_ring:4 ~segno:i ~wordno:0 ~cycles:i;
    Trace.Span.close_span t ~cycles:(i + 1)
  done;
  Alcotest.(check int) "bounded" 3 (List.length (Trace.Span.completed t));
  Alcotest.(check int) "dropped" 2 (Trace.Span.dropped t);
  (* Histograms still saw all five. *)
  Alcotest.(check int) "histogram unaffected" 5
    (Trace.Histogram.count (Trace.Span.histogram t Trace.Event.Same_ring))

(* --- End-to-end span pairing on the scenario workloads --- *)

let run_with_spans build =
  let* p = build () in
  let m = p.Os.Process.machine in
  Trace.Span.set_enabled m.Isa.Machine.spans true;
  Trace.Event.set_enabled m.Isa.Machine.log true;
  Trace.Profile.set_enabled m.Isa.Machine.profile true;
  match Os.Kernel.run ~max_instructions:1_000_000 p with
  | Os.Kernel.Exited -> Ok p
  | e -> Error (Format.asprintf "did not exit: %a" Os.Kernel.pp_exit e)

let check_paired name p ~kind ~expected =
  let m = p.Os.Process.machine in
  Alcotest.(check int) (name ^ ": all spans closed") 0
    (Trace.Span.open_depth m.Isa.Machine.spans);
  Alcotest.(check int) (name ^ ": no unmatched returns") 0
    (Trace.Span.unmatched_returns m.Isa.Machine.spans);
  let spans =
    List.filter
      (fun s -> s.Trace.Span.kind = kind)
      (Trace.Span.completed m.Isa.Machine.spans)
  in
  Alcotest.(check int) (name ^ ": span count") expected (List.length spans);
  List.iter
    (fun s ->
      Alcotest.(check bool) (name ^ ": closed by a return") false
        s.Trace.Span.forced;
      Alcotest.(check bool) (name ^ ": positive latency") true
        (s.Trace.Span.end_cycles > s.Trace.Span.start_cycles))
    spans

let test_spans_downward_hw () =
  match
    run_with_spans (fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:5 ())
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_paired "downward-hw" p ~kind:Trace.Event.Downward ~expected:5;
      let c = p.Os.Process.machine.Isa.Machine.counters in
      (* One span per counted cross-ring CALL/RETURN pair. *)
      Alcotest.(check int) "matches calls_downward counter" 5
        (Trace.Counters.get c Calls_downward)

let test_spans_upward_outward_hw () =
  (* Upward calls go through the gatekeeper's outward-call path: the
     span opens at gate entry and is closed by the outward-return
     service, so pairing exercises fault handling both ways. *)
  match
    run_with_spans (fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:1 ~callee_ring:3 ~iterations:4 ())
  with
  | Error e -> Alcotest.fail e
  | Ok p -> check_paired "upward-hw" p ~kind:Trace.Event.Upward ~expected:4

let test_spans_downward_645 () =
  match
    run_with_spans (fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.software_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:3 ())
  with
  | Error e -> Alcotest.fail e
  | Ok p -> check_paired "downward-645" p ~kind:Trace.Event.Downward ~expected:3

let test_spans_do_not_change_cycles () =
  let run observability =
    let* p =
      Os.Scenario.crossing ~config:Os.Scenario.default_config
        ~caller_ring:4 ~callee_ring:1 ~iterations:10 ()
    in
    let m = p.Os.Process.machine in
    if observability then begin
      Trace.Event.set_enabled m.Isa.Machine.log true;
      Trace.Span.set_enabled m.Isa.Machine.spans true;
      Trace.Profile.set_enabled m.Isa.Machine.profile true
    end;
    match Os.Kernel.run ~max_instructions:1_000_000 p with
    | Os.Kernel.Exited -> Ok (Trace.Counters.snapshot m.Isa.Machine.counters)
    | e -> Error (Format.asprintf "did not exit: %a" Os.Kernel.pp_exit e)
  in
  match (run false, run true) with
  | Ok plain, Ok traced ->
      Alcotest.(check (list (pair string int)))
        "full observability stack leaves every counter unchanged"
        (Trace.Counters.fields plain)
        (Trace.Counters.fields traced)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- Exporters --- *)

let must_parse name s =
  match Trace.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%s: bad JSON: %s" name e)

let test_json_parser () =
  (match Trace.Json.parse {| {"a": [1, -2.5e1, true, null, "xA"]} |} with
  | Ok (Trace.Json.Object [ ("a", Trace.Json.Array l) ]) ->
      Alcotest.(check int) "array length" 5 (List.length l);
      (match List.nth l 4 with
      | Trace.Json.String "xA" -> ()
      | _ -> Alcotest.fail "unicode escape")
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Trace.Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let run_demo () =
  match
    run_with_spans (fun () ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config
          ~caller_ring:4 ~callee_ring:1 ~iterations:3 ())
  with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let m = p.Os.Process.machine in
      Trace.Span.drain m.Isa.Machine.spans
        ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
      m

let test_chrome_trace_export () =
  let m = run_demo () in
  let doc =
    Trace.Export.chrome_trace
      ~events:(Trace.Event.stamped_events m.Isa.Machine.log)
      ~spans:(Trace.Span.completed m.Isa.Machine.spans)
      ()
  in
  let json = must_parse "chrome trace" doc in
  match Trace.Json.member "traceEvents" json with
  | Some (Trace.Json.Array events) ->
      let phase e =
        match Trace.Json.member "ph" e with
        | Some (Trace.Json.String p) -> p
        | _ -> Alcotest.fail "event without ph"
      in
      let complete = List.filter (fun e -> phase e = "X") events in
      (* One complete event per cross-ring CALL/RETURN pair. *)
      Alcotest.(check int) "one X event per crossing" 3 (List.length complete);
      List.iter
        (fun e ->
          (match Trace.Json.member "dur" e with
          | Some (Trace.Json.Number d) ->
              Alcotest.(check bool) "positive duration" true (d > 0.0)
          | _ -> Alcotest.fail "X event without dur");
          match Trace.Json.member "tid" e with
          | Some (Trace.Json.Number t) ->
              (* Spans land on the callee ring's thread. *)
              Alcotest.(check (float 0.0)) "callee thread" 1.0 t
          | _ -> Alcotest.fail "X event without tid")
        complete;
      Alcotest.(check bool) "has instants" true
        (List.exists (fun e -> phase e = "i") events);
      Alcotest.(check bool) "has thread metadata" true
        (List.exists (fun e -> phase e = "M") events)
  | _ -> Alcotest.fail "no traceEvents array"

let test_events_jsonl_export () =
  let m = run_demo () in
  let stamped = Trace.Event.stamped_events m.Isa.Machine.log in
  let jsonl = Trace.Export.events_jsonl stamped in
  let lines =
    String.split_on_char '\n' jsonl
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length stamped)
    (List.length lines);
  List.iteri
    (fun i line ->
      let v = must_parse (Printf.sprintf "jsonl line %d" (i + 1)) line in
      match (Trace.Json.member "seq" v, Trace.Json.member "type" v) with
      | Some (Trace.Json.Number _), Some (Trace.Json.String _) -> ()
      | _ -> Alcotest.fail "line missing seq/type")
    lines

let test_metrics_json_export () =
  let m = run_demo () in
  let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
  let doc =
    Trace.Export.metrics_json ~counters ~events:m.Isa.Machine.log
      ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile
      ~segment_names:[ (10, "caller") ] ()
  in
  let json = must_parse "metrics json" doc in
  (match Trace.Json.member "counters" json with
  | Some (Trace.Json.Object fields) ->
      (* Every Counters field must be exported, with the right value. *)
      List.iter
        (fun (name, value) ->
          match List.assoc_opt name fields with
          | Some (Trace.Json.Number n) ->
              Alcotest.(check int) ("counter " ^ name) value (int_of_float n)
          | _ -> Alcotest.fail ("metrics missing counter " ^ name))
        (Trace.Counters.fields counters)
  | _ -> Alcotest.fail "no counters object");
  (match Trace.Json.member "spans" json with
  | Some spans -> (
      match Trace.Json.member "latency_cycles" spans with
      | Some (Trace.Json.Object kinds) ->
          Alcotest.(check bool) "has downward latency" true
            (List.mem_assoc "downward" kinds)
      | _ -> Alcotest.fail "no latency_cycles")
  | None -> Alcotest.fail "no spans section");
  match Trace.Json.member "profile" json with
  | Some profile -> (
      match Trace.Json.member "per_ring" profile with
      | Some (Trace.Json.Array (_ :: _)) -> ()
      | _ -> Alcotest.fail "empty per_ring profile")
  | None -> Alcotest.fail "no profile section"

let test_metrics_prometheus_export () =
  let m = run_demo () in
  let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
  let page =
    Trace.Export.metrics_prometheus ~counters ~events:m.Isa.Machine.log
      ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile ()
  in
  let contains sub =
    let ls = String.length sub and lp = String.length page in
    let rec go i = i + ls <= lp && (String.sub page i ls = sub || go (i + 1)) in
    go 0
  in
  (* Every counter appears with the rings_ prefix. *)
  List.iter
    (fun (name, value) ->
      let line = Printf.sprintf "rings_%s %d" name value in
      Alcotest.(check bool) ("prometheus has " ^ line) true (contains line))
    (Trace.Counters.fields counters);
  Alcotest.(check bool) "has histogram buckets" true
    (contains "rings_span_latency_cycles_bucket");
  Alcotest.(check bool) "has +Inf bucket" true (contains "le=\"+Inf\"")

let test_export_determinism () =
  (* Two identical runs must export byte-identical documents. *)
  let export () =
    let m = run_demo () in
    let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
    ( Trace.Export.chrome_trace
        ~events:(Trace.Event.stamped_events m.Isa.Machine.log)
        ~spans:(Trace.Span.completed m.Isa.Machine.spans)
        (),
      Trace.Export.metrics_json ~counters ~events:m.Isa.Machine.log
        ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile () )
  in
  let t1, m1 = export () in
  let t2, m2 = export () in
  Alcotest.(check string) "chrome trace deterministic" t1 t2;
  Alcotest.(check string) "metrics deterministic" m1 m2

(* --- Sampling end-to-end: determinism, discard stats, percentiles --- *)

let run_sampled ~interval ~seed ~iterations () =
  let* p =
    Os.Scenario.crossing ~config:Os.Scenario.default_config ~caller_ring:4
      ~callee_ring:1 ~iterations ()
  in
  let m = p.Os.Process.machine in
  Trace.Event.set_sampling m.Isa.Machine.log ~interval ~seed;
  Trace.Span.set_sampling m.Isa.Machine.spans ~interval ~seed;
  Trace.Event.set_enabled m.Isa.Machine.log true;
  Trace.Span.set_enabled m.Isa.Machine.spans true;
  Trace.Profile.set_enabled m.Isa.Machine.profile true;
  match Os.Kernel.run ~max_instructions:1_000_000 p with
  | Os.Kernel.Exited ->
      Trace.Span.drain m.Isa.Machine.spans
        ~cycles:(Trace.Counters.cycles m.Isa.Machine.counters);
      Ok m
  | e -> Error (Format.asprintf "did not exit: %a" Os.Kernel.pp_exit e)

let test_sampled_export_determinism () =
  (* The same seeded workload at the same sampling configuration must
     keep the same events — every exporter byte-identical across
     runs. *)
  let export () =
    match run_sampled ~interval:8 ~seed:3 ~iterations:12 () with
    | Error e -> Alcotest.fail e
    | Ok m ->
        Alcotest.(check bool) "sampler actually deselected events" true
          (Trace.Event.sampled_out m.Isa.Machine.log > 0);
        let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
        ( Trace.Export.chrome_trace
            ~events:(Trace.Event.stamped_events m.Isa.Machine.log)
            ~spans:(Trace.Span.completed m.Isa.Machine.spans)
            (),
          Trace.Export.events_jsonl
            (Trace.Event.stamped_events m.Isa.Machine.log),
          Trace.Export.metrics_json ~counters ~events:m.Isa.Machine.log
            ~spans:m.Isa.Machine.spans ~profile:m.Isa.Machine.profile () )
  in
  let t1, j1, m1 = export () in
  let t2, j2, m2 = export () in
  Alcotest.(check string) "sampled chrome trace byte-identical" t1 t2;
  Alcotest.(check string) "sampled jsonl byte-identical" j1 j2;
  Alcotest.(check string) "sampled metrics byte-identical" m1 m2

let test_export_discard_stats () =
  (* Drop and sampling losses are first-class exporter fields, both in
     the events/spans sections and — via the machine's stats mirror —
     in the ordinary counters surface. *)
  match run_sampled ~interval:8 ~seed:3 ~iterations:12 () with
  | Error e -> Alcotest.fail e
  | Ok m ->
      let log = m.Isa.Machine.log in
      let counters = Trace.Counters.snapshot m.Isa.Machine.counters in
      let doc =
        Trace.Export.metrics_json ~counters ~events:log
          ~spans:m.Isa.Machine.spans ()
      in
      let json = must_parse "metrics json" doc in
      (match Trace.Json.member "events" json with
      | Some ev ->
          let num k =
            match Trace.Json.member k ev with
            | Some (Trace.Json.Number n) -> int_of_float n
            | _ -> Alcotest.fail ("events section missing " ^ k)
          in
          Alcotest.(check int) "seen" (Trace.Event.seen log) (num "seen");
          Alcotest.(check int) "sampled_out" (Trace.Event.sampled_out log)
            (num "sampled_out");
          Alcotest.(check int) "dropped" (Trace.Event.dropped log)
            (num "dropped");
          Alcotest.(check int) "high_water" (Trace.Event.high_water log)
            (num "high_water");
          Alcotest.(check bool) "sampling visible" true (num "sampled_out" > 0)
      | None -> Alcotest.fail "no events section");
      (match Trace.Json.member "counters" json with
      | Some (Trace.Json.Object fields) ->
          List.iter
            (fun k ->
              Alcotest.(check bool) ("counters carry " ^ k) true
                (List.mem_assoc k fields))
            [ "events_dropped"; "events_sampled_out"; "spans_sampled_out" ];
          (match List.assoc "events_sampled_out" fields with
          | Trace.Json.Number n ->
              Alcotest.(check int) "counter mirrors the log"
                (Trace.Event.sampled_out log) (int_of_float n)
          | _ -> Alcotest.fail "events_sampled_out not a number")
      | _ -> Alcotest.fail "no counters object");
      let page =
        Trace.Export.metrics_prometheus ~counters ~events:log
          ~spans:m.Isa.Machine.spans ()
      in
      let contains sub =
        let ls = String.length sub and lp = String.length page in
        let rec go i =
          i + ls <= lp && (String.sub page i ls = sub || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun name ->
          Alcotest.(check bool) ("prometheus has " ^ name) true
            (contains name))
        [
          "rings_events_seen"; "rings_events_dropped";
          "rings_events_sampled_out"; "rings_events_high_water";
          "rings_span_sampled_out";
        ]

let test_sampled_percentiles_within_bucket () =
  (* Sampled span percentiles must stay within one log2 bucket of the
     full-trace percentiles on the crossing workload — the contract
     that makes 1-in-N tracing usable for latency monitoring. *)
  match
    ( run_sampled ~interval:1 ~seed:0 ~iterations:64 (),
      run_sampled ~interval:4 ~seed:11 ~iterations:64 () )
  with
  | Ok full, Ok sampled ->
      let hist m =
        Trace.Span.histogram m.Isa.Machine.spans Trace.Event.Downward
      in
      let hf = hist full and hs = hist sampled in
      Alcotest.(check int) "full trace holds every crossing" 64
        (Trace.Histogram.count hf);
      Alcotest.(check bool) "sampler kept a strict subset" true
        (Trace.Histogram.count hs > 0 && Trace.Histogram.count hs < 64);
      Alcotest.(check int) "subset size matches the discard counter" 64
        (Trace.Histogram.count hs
        + Trace.Span.sampled_out sampled.Isa.Machine.spans);
      List.iter
        (fun p ->
          let bf =
            Trace.Histogram.bucket_of (Trace.Histogram.percentile hf p)
          and bs =
            Trace.Histogram.bucket_of (Trace.Histogram.percentile hs p)
          in
          Alcotest.(check bool)
            (Printf.sprintf "p%.0f within one bucket (full %d, sampled %d)" p
               bf bs)
            true
            (abs (bf - bs) <= 1))
        [ 50.0; 90.0; 99.0 ]
  | Error e, _ | _, Error e -> Alcotest.fail e

let suite =
  [
    ( "observability",
      [
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
        Alcotest.test_case "histogram percentiles vs reference" `Quick
          test_histogram_percentiles_vs_reference;
        Alcotest.test_case "span stack matching" `Quick
          test_span_stack_matching;
        Alcotest.test_case "span drain and unmatched" `Quick
          test_span_drain_and_unmatched;
        Alcotest.test_case "span kind matching" `Quick
          test_span_kind_matching;
        Alcotest.test_case "span buffer bounds" `Quick
          test_span_buffer_bounds;
        Alcotest.test_case "spans: downward hw" `Quick
          test_spans_downward_hw;
        Alcotest.test_case "spans: upward outward hw" `Quick
          test_spans_upward_outward_hw;
        Alcotest.test_case "spans: downward 645" `Quick
          test_spans_downward_645;
        Alcotest.test_case "observability leaves counters unchanged" `Quick
          test_spans_do_not_change_cycles;
        Alcotest.test_case "json parser" `Quick test_json_parser;
        Alcotest.test_case "chrome trace export" `Quick
          test_chrome_trace_export;
        Alcotest.test_case "events jsonl export" `Quick
          test_events_jsonl_export;
        Alcotest.test_case "metrics json export" `Quick
          test_metrics_json_export;
        Alcotest.test_case "metrics prometheus export" `Quick
          test_metrics_prometheus_export;
        Alcotest.test_case "export determinism" `Quick
          test_export_determinism;
        Alcotest.test_case "sampled export determinism" `Quick
          test_sampled_export_determinism;
        Alcotest.test_case "export discard stats" `Quick
          test_export_discard_stats;
        Alcotest.test_case "sampled percentiles within bucket" `Quick
          test_sampled_percentiles_within_bucket;
      ] );
  ]
