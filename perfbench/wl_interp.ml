(* interp: the interpreter alone.  One op runs five Os.Scenario legs to
   their exit — a 4->1 crossing under each protection backend, a
   same-ring pair and a demand-paged crossing with an argument — on
   freshly booted processes.  No snapshot, serving or arena code runs. *)

let paged_config = { Os.Scenario.default_config with Os.Scenario.paged = true }

(* [(leg, base iterations, build)]; the seed's variant adds a few
   iterations, so every seed retires about the same work. *)
let legs =
  [
    ( "hw",
      24_000,
      fun iterations ->
        Os.Scenario.crossing ~config:Os.Scenario.default_config ~caller_ring:4
          ~callee_ring:1 ~iterations () );
    ( "cap",
      24_000,
      fun iterations ->
        Os.Scenario.crossing ~config:Os.Scenario.capability_config
          ~caller_ring:4 ~callee_ring:1 ~iterations () );
    ( "645",
      8_000,
      fun iterations ->
        Os.Scenario.crossing ~config:Os.Scenario.software_config ~caller_ring:4
          ~callee_ring:1 ~iterations () );
    ( "same_ring",
      24_000,
      fun iterations ->
        Os.Scenario.same_ring_pair ~config:Os.Scenario.default_config ~ring:4
          ~iterations () );
    ( "paged",
      16_000,
      fun iterations ->
        Os.Scenario.crossing ~config:paged_config ~caller_ring:4 ~callee_ring:1
          ~with_argument:true ~iterations () );
  ]

let leg_names = List.map (fun (leg, _, _) -> leg) legs

let iterations ~variant base =
  let n = base + (7 * variant) in
  Op.check_iterations n;
  n

let count_leg tr leg ~minor (before : Trace.Counters.snapshot)
    (after : Trace.Counters.snapshot) =
  let d = Trace.Counters.diff ~before ~after in
  let c name v = Span_log.count tr name (float_of_int v) in
  c ("interp." ^ leg ^ ".instructions") d.instructions;
  Span_log.count tr "isa.cpu.minor_words" minor;
  c "isa.cpu.instructions" d.instructions;
  c "isa.machine.icache_hits" d.icache_hits;
  c "isa.machine.icache_misses" d.icache_misses;
  c "isa.machine.sdw_cache_hits" d.sdw_cache_hits;
  c "isa.machine.sdw_cache_misses" d.sdw_cache_misses;
  c "hw.paging.ptw_tlb_hits" d.ptw_tlb_hits;
  c "hw.paging.ptw_tlb_misses" d.ptw_tlb_misses;
  c "os.kernel.gatekeeper_entries" d.gatekeeper_entries

let prepare ~variant ~deep:_ tr =
  let booted =
    List.map
      (fun (leg, base, build) ->
        let n = iterations ~variant base in
        match build n with
        | Ok p -> (leg, n, p)
        | Error e -> failwith (Printf.sprintf "interp %s: build failed: %s" leg e))
      legs
  in
  fun () ->
    let seconds = ref 0.0 and instructions = ref 0 and failed = ref 0 in
    let observed =
      List.map
        (fun (leg, n, p) ->
          let c = p.Os.Process.machine.Isa.Machine.counters in
          let before = Trace.Counters.snapshot c in
          let minor0 = Gc.minor_words () in
          let exit, dt =
            Span_log.with_span tr ("interp." ^ leg) (fun () ->
                Op.time (fun () ->
                    Os.Kernel.run ~max_instructions:(200 * n) p))
          in
          let minor = Gc.minor_words () -. minor0 in
          seconds := !seconds +. dt;
          let after = Trace.Counters.snapshot c in
          count_leg tr leg ~minor before after;
          instructions := !instructions + after.instructions - before.instructions;
          if exit <> Os.Kernel.Exited then incr failed;
          ("cycles." ^ leg, string_of_int (Trace.Counters.cycles c)))
        booted
    in
    {
      Op.seconds = !seconds;
      instructions = !instructions;
      requests = List.length booted;
      failed = !failed;
      observed;
    }

let layers ~variant:_ t =
  let n = Span_log.counted t in
  let ratio hits misses = n hits /. (n hits +. n misses) in
  let ops = float_of_int (List.length (Span_log.durations t "interp.hw")) in
  List.map
    (fun leg ->
      let secs = List.fold_left ( +. ) 0.0 (Span_log.durations t ("interp." ^ leg)) in
      ( "interp." ^ leg ^ ".instr_per_s",
        n ("interp." ^ leg ^ ".instructions") /. secs,
        "1/s" ))
    leg_names
  @ [
      ( "isa.cpu.minor_words_per_instr",
        n "isa.cpu.minor_words" /. n "isa.cpu.instructions",
        "words" );
      ( "isa.machine.icache_hit_ratio",
        ratio "isa.machine.icache_hits" "isa.machine.icache_misses",
        "ratio" );
      ( "isa.machine.sdw_cache_hit_ratio",
        ratio "isa.machine.sdw_cache_hits" "isa.machine.sdw_cache_misses",
        "ratio" );
      ( "hw.paging.ptw_tlb_hit_ratio",
        ratio "hw.paging.ptw_tlb_hits" "hw.paging.ptw_tlb_misses",
        "ratio" );
      ( "os.kernel.gatekeeper_entries",
        n "os.kernel.gatekeeper_entries" /. ops,
        "count" );
    ]

let workload = { Op.name = "interp"; prepare; layers }
