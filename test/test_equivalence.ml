(* Equivalence of the three protection backends: for every legal
   crossing workload the hardware machine, the 645 baseline and the
   capability machine compute the same result and classify the
   crossing identically — the 645 pays supervisor traps for it, the
   capability machine pays seal/unseal.  This is the property that
   makes the cost comparisons (C1/C2 and the backends bench) meaningful
   ("the same object code sequences perform all calls and returns"). *)

let run config ~caller_ring ~callee_ring ~with_argument =
  match
    Os.Scenario.crossing ~config ~caller_ring ~callee_ring ~iterations:3
      ~with_argument ()
  with
  | Error e -> Alcotest.failf "build: %s" e
  | Ok p ->
      let exit = Os.Kernel.run ~max_instructions:200_000 p in
      let s =
        Trace.Counters.snapshot p.Os.Process.machine.Isa.Machine.counters
      in
      let arg =
        if with_argument then
          match Os.Process.address_of p ~segment:"data" ~symbol:"word0" with
          | Some addr -> (
              match Os.Process.kread p addr with Ok v -> v | Error _ -> -1)
          | None -> -1
        else 0
      in
      (* The return classification of the emulated outward-return
         trampoline differs between modes (its RETN to the return gate
         is an upward return in hardware, a flag-checked same-ring
         transfer on the 645), so compare the call classification and
         the downward (outward) returns — the semantically meaningful
         crossings. *)
      ( exit,
        p.Os.Process.machine.Isa.Machine.regs.Hw.Registers.a,
        arg,
        ( s.Trace.Counters.calls_same_ring,
          s.Trace.Counters.calls_downward,
          s.Trace.Counters.calls_upward,
          s.Trace.Counters.returns_downward ) )

let check_pair ~caller_ring ~callee_ring ~with_argument =
  let name = Printf.sprintf "r%d -> r%d" caller_ring callee_ring in
  let hw =
    run Os.Scenario.default_config ~caller_ring ~callee_ring ~with_argument
  in
  let sw =
    run Os.Scenario.software_config ~caller_ring ~callee_ring ~with_argument
  in
  let cap =
    run Os.Scenario.capability_config ~caller_ring ~callee_ring
      ~with_argument
  in
  let (hw_exit, hw_a, hw_arg, hw_cross) = hw in
  List.iter
    (fun (backend, (exit, a, arg, cross)) ->
      let name = Printf.sprintf "%s (%s)" name backend in
      Alcotest.check
        (Alcotest.testable Os.Kernel.pp_exit ( = ))
        (name ^ " exit agrees") hw_exit exit;
      Alcotest.(check int) (name ^ " A agrees") hw_a a;
      Alcotest.(check int) (name ^ " argument effect agrees") hw_arg arg;
      Alcotest.(check bool)
        (name ^ " crossing classification agrees")
        true (hw_cross = cross))
    [ ("645", sw); ("cap", cap) ]

(* Sweep caller/callee ring pairs, without and with a by-reference
   argument.  Caller rings are kept within the gate extension
   (callable_from = max of the pair) so every pair is legal. *)
let test_sweep_no_argument () =
  List.iter
    (fun (caller_ring, callee_ring) ->
      check_pair ~caller_ring ~callee_ring ~with_argument:false)
    [
      (4, 1); (4, 0); (4, 4); (5, 2); (2, 1); (1, 0); (7, 3);
      (1, 4); (0, 2); (2, 5); (3, 3);
    ]

let test_sweep_with_argument () =
  List.iter
    (fun (caller_ring, callee_ring) ->
      check_pair ~caller_ring ~callee_ring ~with_argument:true)
    [ (4, 1); (4, 4); (2, 1); (1, 4); (2, 5) ]

(* The cost asymmetry that C1 reports, as an invariant: software
   crossings always gatekeep, hardware downward crossings never do. *)
let test_cost_asymmetry () =
  let gatekeeper config ~caller_ring ~callee_ring =
    match
      Os.Scenario.crossing ~config ~caller_ring ~callee_ring ~iterations:2 ()
    with
    | Error e -> Alcotest.failf "build: %s" e
    | Ok p ->
        (match Os.Kernel.run ~max_instructions:100_000 p with
        | Os.Kernel.Exited -> ()
        | e -> Alcotest.failf "run: %a" Os.Kernel.pp_exit e);
        Trace.Counters.get p.Os.Process.machine.Isa.Machine.counters
          Gatekeeper_entries
  in
  Alcotest.(check int) "hardware: no gatekeeper" 0
    (gatekeeper Os.Scenario.default_config ~caller_ring:4 ~callee_ring:1);
  Alcotest.(check bool)
    "software: gatekeeper on every crossing" true
    (gatekeeper Os.Scenario.software_config ~caller_ring:4 ~callee_ring:1
    >= 4)

(* The paper's headline, as a pinned regression: under hardware rings
   a downward call + upward return costs exactly what a same-ring
   call + return costs. *)
let test_headline_zero_overhead () =
  let marginal build =
    let total n =
      match build n with
      | Error e -> Alcotest.failf "build: %s" e
      | Ok p -> (
          match Os.Kernel.run ~max_instructions:500_000 p with
          | Os.Kernel.Exited ->
              Trace.Counters.cycles p.Os.Process.machine.Isa.Machine.counters
          | e -> Alcotest.failf "run: %a" Os.Kernel.pp_exit e)
    in
    float_of_int (total 144 - total 16) /. 128.
  in
  let same =
    marginal (fun n -> Os.Scenario.same_ring_pair ~ring:4 ~iterations:n ())
  in
  let down =
    marginal (fun n ->
        Os.Scenario.crossing ~caller_ring:4 ~callee_ring:1 ~iterations:n ())
  in
  Alcotest.(check (float 0.001))
    "downward crossing costs the same as same-ring" same down

let suite =
  [
    ( "equivalence",
      [
        Alcotest.test_case "ring-pair sweep" `Quick test_sweep_no_argument;
        Alcotest.test_case "ring-pair sweep with argument" `Quick
          test_sweep_with_argument;
        Alcotest.test_case "cost asymmetry" `Quick test_cost_asymmetry;
        Alcotest.test_case "headline: zero crossing overhead" `Quick
          test_headline_zero_overhead;
      ] );
  ]

