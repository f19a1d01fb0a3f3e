(* The interval timer and preemption. *)

let spin_machine () =
  let m =
    Fixtures.build
      ~segments:
        [ (1, [| Fixtures.enc (Fixtures.i ~offset:0 Isa.Opcode.TRA) |],
           Fixtures.code_ring 4) ]
      ()
  in
  Fixtures.set_ipr m ~ring:4 ~segno:1 ~wordno:0;
  m

let test_timer_fires () =
  let m = spin_machine () in
  Isa.Machine.set_timer m (Some 5);
  let rec run n =
    match Isa.Cpu.step m with
    | Isa.Cpu.Running -> run (n + 1)
    | Isa.Cpu.Faulted Rings.Fault.Timer_runout -> n + 1
    | _ -> Alcotest.fail "unexpected outcome"
  in
  Alcotest.(check int) "fired after five instructions" 5 (run 0);
  Alcotest.(check bool) "timer disarmed" true (Isa.Machine.timer m = None)

let test_timer_saved_state_resumes () =
  let m = spin_machine () in
  Isa.Machine.set_timer m (Some 1);
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted Rings.Fault.Timer_runout -> ()
  | _ -> Alcotest.fail "expected timer runout");
  (* The saved state addresses the next instruction: restoring it and
     stepping continues the loop seamlessly. *)
  Isa.Machine.restore_saved m;
  Fixtures.expect_running "resumed" (Isa.Cpu.step m);
  Alcotest.(check int) "still in the loop" 0
    m.Isa.Machine.regs.Hw.Registers.ipr.Hw.Registers.addr.Hw.Addr.wordno

let test_timer_not_counted_as_violation () =
  let m = spin_machine () in
  Isa.Machine.set_timer m (Some 3);
  let rec run () =
    match Isa.Cpu.step m with
    | Isa.Cpu.Running -> run ()
    | _ -> ()
  in
  run ();
  Alcotest.(check int) "no access violation" 0
    (Trace.Counters.get m.Isa.Machine.counters Access_violations);
  Alcotest.(check int) "one trap" 1
    (Trace.Counters.get m.Isa.Machine.counters Traps)

let test_disabled_timer_never_fires () =
  let m = spin_machine () in
  (match Isa.Cpu.run ~max_instructions:500 m with
  | Isa.Cpu.Running -> ()
  | _ -> Alcotest.fail "loop should still run");
  Alcotest.(check int) "500 instructions retired" 500
    (Trace.Counters.instructions m.Isa.Machine.counters)

let test_kernel_reports_preemption () =
  let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ] in
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"spin"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()))
    "start: tra start\n";
  let p = Os.Process.create ~store ~user:"alice" () in
  (match Os.Process.add_segment p "spin" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Os.Process.start p ~segment:"spin" ~entry:"start" ~ring:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Isa.Machine.set_timer p.Os.Process.machine (Some 10);
  match Os.Kernel.run ~max_instructions:1000 p with
  | Os.Kernel.Preempted -> ()
  | e -> Alcotest.failf "expected preemption, got %a" Os.Kernel.pp_exit e

(* Injected faults are asynchronous like the timer and must honour the
   same inhibit discipline: a fault due while a trap handler runs (IPR
   between trap and RTRAP, inhibit set) defers instead of nesting. *)
let eager_flip_plan =
  {
    Hw.Inject.seed = 1;
    fault_budget = 4;
    io_retry_limit = 3;
    rules =
      [
        {
          Hw.Inject.start = 0;
          every = Some 1;
          count = 1000;
          action = Hw.Inject.Flip_bit;
        };
      ];
  }

let test_injection_defers_under_inhibit () =
  let m = spin_machine () in
  Isa.Machine.attach_injector m (Hw.Inject.create eager_flip_plan);
  m.Isa.Machine.inhibit <- true;
  for _ = 1 to 20 do
    Fixtures.expect_running "inhibited" (Isa.Cpu.step m)
  done;
  Alcotest.(check int) "nothing injected while inhibited" 0
    (Trace.Counters.get m.Isa.Machine.counters Injected);
  m.Isa.Machine.inhibit <- false;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Parity_error _) -> ()
  | _ -> Alcotest.fail "expected the deferred fault right after release");
  Alcotest.(check int) "delivered exactly once" 1
    (Trace.Counters.get m.Isa.Machine.counters Injected)

let test_injection_delivered_before_pending_timer () =
  (* Both an injection and the timer are due when the inhibit lifts:
     the injection is polled first and the timer stays armed — two
     asynchronous events never collapse into a nested double fault. *)
  let m = spin_machine () in
  Isa.Machine.attach_injector m (Hw.Inject.create eager_flip_plan);
  m.Isa.Machine.inhibit <- true;
  Fixtures.expect_running "inhibited" (Isa.Cpu.step m);
  Isa.Machine.set_timer m (Some 1);
  m.Isa.Machine.inhibit <- false;
  (match Isa.Cpu.step m with
  | Isa.Cpu.Faulted (Rings.Fault.Parity_error _) -> ()
  | _ -> Alcotest.fail "expected the injected fault first");
  Alcotest.(check bool) "timer still armed" true
    (Isa.Machine.timer m = Some 1)

(* The timer and the channel countdown are stored as deadlines; this
   checks them against the per-instruction countdowns they replaced,
   written out as a reference model.  Each uninhibited instruction
   boundary first ticks the I/O countdown (firing the completion when
   it reaches 1), and only when no completion fired does the timer
   tick (firing at 1 or below).  Inhibited boundaries tick nothing.
   Both accessors must read the model's counts after every step. *)
let model_step (timer, io) =
  let io = match io with Some n when n > 1 -> Some (n - 1) | x -> x in
  match io with
  | Some 1 -> ((timer, None), Some Rings.Fault.Io_completion)
  | _ -> (
      match timer with
      | Some n when n <= 1 -> ((None, io), Some Rings.Fault.Timer_runout)
      | Some n -> ((Some (n - 1), io), None)
      | None -> ((None, io), None))

let prop_countdowns_match_model =
  let arm lo = QCheck.(option (int_range lo 40)) in
  QCheck.Test.make ~name:"timer and I/O deadlines match countdowns"
    ~count:200
    QCheck.(triple (arm (-2)) (arm 1) (int_range 2 7))
    (fun (timer, io, inhibit_every) ->
      let m = spin_machine () in
      Isa.Machine.set_timer m timer;
      Isa.Machine.set_io_countdown m io;
      let rec run n state =
        n = 0
        ||
        let inhibited = n mod inhibit_every = 0 in
        m.Isa.Machine.inhibit <- inhibited;
        let outcome = Isa.Cpu.step m in
        let state, fired =
          if inhibited then (state, None) else model_step state
        in
        let expected =
          match fired with
          | Some f -> Isa.Cpu.Faulted f
          | None -> Isa.Cpu.Running
        in
        m.Isa.Machine.saved <- None;
        outcome = expected
        && (Isa.Machine.timer m, Isa.Machine.io_countdown m) = state
        && run (n - 1) state
      in
      run 60 (timer, io))

let suite =
  [
    ( "timer",
      [
        Alcotest.test_case "fires after quantum" `Quick test_timer_fires;
        Alcotest.test_case "saved state resumes" `Quick
          test_timer_saved_state_resumes;
        Alcotest.test_case "not an access violation" `Quick
          test_timer_not_counted_as_violation;
        Alcotest.test_case "disabled timer" `Quick
          test_disabled_timer_never_fires;
        Alcotest.test_case "kernel reports preemption" `Quick
          test_kernel_reports_preemption;
        Alcotest.test_case "injection defers under inhibit" `Quick
          test_injection_defers_under_inhibit;
        Alcotest.test_case "injection precedes pending timer" `Quick
          test_injection_delivered_before_pending_timer;
        QCheck_alcotest.to_alcotest prop_countdowns_match_model;
      ] );
  ]
