(* Robustness: executing arbitrary bit patterns must never escape the
   simulated world.  Whatever a program does, the CPU either keeps
   running, halts, or faults — the only sanctioned exception is the
   runaway-indirection guard.  (On the real hardware this is the claim
   that no instruction sequence can bypass the access checks; here it
   also guards the simulator against crashes on malformed input.) *)

let xorshift seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land Hw.Word.mask

let build_fuzz_machine ?mode seed =
  let next = xorshift seed in
  let code = Array.init 64 (fun _ -> next ()) in
  let data = Array.init 64 (fun _ -> next ()) in
  let m =
    Fixtures.build ?mode
      ~segments:
        ([ (1, code, Rings.Access.v ~read:true ~execute:true (Rings.Brackets.of_ints 0 7 7));
           (9, data, Fixtures.data_ring 5);
         ]
        @ List.init 8 (fun r -> (r + 20, [||], Fixtures.data_ring r)))
      ()
  in
  Fixtures.set_ipr m ~ring:(seed land 7) ~segno:1 ~wordno:0;
  (* Random pointer registers, including ones aimed at nothing. *)
  for n = 0 to 7 do
    Hw.Registers.set_pr m.Isa.Machine.regs n
      (Hw.Registers.ptr
         ~ring:(next () land 7)
         ~segno:(next () land 31)
         ~wordno:(next () land 63))
  done;
  m

let prop_cpu_never_escapes =
  QCheck.Test.make ~name:"CPU never raises on arbitrary programs" ~count:300
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let m = build_fuzz_machine seed in
      let rec run n =
        if n = 0 then true
        else
          match Isa.Cpu.step m with
          | Isa.Cpu.Running -> run (n - 1)
          | Isa.Cpu.Halted -> true
          | Isa.Cpu.Faulted _ ->
              (* A trap would enter the supervisor; for the fuzz we
                 simply resume at the next word. *)
              let regs = m.Isa.Machine.regs in
              m.Isa.Machine.saved <- None;
              regs.Hw.Registers.ipr <-
                {
                  regs.Hw.Registers.ipr with
                  Hw.Registers.ring = Rings.Ring.v (n land 7);
                };
              run (n - 1)
          | exception Isa.Eff_addr.Runaway_indirection _ -> true
      in
      run 100)

(* Differential check of the memoized fast path against the slow path
   it replaces.  [Machine.degrade] turns every host-side memo off (the
   fetch and resolve memos, the SDW LRU, the TLB, the decoded-
   instruction cache), so a degraded twin walks, validates and decodes
   every reference afresh.  Both twins run the same arbitrary program;
   after every step they must agree on the outcome, the registers, the
   saved trap state, the words the program can reach, and every modeled
   counter.  The excluded counters are the host caches' own hit, miss
   and eviction tallies (which degradation changes by design) and
   [degraded] itself. *)
let host_cache_counters =
  [
    "sdw_cache_hits"; "sdw_cache_misses"; "sdw_cache_evictions";
    "ptw_tlb_hits"; "ptw_tlb_misses"; "ptw_tlb_evictions";
    "icache_hits"; "icache_misses"; "icache_evictions"; "degraded";
  ]

(* The fuzz machine's descriptor segment and segments all sit below
   this address. *)
let reachable_words = 2048

let observe m =
  let counters =
    List.filter
      (fun (name, _) -> not (List.mem name host_cache_counters))
      (Trace.Counters.fields (Trace.Counters.snapshot m.Isa.Machine.counters))
  in
  ( Hw.Registers.copy m.Isa.Machine.regs,
    m.Isa.Machine.saved,
    Array.init reachable_words (Hw.Memory.read_silent m.Isa.Machine.mem),
    counters )

let step_outcome m =
  match Isa.Cpu.step m with
  | o -> Ok o
  | exception Isa.Eff_addr.Runaway_indirection a -> Error a

let prop_fast_path_matches_degraded mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: memoized cycle = degraded cycle"
         (Rings.Backend.to_string (Isa.Machine.backend_of_mode mode)))
    ~count:100 (QCheck.int_range 1 1_000_000) (fun seed ->
      let fast = build_fuzz_machine ~mode seed in
      let slow = build_fuzz_machine ~mode seed in
      Isa.Machine.degrade slow;
      let rec run n =
        n = 0
        ||
        let o = step_outcome fast in
        if o <> step_outcome slow then
          QCheck.Test.fail_reportf "seed %d: outcomes differ at step %d" seed
            (100 - n)
        else if observe fast <> observe slow then
          QCheck.Test.fail_reportf "seed %d: state differs after step %d" seed
            (100 - n)
        else
          match o with
          | Ok Isa.Cpu.Running -> run (n - 1)
          | Ok (Isa.Cpu.Faulted _) ->
              (* Restart both among the first 16 words, each in a ring
                 that recurs every 16 faults, so the same instructions
                 and operands come round again and the memos hit. *)
              List.iter
                (fun m ->
                  m.Isa.Machine.saved <- None;
                  Fixtures.set_ipr m ~ring:(n land 7) ~segno:1
                    ~wordno:(n land 15))
                [ fast; slow ];
              run (n - 1)
          | Ok Isa.Cpu.Halted | Error _ -> true
      in
      run 100)

(* The same differential check on real, looping programs under the
   kernel: the scenario crossings of every backend and a demand-paged
   one, so the memos hit on every iteration and the gatekeeper, the TLB
   and CALL/RETURN are all on the path.  The twins advance one retired
   instruction (and any fault service) at a time; memory is compared
   at the end. *)
let scenario_legs =
  [
    ("hw", Os.Scenario.default_config);
    ("645", Os.Scenario.software_config);
    ("cap", Os.Scenario.capability_config);
    ("paged", { Os.Scenario.default_config with Os.Scenario.paged = true });
  ]

let memory_words m =
  let mem = m.Isa.Machine.mem in
  Array.init (Hw.Memory.size mem) (Hw.Memory.read_silent mem)

let prop_scenarios_match_degraded =
  QCheck.Test.make ~name:"scenarios: memoized runs = degraded runs"
    ~count:12
    QCheck.(pair (int_range 0 3) (int_range 1 12))
    (fun (leg, iterations) ->
      let name, config = List.nth scenario_legs leg in
      let boot () =
        match
          Os.Scenario.crossing ~config ~caller_ring:4 ~callee_ring:1
            ~with_argument:true ~iterations ()
        with
        | Ok p -> p
        | Error e -> failwith e
      in
      let fast = boot () and slow = boot () in
      let mf = fast.Os.Process.machine and ms = slow.Os.Process.machine in
      Isa.Machine.degrade ms;
      let rec run n =
        let e = Os.Kernel.run ~max_instructions:1 fast in
        if e <> Os.Kernel.run ~max_instructions:1 slow then
          QCheck.Test.fail_reportf "%s: exits differ at step %d" name n
        else if
          let r, sv, _, c = observe mf and r', sv', _, c' = observe ms in
          r <> r' || sv <> sv' || c <> c'
        then QCheck.Test.fail_reportf "%s: state differs after step %d" name n
        else if e = Os.Kernel.Out_of_budget then run (n + 1)
        else memory_words mf = memory_words ms
      in
      run 1)

(* The same property under the kernel with a full process environment:
   random code in a user segment, kernel servicing traps. *)
let prop_kernel_never_escapes =
  QCheck.Test.make ~name:"kernel never raises on arbitrary programs"
    ~count:150 (QCheck.int_range 1 1_000_000) (fun seed ->
      let next = xorshift seed in
      let words = Array.init 48 (fun _ -> next ()) in
      let store = Os.Store.create () in
      Os.Store.add_data store ~name:"junk"
        ~acl:
          [
            {
              Os.Acl.user = Os.Acl.wildcard;
              access =
                Rings.Access.v ~read:true ~execute:true
                  (Rings.Brackets.of_ints 4 4 7);
            };
          ]
        ~words;
      let p = Os.Process.create ~store ~user:"fuzz" () in
      (match Os.Process.add_segment p "junk" with
      | Ok () -> ()
      | Error _ -> ());
      let regs = p.Os.Process.machine.Isa.Machine.regs in
      regs.Hw.Registers.ipr <-
        {
          Hw.Registers.ring = Rings.Ring.v 4;
          addr = Hw.Addr.v ~segno:10 ~wordno:0;
        };
      match Os.Kernel.run ~max_instructions:200 p with
      | _ -> true
      | exception Isa.Eff_addr.Runaway_indirection _ -> true)

(* The same kernel-level robustness, with demand paging enabled: page
   faults interleave with whatever the random program does. *)
let prop_kernel_never_escapes_paged =
  QCheck.Test.make ~name:"kernel never raises with paging on" ~count:100
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let next = xorshift seed in
      let words = Array.init 48 (fun _ -> next ()) in
      let store = Os.Store.create () in
      Os.Store.add_data store ~name:"junk"
        ~acl:
          [
            {
              Os.Acl.user = Os.Acl.wildcard;
              access =
                Rings.Access.v ~read:true ~execute:true
                  (Rings.Brackets.of_ints 4 4 7);
            };
          ]
        ~words;
      let p =
        Os.Process.create ~paged:true ~frame_pool:2 ~store ~user:"fuzz" ()
      in
      (match Os.Process.add_segment p "junk" with
      | Ok () -> ()
      | Error _ -> ());
      let regs = p.Os.Process.machine.Isa.Machine.regs in
      regs.Hw.Registers.ipr <-
        {
          Hw.Registers.ring = Rings.Ring.v 4;
          addr = Hw.Addr.v ~segno:10 ~wordno:0;
        };
      match Os.Kernel.run ~max_instructions:200 p with
      | _ -> true
      | exception Isa.Eff_addr.Runaway_indirection _ -> true)

(* Under seeded fault injection the multiprogrammed system must stay
   inside the same envelope: System.run returns documented exits, the
   protection invariants hold after every recovery, and nothing
   escapes as a host exception.  Chaos.run_campaigns folds all three
   into its violations list (uncaught exceptions included). *)
let prop_system_survives_default_plan_injection =
  QCheck.Test.make
    ~name:"system holds ring invariants under default-plan injection"
    ~count:25 (QCheck.int_range 1 1_000_000) (fun seed ->
      let r =
        Os.Chaos.run_campaigns ~campaigns:1 (Hw.Inject.default_plan ~seed)
      in
      r.Os.Chaos.violations = [])

(* The same property under arbitrary plans: random rule mixes, tight
   or zero budgets, stalls of any length. *)
let random_plan seed =
  let next = xorshift seed in
  let rules =
    List.init
      (1 + (next () mod 4))
      (fun _ ->
        let action =
          match next () mod 5 with
          | 0 -> Hw.Inject.Flip_bit
          | 1 -> Hw.Inject.Corrupt_descriptor
          | 2 -> Hw.Inject.Transient_fault
          | 3 -> Hw.Inject.Io_error
          | _ -> Hw.Inject.Io_stall (1 + (next () mod 200))
        in
        {
          Hw.Inject.start = next () mod 3000;
          every = Some (1 + (next () mod 1500));
          count = 1 + (next () mod 8);
          action;
        })
  in
  {
    Hw.Inject.seed;
    fault_budget = next () mod 6;
    io_retry_limit = next () mod 4;
    rules;
  }

let prop_system_survives_arbitrary_plans =
  QCheck.Test.make
    ~name:"system holds ring invariants under arbitrary injection plans"
    ~count:25 (QCheck.int_range 1 1_000_000) (fun seed ->
      let r = Os.Chaos.run_campaigns ~campaigns:1 (random_plan seed) in
      r.Os.Chaos.violations = [])

(* The arena's zero-leak gate, fuzzed: whatever population the tenant
   generator draws — gate squeezers, ring maximizers, stack-bracket
   forgers, cache probes, spinners — the SDW and cross-tenant auditors
   must stay silent after every quarantine and at every wave end, and
   every exit must be a sanctioned verdict. *)
let prop_arena_never_leaks =
  QCheck.Test.make
    ~name:"no adversarial tenant population trips the cross-tenant auditor"
    ~count:20 (QCheck.int_range 1 1_000_000) (fun seed ->
      let tenants =
        Serve.Tenants.generate ~seed ~tenants:(8 + (seed mod 9)) ()
      in
      let r = Os.Arena.run ~seed tenants in
      r.Os.Arena.violations = [] && r.Os.Arena.audits > 0
      && List.for_all
           (fun (b : Os.Arena.bill) ->
             match b.Os.Arena.verdict with
             | "ok" | "contained" | "over budget" -> true
             | v ->
                 String.length v >= 11 && String.sub v 0 11 = "quarantined"
           )
           r.Os.Arena.bills)

(* Kill-and-resume, fuzzed: whatever the workload sizes, the quantum
   and the checkpoint cycle, a run resumed from a mid-flight image must
   finish indistinguishable (counters, exits, memory) from the run that
   was never interrupted. *)
let prop_checkpoint_restore_is_transparent =
  QCheck.Test.make ~name:"checkpoint/restore is invisible to the run"
    ~count:25
    QCheck.(
      quad (int_range 15 60) (int_range 15 60) (int_range 5 60)
        (int_range 10 100))
    (fun (n1, n2, quantum, at) ->
      let straight = Test_snapshot.fresh_system ~n1 ~n2 () in
      let image = ref None in
      let on_slice () =
        if
          !image = None
          && Trace.Counters.cycles
               (Os.System.machine straight).Isa.Machine.counters
             >= at
        then image := Some (Os.Snapshot.capture straight)
      in
      let (_ : (string * Os.Kernel.exit) list) =
        Os.System.run ~quantum ~on_slice straight
      in
      match !image with
      | None -> QCheck.Test.fail_report "run finished before the checkpoint"
      | Some img -> (
          let resumed = Test_snapshot.fresh_system ~n1 ~n2 () in
          match Os.Snapshot.restore resumed img with
          | Error e ->
              QCheck.Test.fail_reportf "restore: %a" Os.Snapshot.pp_error e
          | Ok () ->
              let (_ : (string * Os.Kernel.exit) list) =
                Os.System.run ~quantum resumed
              in
              Test_snapshot.comparable_fields straight
              = Test_snapshot.comparable_fields resumed
              && Os.System.finished_log straight
                 = Os.System.finished_log resumed
              && Test_snapshot.memory_words straight
                 = Test_snapshot.memory_words resumed))

let suite =
  [
    ( "fuzz",
      [
        QCheck_alcotest.to_alcotest prop_cpu_never_escapes;
        QCheck_alcotest.to_alcotest
          (prop_fast_path_matches_degraded Isa.Machine.Ring_hardware);
        QCheck_alcotest.to_alcotest
          (prop_fast_path_matches_degraded Isa.Machine.Ring_software_645);
        QCheck_alcotest.to_alcotest
          (prop_fast_path_matches_degraded Isa.Machine.Ring_capability);
        QCheck_alcotest.to_alcotest prop_scenarios_match_degraded;
        QCheck_alcotest.to_alcotest prop_kernel_never_escapes;
        QCheck_alcotest.to_alcotest prop_kernel_never_escapes_paged;
        QCheck_alcotest.to_alcotest prop_system_survives_default_plan_injection;
        QCheck_alcotest.to_alcotest prop_system_survives_arbitrary_plans;
        QCheck_alcotest.to_alcotest prop_arena_never_leaks;
        QCheck_alcotest.to_alcotest prop_checkpoint_restore_is_transparent;
      ] );
  ]

