(* The multi-tenant arena: quotas bill exactly, breaches quarantine
   exactly one tenant, billing is byte-identical across reruns and
   shard counts, and the cross-tenant auditor stays silent. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()

let one_tenant ?(ring = 4) ?(access = proc4) ~kind source =
  [
    {
      Os.Arena.id = 0;
      name = "t0000";
      kind;
      adversarial = true;
      ring;
      paged = false;
      start = ("t0000main", "start");
      segments = [ ("t0000main", wildcard access, source) ];
    };
  ]

let spinner = one_tenant ~kind:"quota-spin" "start:  tra start\n"

let run_spinner ~cycles =
  let quota = { Os.Arena.default_quota with cycles } in
  Os.Arena.run ~quota ~seed:1 spinner

let the_bill (r : Os.Arena.report) =
  match r.Os.Arena.bills with
  | [ b ] -> b
  | bs -> Alcotest.failf "expected one bill, got %d" (List.length bs)

(* The cycle quota is exact to the instruction.  The fault is raised
   at the first between-instruction point where the tenant's billed
   cycles reach the quota, and the bill then adds a constant
   quarantine overhead (fault delivery + kernel service).  Calibrate
   the spinner's cycles-per-instruction step [s] from two probes, then
   predict: quota q+s quarantines exactly one instruction later (both
   in instructions retired and in cycles billed), and q+s+1 exactly
   two — never early, never late. *)
let test_cycle_quota_exact () =
  let measure cycles =
    let b = the_bill (run_spinner ~cycles) in
    Alcotest.(check string)
      "verdict" "quarantined: cycles quota" b.Os.Arena.verdict;
    ( b.Os.Arena.usage.Trace.Counters.cycles,
      b.Os.Arena.usage.Trace.Counters.instructions )
  in
  let c1, i1 = measure 1_000 in
  Alcotest.(check bool) "never quarantined early" true (c1 >= 1_000);
  let c2, i2 = measure 1_001 in
  Alcotest.(check int) "quota + 1: exactly one more instruction" (i1 + 1) i2;
  let s = c2 - c1 in
  Alcotest.(check bool) "spinner step is positive" true (s > 0);
  let c3, i3 = measure (1_000 + s) in
  Alcotest.(check (pair int int))
    "quota + step lands exactly one instruction later"
    (c1 + s, i1 + 1)
    (c3, i3);
  let c4, i4 = measure (1_000 + s + 1) in
  Alcotest.(check (pair int int))
    "quota + step + 1 lands exactly two instructions later"
    (c1 + (2 * s), i1 + 2)
    (c4, i4)

(* A tenant whose virtual memory exceeds the quota is refused at
   admission: quarantined before its first instruction. *)
let test_mem_quota_admission () =
  let hog =
    one_tenant ~kind:"mem-hog" "start:  mme =2\nbig:    .zero 600\n"
  in
  let quota = { Os.Arena.default_quota with mem = 512 } in
  let b = the_bill (Os.Arena.run ~quota ~seed:1 hog) in
  Alcotest.(check string)
    "verdict" "quarantined: memory quota" b.Os.Arena.verdict;
  Alcotest.(check int)
    "never ran" 0 b.Os.Arena.usage.Trace.Counters.instructions;
  (* The same program under a roomier quota completes. *)
  let quota = { Os.Arena.default_quota with mem = 2_048 } in
  let b = the_bill (Os.Arena.run ~quota ~seed:1 hog) in
  Alcotest.(check string) "fits and completes" "ok" b.Os.Arena.verdict

(* A ring-0 tenant hammering the channel trips the io quota. *)
let test_io_quota () =
  let access =
    Rings.Access.procedure_segment ~execute_in:0 ~callable_from:0 ()
  in
  let churner =
    one_tenant ~ring:0 ~access ~kind:"io-churn"
      "start:  sioc\n        tra start\n"
  in
  let quota = { Os.Arena.default_quota with io = 8 } in
  let b = the_bill (Os.Arena.run ~quota ~seed:1 churner) in
  Alcotest.(check string) "verdict" "quarantined: io quota" b.Os.Arena.verdict;
  Alcotest.(check bool)
    "billed more channel ops than the quota" true
    (b.Os.Arena.usage.Trace.Counters.channel_ops > 8)

(* One breach quarantines one tenant: the honest co-tenants of a
   spinner's wave still complete, and the wave audits stay clean. *)
let test_survivors_degrade_gracefully () =
  let tenants = Serve.Tenants.generate ~seed:42 ~tenants:16 () in
  let r = Os.Arena.run ~seed:42 tenants in
  Alcotest.(check (list string)) "no violations" [] r.Os.Arena.violations;
  Alcotest.(check int) "all billed" 16 r.Os.Arena.tenants;
  Alcotest.(check bool) "some tenant quarantined" true
    (r.Os.Arena.quarantined > 0);
  Alcotest.(check bool) "audits ran" true (r.Os.Arena.audits > 0);
  List.iter
    (fun (b : Os.Arena.bill) ->
      match b.Os.Arena.kind with
      | "compute" | "crossing" ->
          Alcotest.(check string) (b.Os.Arena.name ^ " honest verdict") "ok"
            b.Os.Arena.verdict
      | "quota-spin" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " spinner verdict")
            "quarantined: cycles quota" b.Os.Arena.verdict
      | "mem-hog" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " hog verdict")
            "quarantined: memory quota" b.Os.Arena.verdict
      | "gate-squeeze" | "ring-max" | "stack-bracket" ->
          Alcotest.(check string)
            (b.Os.Arena.name ^ " attack verdict")
            "contained" b.Os.Arena.verdict
      | _ -> ())
    r.Os.Arena.bills

(* Billing is byte-identical across reruns and across shard counts:
   the full JSON report, not just totals. *)
let test_billing_deterministic () =
  let tenants = Serve.Tenants.generate ~seed:7 ~tenants:24 () in
  let sequential = Os.Arena.run ~seed:7 tenants in
  let again = Os.Arena.run ~seed:7 tenants in
  let two = Serve.Tenants.run_sharded ~shards:2 ~seed:7 tenants in
  let four = Serve.Tenants.run_sharded ~shards:4 ~seed:7 tenants in
  let json = Os.Arena.report_json sequential in
  Alcotest.(check string) "rerun" json (Os.Arena.report_json again);
  Alcotest.(check string) "2 shards" json (Os.Arena.report_json two);
  Alcotest.(check string) "4 shards" json (Os.Arena.report_json four)

(* The population generator is deterministic and honours its
   guarantee of at least one spinner per standard campaign. *)
let test_generator () =
  let a = Serve.Tenants.generate ~seed:3 ~tenants:40 () in
  let b = Serve.Tenants.generate ~seed:3 ~tenants:40 () in
  Alcotest.(check bool) "same population" true (a = b);
  List.iter
    (fun seed ->
      let p = Serve.Tenants.generate ~seed ~tenants:9 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d has a spinner" seed)
        true
        (List.exists
           (fun (t : Os.Arena.tenant) -> t.Os.Arena.kind = "quota-spin")
           p))
    [ 1; 2; 3; 4; 5 ];
  let coop = Serve.Tenants.generate ~profile:"cooperative" ~seed:3 ~tenants:40 () in
  Alcotest.(check bool) "cooperative draws no adversaries" false
    (List.exists (fun (t : Os.Arena.tenant) -> t.Os.Arena.adversarial) coop)

(* Composing an injection plan with the arena: faults land, recovery
   audits run, and the gate still reports zero violations. *)
let test_with_injection () =
  let tenants = Serve.Tenants.generate ~seed:11 ~tenants:8 () in
  let inject = Hw.Inject.default_plan ~seed:11 in
  let r = Os.Arena.run ~inject ~seed:11 tenants in
  let again = Os.Arena.run ~inject ~seed:11 tenants in
  Alcotest.(check (list string)) "no violations" [] r.Os.Arena.violations;
  Alcotest.(check string) "deterministic under injection"
    (Os.Arena.report_json r)
    (Os.Arena.report_json again)

(* {1 Recycled memory equals fresh memory}

   Waves hand their machine's storage to the next machine built on the
   same domain ([Isa.Machine.release]).  A machine built on recycled
   storage must be indistinguishable from one built on fresh storage.
   The recycled storage here is the worst case: a capability-mode wave
   under injection dirtied it, left validity tags set and had injected
   corruption scrubbed, and one extra store stamps the last page. *)

let store_of tenants =
  let store = Os.Store.create () in
  List.iter
    (fun (t : Os.Arena.tenant) ->
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        t.Os.Arena.segments)
    tenants;
  store

let spawn_all sys tenants =
  List.map
    (fun (t : Os.Arena.tenant) ->
      match
        Os.System.spawn sys ~paged:t.Os.Arena.paged ~pname:t.Os.Arena.name
          ~user:t.Os.Arena.name
          ~segments:(List.map (fun (n, _, _) -> n) t.Os.Arena.segments)
          ~start:t.Os.Arena.start ~ring:t.Os.Arena.ring
      with
      | Ok e -> e
      | Error msg -> Alcotest.failf "spawn %s: %s" t.Os.Arena.name msg)
    tenants

let attach_injector sys entries plan =
  let inj = Hw.Inject.create plan in
  List.iter
    (fun (e : Os.System.entry) ->
      List.iter
        (fun (base, len) -> Hw.Inject.register_descriptor_range inj ~base ~len)
        (Os.Process.descriptor_ranges e.Os.System.process))
    entries;
  Isa.Machine.attach_injector (Os.System.machine sys) inj;
  inj

(* Dirty a machine, release it into this domain's slot and return the
   released [watched] map, by which the next machine is recognised as
   recycled. *)
let dirty_and_release () =
  let tenants = Serve.Tenants.generate ~seed:11 ~tenants:8 () in
  let sys =
    Os.System.create ~mode:Isa.Machine.Ring_capability
      ~store:(store_of tenants) ()
  in
  let entries = spawn_all sys tenants in
  let inj = attach_injector sys entries (Hw.Inject.default_plan ~seed:11) in
  ignore (Os.System.run ~max_slices:2_000 sys);
  let m = Os.System.machine sys in
  let mem = m.Isa.Machine.mem in
  Alcotest.(check bool) "dirty: injected" true
    (Trace.Counters.get m.Isa.Machine.counters Injected > 0);
  Alcotest.(check int) "dirty: corruption scrubbed" 0 (Hw.Inject.poisoned inj);
  Alcotest.(check bool) "dirty: tags set" true
    (Hw.Memory.tagged_addrs mem <> []);
  Hw.Memory.write_silent mem (Hw.Memory.size mem - 1) 1;
  let watched = m.Isa.Machine.watched in
  Isa.Machine.release m;
  watched

let check_pristine (m : Isa.Machine.t) ~cap =
  let mem = m.Isa.Machine.mem in
  for a = 0 to Hw.Memory.size mem - 1 do
    if Hw.Memory.read_silent mem a <> 0 then
      Alcotest.failf "recycled word %d not zero" a
  done;
  if Bytes.exists (fun c -> c <> '\000') m.Isa.Machine.watched then
    Alcotest.fail "recycled watched map not clear";
  Alcotest.(check bool) "tags enabled" cap (Hw.Memory.tags_enabled mem);
  Alcotest.(check (list int)) "no tags" [] (Hw.Memory.tagged_addrs mem);
  Alcotest.(check (list int)) "no stamps" []
    (Hw.Memory.pages_since mem ~epoch:0)

let test_recycled_equals_fresh (name, mode) inject () =
  let cap = mode = Isa.Machine.Ring_capability in
  let tenants = Serve.Tenants.generate ~seed:5 ~tenants:8 () in
  (* Captures right after create, and again after spawning. *)
  let watched = dirty_and_release () in
  let recycled = Os.System.create ~mode ~store:(store_of tenants) () in
  let fresh = Os.System.create ~mode ~store:(store_of tenants) () in
  let mr = Os.System.machine recycled in
  Alcotest.(check bool) "built on the released storage" true
    (mr.Isa.Machine.watched == watched);
  check_pristine mr ~cap;
  Alcotest.(check string) (name ^ ": capture after create")
    (Os.Snapshot.capture fresh) (Os.Snapshot.capture recycled);
  let er = spawn_all recycled tenants and ef = spawn_all fresh tenants in
  Option.iter
    (fun plan ->
      ignore (attach_injector recycled er plan);
      ignore (attach_injector fresh ef plan))
    inject;
  Alcotest.(check string) (name ^ ": capture after spawn")
    (Os.Snapshot.capture fresh) (Os.Snapshot.capture recycled);
  (* A whole wave: here on recycled storage, in a new domain (whose
     slot is empty) on fresh. *)
  let run () =
    Os.Arena.run_wave ~mode ?inject ~quota:Os.Arena.default_quota ~wave:0
      tenants
  in
  ignore (dirty_and_release ());
  let r = run () in
  let f = Domain.join (Domain.spawn run) in
  Alcotest.(check int) "audits" f.Os.Arena.audits r.Os.Arena.audits;
  Alcotest.(check (list string)) "violations" f.Os.Arena.violations
    r.Os.Arena.violations;
  Alcotest.(check bool) (name ^ ": same bills") true
    (f.Os.Arena.bills = r.Os.Arena.bills)

let recycle_cases =
  List.concat_map
    (fun ((name, _) as mode) ->
      [
        Alcotest.test_case (name ^ ": recycled = fresh") `Quick
          (test_recycled_equals_fresh mode None);
        Alcotest.test_case (name ^ "+inject: recycled = fresh") `Quick
          (test_recycled_equals_fresh mode
             (Some (Hw.Inject.default_plan ~seed:3)));
      ])
    [
      ("hw", Isa.Machine.Ring_hardware);
      ("645", Isa.Machine.Ring_software_645);
      ("cap", Isa.Machine.Ring_capability);
    ]

let suite =
  [
    ( "arena",
      [
        Alcotest.test_case "cycle quota is exact" `Quick
          test_cycle_quota_exact;
        Alcotest.test_case "memory quota refuses at admission" `Quick
          test_mem_quota_admission;
        Alcotest.test_case "io quota trips on channel churn" `Quick
          test_io_quota;
        Alcotest.test_case "survivors degrade gracefully" `Quick
          test_survivors_degrade_gracefully;
        Alcotest.test_case "billing byte-identical across shards" `Quick
          test_billing_deterministic;
        Alcotest.test_case "generator deterministic with spinner floor"
          `Quick test_generator;
        Alcotest.test_case "zero-leak gate holds under injection" `Quick
          test_with_injection;
      ]
      @ recycle_cases );
  ]
