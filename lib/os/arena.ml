(* The multi-tenant arena: the 1971 paper's mutually-suspicious
   procedures at consumer scale.  N untrusted tenant programs share
   simulated machines in outer rings; each is billed for every cycle,
   fault and channel operation it causes and is quarantined — never
   the machine — when it spends past its quota.  After every
   quarantine and at the end of each wave the SDW auditor (plus the
   arena's cross-tenant region check) must find the protection state
   intact: that is the standing zero-leak gate.

   One machine hosts at most [wave_capacity] processes (memory holds
   eight process regions), so a campaign runs in waves: tenants
   [0..7] on one machine, [8..15] on the next, and so on.  Wave
   composition is a pure function of the tenant list, and every wave
   gets its own store, machine and injector.  A wave's machine is
   built on the memory the previous wave on the same domain released
   ({!Isa.Machine.release}), reset to exactly the state fresh storage
   has — so waves can run sequentially or spread over domains and the
   assembled report is byte-identical either way. *)

type quota = { cycles : int; mem : int; faults : int; io : int }

(* Generous enough that every honest tenant finishes well inside it;
   tight enough that a spinner burns out in a couple hundred slices. *)
let default_quota = { cycles = 20_000; mem = 4_096; faults = 8; io = 64 }

type tenant = {
  id : int;
  name : string;
  kind : string;
  adversarial : bool;
  ring : int;
  paged : bool;
  start : string * string;
  segments : (string * Acl.entry list * string) list;
}

let wave_capacity = 8

let waves tenants =
  let sorted = List.sort (fun a b -> compare a.id b.id) tenants in
  let rec chunk i acc current n = function
    | [] ->
        List.rev
          (if current = [] then acc else (i, List.rev current) :: acc)
    | t :: rest ->
        if n = wave_capacity then
          chunk (i + 1) ((i, List.rev current) :: acc) [ t ] 1 rest
        else chunk i acc (t :: current) (n + 1) rest
  in
  chunk 0 [] [] 0 sorted

type bill = {
  tenant : int;
  name : string;
  kind : string;
  adversarial : bool;
  ring : int;
  mem_words : int;
  usage : Trace.Counters.snapshot;
  exit : string;
  verdict : string;
}

type wave_result = {
  wave : int;
  bills : bill list;
  violations : string list;
  audits : int;
}

(* What counts against the fault quota: damage the kernel had to act
   on for this tenant — access violations, page faults brought in on
   its behalf, and injected faults scrubbed-and-resumed. *)
let billed_faults (s : Trace.Counters.snapshot) =
  s.Trace.Counters.access_violations + s.Trace.Counters.page_faults
  + s.Trace.Counters.recovered

let mem_words_of (p : Process.t) =
  List.fold_left
    (fun acc (l : Process.loaded) -> acc + l.Process.bound)
    0 p.Process.loaded

let exit_text (e : Kernel.exit) = Format.asprintf "%a" Kernel.pp_exit e

let verdict_of_exit (e : Kernel.exit) =
  match e with
  | Kernel.Exited | Kernel.Halted -> "ok"
  | Kernel.Terminated _ -> "contained"
  | Kernel.Quarantined (Rings.Fault.Quota_exhausted { resource; _ }) ->
      Printf.sprintf "quarantined: %s quota" resource
  | Kernel.Quarantined _ -> "quarantined: fault budget"
  | Kernel.Out_of_budget -> "over budget"
  | Kernel.Preempted | Kernel.Blocked | Kernel.Gatekeeper_error _ -> "stuck"

let run_wave ?mode ?(quantum = 50) ?inject ~quota ~wave tenants =
  let tenants = List.sort (fun a b -> compare a.id b.id) tenants in
  if List.length tenants > wave_capacity then
    invalid_arg "Arena.run_wave: more tenants than machine regions";
  let store = Store.create () in
  List.iter
    (fun (t : tenant) ->
      List.iter
        (fun (name, acl, src) -> Store.add_source store ~name ~acl src)
        t.segments)
    tenants;
  let sys = System.create ?mode ~store () in
  let m = System.machine sys in
  let counters = m.Isa.Machine.counters in
  let violations = ref [] in
  let audits = ref 0 in
  let audit note =
    incr audits;
    let found = Chaos.check_invariants ~campaign:wave sys
                @ Chaos.check_cross_tenant sys in
    List.iter
      (fun v ->
        violations :=
          Printf.sprintf "wave %d (%s): %s" wave note v :: !violations)
      found
  in
  (* Spawn every tenant, then bill admission: a tenant whose virtual
     memory is already over its memory quota is quarantined before it
     ever runs — its region stays allocated (the map the cross-tenant
     auditor checks is positional) but the processor never dispatches
     it. *)
  let spawned =
    List.map
      (fun (t : tenant) ->
        match
          System.spawn sys ~paged:t.paged ~pname:t.name ~user:t.name
            ~segments:(List.map (fun (n, _, _) -> n) t.segments)
            ~start:t.start ~ring:t.ring
        with
        | Ok e -> (t, Some e)
        | Error msg ->
            violations :=
              Printf.sprintf "wave %d: %s failed to spawn: %s" wave t.name
                msg
              :: !violations;
            (t, None))
      tenants
  in
  let entry_tenant = Hashtbl.create 8 in
  List.iter
    (fun (t, e) ->
      match e with
      | Some e -> Hashtbl.replace entry_tenant e.System.pname t
      | None -> ())
    spawned;
  List.iter
    (fun ((t : tenant), e) ->
      match e with
      | Some e when mem_words_of e.System.process > quota.mem ->
          System.quarantine sys e
            (Rings.Fault.Quota_exhausted
               { resource = "memory"; limit = quota.mem });
          audit (t.name ^ " admission quarantine")
      | _ -> ())
    spawned;
  (match inject with
  | None -> ()
  | Some plan ->
      let inj =
        Hw.Inject.create { plan with Hw.Inject.seed = plan.Hw.Inject.seed + (wave * 7919) }
      in
      List.iter
        (fun (_, e) ->
          match e with
          | Some e ->
              List.iter
                (fun (base, len) ->
                  Hw.Inject.register_descriptor_range inj ~base ~len)
                (Process.descriptor_ranges e.System.process)
          | None -> ())
        spawned;
      Isa.Machine.attach_injector m inj;
      (* Audit after every kernel recovery decision, exactly as the
         chaos campaigns do, with the cross-tenant check added. *)
      m.Isa.Machine.on_recovery <-
        (fun f -> audit (Format.asprintf "recovery from %a" Rings.Fault.pp f)));
  let ledger = Trace.Ledger.create () in
  let slice_before = ref (Trace.Counters.snapshot counters) in
  let before_slice (e : System.entry) =
    slice_before := Trace.Counters.snapshot counters;
    match Hashtbl.find_opt entry_tenant e.System.pname with
    | None -> ()
    | Some t ->
        let spent =
          (Trace.Ledger.bill ledger ~tenant:t.id).Trace.Counters.cycles
        in
        let remaining = max 0 (quota.cycles - spent) in
        Isa.Machine.set_cycle_limit m
          (Some (Trace.Counters.cycles counters + remaining))
  in
  let after_slice (e : System.entry) (_result : Kernel.exit) =
    Isa.Machine.set_cycle_limit m None;
    match Hashtbl.find_opt entry_tenant e.System.pname with
    | None -> ()
    | Some t ->
        let after = Trace.Counters.snapshot counters in
        Trace.Ledger.charge ledger ~tenant:t.id
          (Trace.Counters.diff ~before:!slice_before ~after);
        let bill = Trace.Ledger.bill ledger ~tenant:t.id in
        let quarantined_now =
          match e.System.status with
          | System.Done (Kernel.Quarantined _) -> true
          | System.Done _ | System.Ready | System.Blocked ->
              let breach resource limit =
                System.quarantine sys e
                  (Rings.Fault.Quota_exhausted { resource; limit })
              in
              if bill.Trace.Counters.cycles >= quota.cycles then (
                breach "cycles" quota.cycles;
                true)
              else if billed_faults bill > quota.faults then (
                breach "faults" quota.faults;
                true)
              else if bill.Trace.Counters.channel_ops > quota.io then (
                breach "io" quota.io;
                true)
              else if mem_words_of e.System.process > quota.mem then (
                breach "memory" quota.mem;
                true)
              else false
        in
        if quarantined_now then audit (t.name ^ " quarantine")
  in
  (* Budget: cycles-per-slice is at least the quantum (every
     instruction costs >= 1 cycle), so a full wave of spinners needs
     at most capacity * quota.cycles / quantum slices; the slack
     covers honest tenants' trap-service cycles and idle quanta. *)
  let max_slices =
    (wave_capacity * ((quota.cycles / quantum) + 2)) + 64
  in
  let (_ : (string * Kernel.exit) list) =
    System.run ~quantum ~max_slices ~before_slice ~after_slice sys
  in
  audit "wave end";
  (match m.Isa.Machine.injector with
  | Some inj when Hw.Inject.poisoned inj > 0 ->
      violations :=
        Printf.sprintf "wave %d: %d poisoned words never scrubbed" wave
          (Hw.Inject.poisoned inj)
        :: !violations
  | _ -> ());
  let bills =
    List.map
      (fun (t, e) ->
        let usage = Trace.Ledger.bill ledger ~tenant:t.id in
        let mem_words, exit =
          match e with
          | None -> (0, Kernel.Gatekeeper_error "spawn failed")
          | Some e -> (
              ( mem_words_of e.System.process,
                match e.System.status with
                | System.Done x -> x
                | System.Ready | System.Blocked -> Kernel.Out_of_budget ))
        in
        {
          tenant = t.id;
          name = t.name;
          kind = t.kind;
          adversarial = t.adversarial;
          ring = t.ring;
          mem_words;
          usage;
          exit = exit_text exit;
          verdict = verdict_of_exit exit;
        })
      spawned
  in
  (* Nothing in the result refers to the machine: recycle its memory
     for the next wave on this domain. *)
  Isa.Machine.release m;
  { wave; bills; violations = List.rev !violations; audits = !audits }

type report = {
  tenants : int;
  seed : int;
  quota : quota;
  waves : int;
  bills : bill list;
  exits : (string * int) list;
  completed : int;
  contained : int;
  quarantined : int;
  audits : int;
  violations : string list;
}

let assemble ~seed ~quota results =
  let results =
    List.sort (fun (a : wave_result) b -> compare a.wave b.wave) results
  in
  let bills = List.concat_map (fun (r : wave_result) -> r.bills) results in
  let exits =
    List.fold_left
      (fun acc b ->
        let n = try List.assoc b.exit acc with Not_found -> 0 in
        (b.exit, n + 1) :: List.remove_assoc b.exit acc)
      [] bills
    |> List.sort compare
  in
  let count p = List.length (List.filter p bills) in
  {
    tenants = List.length bills;
    seed;
    quota;
    waves = List.length results;
    bills;
    exits;
    completed = count (fun b -> b.verdict = "ok");
    contained = count (fun b -> b.verdict = "contained");
    quarantined =
      count (fun b ->
          String.length b.verdict >= 11
          && String.sub b.verdict 0 11 = "quarantined");
    audits = List.fold_left (fun acc (r : wave_result) -> acc + r.audits) 0 results;
    violations =
      List.concat_map (fun (r : wave_result) -> r.violations) results;
  }

let run ?mode ?quantum ?inject ?(quota = default_quota) ~seed tenants =
  let results =
    List.map
      (fun (wave, ts) -> run_wave ?mode ?quantum ?inject ~quota ~wave ts)
      (waves tenants)
  in
  assemble ~seed ~quota results

(* {1 Reporting} *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let report_json r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"tenants\": %d,\n\
       \  \"seed\": %d,\n\
       \  \"waves\": %d,\n\
       \  \"quota\": {\"cycles\": %d, \"mem\": %d, \"faults\": %d, \"io\": \
        %d},\n\
       \  \"completed\": %d,\n\
       \  \"contained\": %d,\n\
       \  \"quarantined\": %d,\n\
       \  \"audits\": %d,\n"
       r.tenants r.seed r.waves r.quota.cycles r.quota.mem r.quota.faults
       r.quota.io r.completed r.contained r.quarantined r.audits);
  Buffer.add_string buf "  \"exits\": {";
  List.iteri
    (fun i (label, n) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "%S: %d" (json_escape label) n))
    r.exits;
  Buffer.add_string buf "},\n  \"violations\": [";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "%S" (json_escape v)))
    r.violations;
  Buffer.add_string buf "],\n  \"bills\": [\n";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"tenant\": %d, \"name\": %S, \"kind\": %S, \
            \"adversarial\": %b, \"ring\": %d, \"cycles\": %d, \
            \"instructions\": %d, \"faults\": %d, \"io_ops\": %d, \
            \"mem_words\": %d, \"exit\": %S, \"verdict\": %S}"
           b.tenant (json_escape b.name) (json_escape b.kind) b.adversarial
           b.ring b.usage.Trace.Counters.cycles
           b.usage.Trace.Counters.instructions (billed_faults b.usage)
           b.usage.Trace.Counters.channel_ops b.mem_words
           (json_escape b.exit) (json_escape b.verdict)))
    r.bills;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let pp_report ppf r =
  Format.fprintf ppf
    "arena: %d tenants in %d waves (seed %d) - %d completed, %d contained, \
     %d quarantined, %d audits, %d violations"
    r.tenants r.waves r.seed r.completed r.contained r.quarantined r.audits
    (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "@,  VIOLATION %s" v) r.violations

let print_table r =
  if r.tenants <= 32 then begin
    let t =
      Trace.Tablefmt.create
        ~columns:
          [
            ("tenant", Trace.Tablefmt.Left);
            ("kind", Trace.Tablefmt.Left);
            ("ring", Trace.Tablefmt.Right);
            ("cycles", Trace.Tablefmt.Right);
            ("instr", Trace.Tablefmt.Right);
            ("faults", Trace.Tablefmt.Right);
            ("io", Trace.Tablefmt.Right);
            ("mem", Trace.Tablefmt.Right);
            ("verdict", Trace.Tablefmt.Left);
          ]
    in
    List.iter
      (fun b ->
        Trace.Tablefmt.add_row t
          [
            b.name;
            b.kind;
            string_of_int b.ring;
            string_of_int b.usage.Trace.Counters.cycles;
            string_of_int b.usage.Trace.Counters.instructions;
            string_of_int (billed_faults b.usage);
            string_of_int b.usage.Trace.Counters.channel_ops;
            string_of_int b.mem_words;
            b.verdict;
          ])
      r.bills;
    Trace.Tablefmt.print ~title:"Arena - per-tenant billing" t
  end
  else begin
    (* Thousands of tenants: summarize per kind, in kind order. *)
    let kinds =
      List.sort_uniq compare (List.map (fun b -> b.kind) r.bills)
    in
    let t =
      Trace.Tablefmt.create
        ~columns:
          [
            ("kind", Trace.Tablefmt.Left);
            ("tenants", Trace.Tablefmt.Right);
            ("ok", Trace.Tablefmt.Right);
            ("contained", Trace.Tablefmt.Right);
            ("quarantined", Trace.Tablefmt.Right);
            ("cycles", Trace.Tablefmt.Right);
            ("instr", Trace.Tablefmt.Right);
          ]
    in
    List.iter
      (fun kind ->
        let of_kind = List.filter (fun b -> b.kind = kind) r.bills in
        let count p = List.length (List.filter p of_kind) in
        let sum f = List.fold_left (fun acc b -> acc + f b) 0 of_kind in
        Trace.Tablefmt.add_row t
          [
            kind;
            string_of_int (List.length of_kind);
            string_of_int (count (fun b -> b.verdict = "ok"));
            string_of_int (count (fun b -> b.verdict = "contained"));
            string_of_int
              (count (fun b ->
                   String.length b.verdict >= 11
                   && String.sub b.verdict 0 11 = "quarantined"));
            string_of_int (sum (fun b -> b.usage.Trace.Counters.cycles));
            string_of_int
              (sum (fun b -> b.usage.Trace.Counters.instructions));
          ])
      kinds;
    Trace.Tablefmt.print ~title:"Arena - billing by tenant kind" t
  end
