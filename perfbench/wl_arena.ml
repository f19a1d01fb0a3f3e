(* arena: the multi-tenant arena.  One op runs a standard-profile tenant
   population through Serve.Tenants.run_sharded ~shards:1 (spelt out
   below) and renders Os.Arena.report_json.  Machine creation,
   assembly, spawning and the two auditors dominate; each tenant
   retires few instructions. *)

(* Every population has the standard profile's make-up exactly — its
   weights, which sum to 100, read as tenant counts — drawn in order
   from a larger seeded population.  Seeds change the tenants, not how
   many of each kind there are, so they change the work little. *)
let make_up =
  match Serve.Tenants.kinds_of_profile "standard" with
  | Ok kinds -> kinds
  | Error e -> failwith e

let tenants = List.fold_left (fun acc (_, n) -> acc + n) 0 make_up

let population ~variant =
  let pool =
    Serve.Tenants.generate ~profile:"standard" ~seed:(1 + variant)
      ~tenants:(8 * tenants) ()
  in
  List.concat_map
    (fun (kind, n) ->
      let of_kind = List.filter (fun (t : Os.Arena.tenant) -> t.kind = kind) pool in
      if List.length of_kind < n then failwith ("arena: too few tenants of kind " ^ kind);
      List.filteri (fun i _ -> i < n) of_kind)
    make_up
  |> List.sort (fun (a : Os.Arena.tenant) b -> compare a.id b.id)
  |> List.mapi (fun id (t : Os.Arena.tenant) -> { t with id })

let quota = Os.Arena.default_quota

(* Serve.Tenants.run_sharded ~shards:1 spelt out — every wave in
   order, then assemble — through the same public calls, so each wave
   gets its own span.  Traced and untraced ops run this one path and
   differ only by their spans. *)
let run_campaign tr ~seed pop =
  let results =
    List.map
      (fun (wave, ts) ->
        Span_log.with_span tr "os.arena.run_wave" (fun () ->
            Os.Arena.run_wave ~quota ~wave ts))
      (Os.Arena.waves pop)
  in
  Span_log.with_span tr "os.arena.assemble" (fun () ->
      Os.Arena.assemble ~seed ~quota results)

let prepare ~variant ~deep:_ tr =
  let pop = population ~variant in
  fun () ->
    let (report, json), seconds =
      Op.time (fun () ->
          let report = run_campaign tr ~seed:variant pop in
          let json =
            Span_log.with_span tr "os.arena.report_json" (fun () ->
                Os.Arena.report_json report)
          in
          (report, json))
    in
    Span_log.count tr "os.arena.audits" (float_of_int report.audits);
    let instructions =
      List.fold_left
        (fun acc (b : Os.Arena.bill) -> acc + b.usage.Trace.Counters.instructions)
        0 report.bills
    in
    {
      Op.seconds;
      instructions;
      requests = tenants;
      (* An auditor finding is a protection failure of the whole
         campaign. *)
      failed = (if report.violations = [] then 0 else tenants);
      observed = [ ("report", Op.digest json) ];
    }

(* Replay of a wave's set-up, which run_wave does not expose: the
   wave's store and machine, its tenants spawned, one audit pass. *)
let replay_wave_setup tr (wave, ts) =
  let tr = Some tr in
  let store = Os.Store.create () in
  List.iter
    (fun (t : Os.Arena.tenant) ->
      List.iter
        (fun (name, acl, src) -> Os.Store.add_source store ~name ~acl src)
        t.segments)
    ts;
  let sys =
    Span_log.with_span tr "os.system.create" (fun () ->
        Os.System.create ~store ())
  in
  Span_log.with_span tr "os.system.spawn" (fun () ->
      List.iter
        (fun (t : Os.Arena.tenant) ->
          ignore
            (Os.System.spawn sys ~paged:t.paged ~pname:t.name ~user:t.name
               ~segments:(List.map (fun (n, _, _) -> n) t.segments)
               ~start:t.start ~ring:t.ring))
        ts);
  Span_log.with_span tr "os.chaos.audit" (fun () ->
      ignore
        (Os.Chaos.check_invariants ~campaign:wave sys
        @ Os.Chaos.check_cross_tenant sys))

let layers ~variant t =
  List.iter (replay_wave_setup t) (Os.Arena.waves (population ~variant));
  let ms name p = 1e3 *. Stat.percentile (Span_log.durations t name) p in
  let ops = float_of_int (List.length (Span_log.durations t "os.arena.assemble")) in
  [
    ("os.system.create_ms", ms "os.system.create" 50.0, "ms");
    ("os.system.spawn_ms", ms "os.system.spawn" 50.0, "ms");
    ("os.chaos.audit_ms", ms "os.chaos.audit" 50.0, "ms");
    ("os.arena.wave_ms.p50", ms "os.arena.run_wave" 50.0, "ms");
    ("os.arena.wave_ms.p99", ms "os.arena.run_wave" 99.0, "ms");
    ("os.arena.assemble_ms", ms "os.arena.assemble" 50.0, "ms");
    ("os.arena.report_json_ms", ms "os.arena.report_json" 50.0, "ms");
    ("os.arena.audits", Span_log.counted t "os.arena.audits" /. ops, "count");
  ]

let workload = { Op.name = "arena"; prepare; layers }
