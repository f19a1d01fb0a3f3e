(* serve: the serving fleet end to end.  One op routes the standard mix
   through Serve.Dispatcher.run on two shards and a two-domain pool,
   then aggregates the outcomes and renders the report.  Queues are
   deep enough that nothing is shed. *)

let requests = 240

let config =
  {
    (Serve.Dispatcher.default_config ~shards:2) with
    Serve.Dispatcher.pool = Some 2;
    queue_cap = requests;
  }

(* Every stream has the standard mix's make-up exactly: each class gets
   its weight's share of the requests, taken in order from a longer
   seeded stream, on that stream's own arrival stamps.  Seeds change
   the order and the arrivals, not how much work a stream holds. *)
let stream ~variant =
  let mix = Serve.Workload.standard_mix in
  let total = List.fold_left (fun acc (_, _, w) -> acc + w) 0 mix.entries in
  let room = Hashtbl.create 8 in
  List.iter
    (fun (p, iters, w) -> Hashtbl.replace room (p, iters) (requests * w / total))
    mix.entries;
  let pool = Serve.Workload.generate ~mix ~seed:(1 + variant) ~requests:(8 * requests) in
  let picked =
    List.filter
      (fun (r : Serve.Workload.request) ->
        let k = (r.program, r.iterations) in
        let n = Hashtbl.find room k in
        Hashtbl.replace room k (n - 1);
        n > 0)
      pool
  in
  if List.length picked <> requests then failwith "serve: stream short of a class";
  List.mapi
    (fun id ((r : Serve.Workload.request), (slot : Serve.Workload.request)) ->
      Op.check_iterations r.iterations;
      { r with id; arrival = slot.arrival })
    (List.combine picked (List.filteri (fun i _ -> i < requests) pool))

(* The report's fleet section: a function of the outcome set alone. *)
let fleet_digest report =
  match Trace.Json.parse report with
  | Error e -> failwith ("serve: report is not JSON: " ^ e)
  | Ok doc -> (
      match Trace.Json.member "fleet" doc with
      | None -> failwith "serve: report has no fleet section"
      | Some fleet -> Op.digest (Format.asprintf "%a" Trace.Json.pp fleet))

let prepare ~variant ~deep:_ tr =
  let reqs = stream ~variant in
  fun () ->
    let (result, agg, report), seconds =
      Op.time (fun () ->
          let result =
            Span_log.with_span tr "serve.dispatcher.run" (fun () ->
                Serve.Dispatcher.run config reqs)
          in
          let agg =
            Span_log.with_span tr "serve.aggregate.build" (fun () ->
                Serve.Aggregate.build result.models result.outcomes result.stats)
          in
          let report =
            Span_log.with_span tr "serve.aggregate.report_json" (fun () ->
                Serve.Aggregate.report_json agg)
          in
          (result, agg, report))
    in
    let stats = result.Serve.Dispatcher.stats in
    let c name v = Span_log.count tr name (float_of_int v) in
    c "serve.dispatcher.routed_hash" stats.routed_hash;
    c "serve.dispatcher.routed_balanced" stats.routed_balanced;
    let host = result.host in
    let executed = Array.to_list host.hs_executed in
    c "serve.pool.executed" (List.fold_left ( + ) 0 executed);
    c "serve.pool.stolen" (Array.fold_left ( + ) 0 host.hs_stolen);
    Span_log.count tr "serve.pool.imbalance"
      (float_of_int (List.fold_left max 0 executed)
      /. Stat.mean (List.map float_of_int executed));
    let served_ok =
      List.length (List.filter (fun o -> o.Serve.Shard.ok) result.outcomes)
    in
    let instructions =
      match agg.Serve.Aggregate.fleet.counters with
      | Some s -> s.Trace.Counters.instructions
      | None -> 0
    in
    {
      Op.seconds;
      instructions;
      requests;
      (* Shed and unclean exits both miss the count. *)
      failed = requests - served_ok;
      observed = [ ("fleet", fleet_digest report) ];
    }

(* ------------------------------------------------------------------ *)
(* Layer replays.  Shard does not expose its machine, so the warm-boot
   replay builds systems of the shard's shape itself: 2^18 words, one
   process, the Os.Scenario caller and gated service of each catalog
   program.  [check_replay_shape] holds them to the shard's own boot
   images. *)

let acl_all access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

(* [program -> (mode, paged, caller ring, callee ring, argument)] *)
let shape = function
  | "crossing-hw" -> (Isa.Machine.Ring_hardware, false, 4, 1, false)
  | "crossing-645" -> (Isa.Machine.Ring_software_645, false, 4, 1, false)
  | "same-ring" -> (Isa.Machine.Ring_hardware, false, 4, 4, false)
  | "outward" -> (Isa.Machine.Ring_hardware, false, 1, 3, false)
  | "argcross" -> (Isa.Machine.Ring_hardware, false, 4, 1, true)
  | "paged" -> (Isa.Machine.Ring_hardware, true, 4, 1, true)
  | p -> failwith ("serve: no replay shape for " ^ p)

let shard_system (program, iterations) =
  let mode, paged, caller_ring, callee_ring, arg = shape program in
  let callable_from = max caller_ring callee_ring in
  let r_data = max caller_ring callee_ring in
  let store = Os.Store.create () in
  let add name access src = Os.Store.add_source store ~name ~acl:(acl_all access) src in
  add "caller"
    (Rings.Access.procedure_segment ~execute_in:caller_ring
       ~callable_from:caller_ring ())
    (Os.Scenario.caller_source
       ?arg_symbol:(if arg then Some "data$word0" else None)
       ~callee_link:"service$entry" ~iterations ());
  add "service"
    (Rings.Access.procedure_segment ~execute_in:callee_ring ~callable_from ())
    (Os.Scenario.callee_source ~touch_argument:arg ());
  if arg then
    add "data"
      (Rings.Access.data_segment ~writable_to:r_data ~readable_to:r_data ())
      "word0:  .word 7\n";
  let sys = Os.System.create ~mode ~mem_size:(1 lsl 18) ~store () in
  let segments = [ "caller"; "service" ] @ if arg then [ "data" ] else [] in
  (match
     Os.System.spawn sys ~paged ~pname:"req" ~user:"alice" ~segments
       ~start:("caller", "start") ~ring:caller_ring
   with
  | Ok _ -> ()
  | Error e -> failwith ("serve: replay spawn failed: " ^ e));
  Trace.Profile.set_enabled (Os.System.machine sys).Isa.Machine.profile true;
  (sys, Os.Snapshot.capture sys)

let replay_shard tr reqs =
  let shard = Serve.Shard.create ~id:0 () in
  List.iter
    (fun (r : Serve.Workload.request) ->
      Span_log.set_req (Some tr) r.id;
      let o =
        Span_log.with_span (Some tr) "serve.shard.exec" (fun () ->
            Serve.Shard.exec shard r)
      in
      if not o.Serve.Shard.ok then failwith "serve: shard replay failed")
    reqs;
  shard

let replay_warm_boot tr reqs =
  let slots = Hashtbl.create 8 in
  List.iter
    (fun (r : Serve.Workload.request) ->
      let k = (r.program, r.iterations) in
      let sys, image =
        match Hashtbl.find_opt slots k with
        | Some slot -> slot
        | None ->
            let slot = shard_system k in
            Hashtbl.replace slots k slot;
            slot
      in
      Span_log.set_req (Some tr) r.id;
      (match
         Span_log.with_span (Some tr) "os.snapshot.warm_boot" (fun () ->
             Os.Snapshot.warm_boot sys image)
       with
      | Ok () -> ()
      | Error e ->
          failwith (Format.asprintf "serve: warm boot: %a" Os.Snapshot.pp_error e));
      let mem = (Os.System.machine sys).Isa.Machine.mem in
      Hw.Memory.clear_dirty mem;
      (match
         Span_log.with_span (Some tr) "os.system.run" (fun () ->
             Os.System.run sys)
       with
      | [ (_, Os.Kernel.Exited) ] -> ()
      | _ -> failwith "serve: replayed request did not exit");
      Span_log.count (Some tr) "os.snapshot.dirty_pages"
        (float_of_int (List.length (Hw.Memory.dirty_pages mem))))
    reqs;
  slots

(* The replay's systems stand for the shard's only if they boot from
   the same images: every class the shard booted must have been
   captured byte for byte the same by the replay. *)
let check_replay_shape shard slots =
  let images = Serve.Shard.images shard in
  if List.length images <> Hashtbl.length slots then
    failwith "serve: replay booted other classes than the shard";
  List.iter
    (fun (((program, iterations) as k), image) ->
      match Hashtbl.find_opt slots k with
      | Some (_, replayed) when String.equal image replayed -> ()
      | _ ->
          failwith
            (Printf.sprintf "serve: replayed %s/%d differs from the shard's boot image"
               program iterations))
    images

let layers ~variant t =
  let reqs = stream ~variant in
  let shard = replay_shard t reqs in
  check_replay_shape shard (replay_warm_boot t reqs);
  let us name p = 1e6 *. Stat.percentile (Span_log.durations t name) p in
  let ms name = 1e3 *. Stat.median (Span_log.durations t name) in
  let n = Span_log.counted t in
  let ops = float_of_int (List.length (Span_log.durations t "serve.dispatcher.run")) in
  let image = Serve.Shard.image_stats shard in
  [
    ("os.snapshot.warm_boot_us.p50", us "os.snapshot.warm_boot" 50.0, "us");
    ("os.snapshot.warm_boot_us.p99", us "os.snapshot.warm_boot" 99.0, "us");
    ("os.system.run_us.p50", us "os.system.run" 50.0, "us");
    ("os.system.run_us.p99", us "os.system.run" 99.0, "us");
    ( "os.snapshot.dirty_pages_per_req",
      n "os.snapshot.dirty_pages" /. float_of_int requests,
      "pages" );
    ("serve.shard.exec_us.p50", us "serve.shard.exec" 50.0, "us");
    ("serve.shard.exec_us.p99", us "serve.shard.exec" 99.0, "us");
    ( "serve.shard.image_hit_ratio",
      Stat.ratio image.Hw.Assoc.hits (image.hits + image.misses),
      "ratio" );
    ( "serve.shard.cold_boots",
      float_of_int (Serve.Shard.cold_boots shard),
      "count" );
    ( "serve.dispatcher.run_s",
      Stat.median (Span_log.durations t "serve.dispatcher.run"),
      "s" );
    ( "serve.dispatcher.balanced_share",
      n "serve.dispatcher.routed_balanced"
      /. (n "serve.dispatcher.routed_balanced" +. n "serve.dispatcher.routed_hash"),
      "ratio" );
    ("serve.pool.steal_share", n "serve.pool.stolen" /. n "serve.pool.executed", "ratio");
    ("serve.pool.imbalance", n "serve.pool.imbalance" /. ops, "ratio");
    ("serve.aggregate.build_ms", ms "serve.aggregate.build", "ms");
    ("serve.aggregate.report_json_ms", ms "serve.aggregate.report_json", "ms");
  ]

let workload = { Op.name = "serve"; prepare; layers }
