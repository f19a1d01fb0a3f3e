(* checkpoint: the write side of Os.Snapshot.  One op runs a two-process
   Os.System to completion, capturing a delta on every slice; every
   [fold_every] deltas it folds the chain (flatten, then rebase onto
   the fold), and at the end it restores the chain onto a fresh
   system.  The serving fleet uses the read side (warm_boot) instead. *)

(* Fold every 8 deltas, as ringsim's --checkpoint-every does. *)
let fold_every = 8

(* The slice length of bench/throughput.ml's incremental-snapshot
   section, which also captures a delta on every slice of a
   two-process run: a checkpoint every 2,500 instructions is an
   extreme rate that is still a real scheduling granularity. *)
let quantum = 2_500
let acl_all access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
let proc ring = Rings.Access.procedure_segment ~execute_in:ring ~callable_from:ring ()

(* Process [pa] makes plain 4->1 crossings; [pb] passes an argument it
   owns, so both processes dirty their own data.  The iterations split
   4:3 like that section's bump pair, and give about 66 slices: an
   op folds the chain 8 times, and the chain left for restore_chain is
   short. *)
let build ~variant =
  let store = Os.Store.create () in
  let add name access src = Os.Store.add_source store ~name ~acl:(acl_all access) src in
  let ia = 4_000 + (3 * variant) and ib = 3_000 + (2 * variant) in
  Op.check_iterations ia;
  Op.check_iterations ib;
  add "caller_a" (proc 4)
    (Os.Scenario.caller_source ~callee_link:"svc_a$entry" ~iterations:ia ());
  add "svc_a"
    (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4 ())
    (Os.Scenario.callee_source ());
  add "caller_b" (proc 4)
    (Os.Scenario.caller_source ~arg_symbol:"data_b$word0"
       ~callee_link:"svc_b$entry" ~iterations:ib ());
  add "svc_b"
    (Rings.Access.procedure_segment ~execute_in:1 ~callable_from:4 ())
    (Os.Scenario.callee_source ~touch_argument:true ());
  add "data_b"
    (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ())
    "word0:  .word 7\n";
  let sys = Os.System.create ~mem_size:(2 lsl 18) ~store () in
  let spawn pname user segments =
    match
      Os.System.spawn sys ~pname ~user ~segments
        ~start:(List.hd segments, "start") ~ring:4
    with
    | Ok _ -> ()
    | Error e -> failwith ("checkpoint: spawn failed: " ^ e)
  in
  spawn "pa" "alice" [ "caller_a"; "svc_a" ];
  spawn "pb" "bob" [ "caller_b"; "svc_b"; "data_b" ];
  sys

let ok what = function
  | Ok v -> v
  | Error e ->
      failwith (Format.asprintf "checkpoint: %s: %a" what Os.Snapshot.pp_error e)

let cycles sys = Trace.Counters.cycles (Os.System.machine sys).Isa.Machine.counters
let clean exits = List.filter (fun (_, e) -> e <> Os.Kernel.Exited) exits = []

(* The reference runs of a deep check.  A twin captures a full image at
   the same slice boundaries: each fold, and the final flatten, must be
   byte-equal to the twin's capture at that boundary.  A plain run
   captures nothing and must retire the same modeled cycles. *)
let deep_check ~variant ~folds ~final ~final_cycles =
  let twin = build ~variant in
  let fulls = ref [ Os.Snapshot.capture twin ] in
  ignore
    (Os.System.run ~quantum
       ~on_slice:(fun () -> fulls := Os.Snapshot.capture twin :: !fulls)
       twin);
  let fulls = Array.of_list (List.rev !fulls) in
  let folded_ok =
    List.for_all
      (fun (slice, img) -> String.equal img fulls.(slice))
      ((Array.length fulls - 1, final) :: folds)
  in
  let plain = build ~variant in
  let plain_exits = Os.System.run ~quantum plain in
  folded_ok && clean plain_exits && cycles plain = final_cycles

let prepare ~variant ~deep tr =
  let sys = build ~variant and target = build ~variant in
  fun () ->
    let mem = (Os.System.machine sys).Isa.Machine.mem in
    let folds = ref [] and slices = ref 0 in
    let ((exits, base, deltas, restored), seconds) =
      Op.time (fun () ->
          let chain, base0 =
            Span_log.with_span tr "os.snapshot.start_chain" (fun () ->
                Os.Snapshot.start_chain sys)
          in
          let base = ref base0 and deltas = ref [] in
          let last = ref (Span_log.now ()) in
          let on_slice () =
            Span_log.record tr "os.system.slice" ~start:!last ~stop:(Span_log.now ());
            incr slices;
            Span_log.count tr "os.snapshot.delta_pages"
              (float_of_int (List.length (Hw.Memory.dirty_pages mem)));
            let d =
              Span_log.with_span tr "os.snapshot.capture_delta" (fun () ->
                  Os.Snapshot.capture_delta sys chain)
            in
            Span_log.count tr "os.snapshot.delta_bytes" (float_of_int (String.length d));
            deltas := d :: !deltas;
            if Os.Snapshot.chain_length chain = fold_every then begin
              let folded =
                Span_log.with_span tr "os.snapshot.flatten" (fun () ->
                    ok "flatten" (Os.Snapshot.flatten ~base:!base (List.rev !deltas)))
              in
              Span_log.with_span tr "os.snapshot.rebase" (fun () ->
                  ok "rebase" (Os.Snapshot.rebase chain ~base:folded));
              base := folded;
              deltas := [];
              if deep then folds := (!slices, folded) :: !folds
            end;
            last := Span_log.now ()
          in
          let exits =
            Span_log.with_span tr "os.system.run" (fun () ->
                Os.System.run ~quantum ~on_slice sys)
          in
          let deltas = List.rev !deltas in
          let restored =
            Span_log.with_span tr "os.snapshot.restore_chain" (fun () ->
                Os.Snapshot.restore_chain target ~base:!base deltas)
          in
          (exits, !base, deltas, restored))
    in
    Span_log.count tr "os.snapshot.deltas" (float_of_int !slices);
    let final = ok "final flatten" (Os.Snapshot.flatten ~base deltas) in
    let restored_ok = Result.is_ok restored && cycles target = cycles sys in
    let deep_ok =
      (not deep) || deep_check ~variant ~folds:!folds ~final ~final_cycles:(cycles sys)
    in
    let failed = List.length (List.filter (fun (_, e) -> e <> Os.Kernel.Exited) exits) in
    {
      Op.seconds;
      instructions = Trace.Counters.instructions (Os.System.machine sys).Isa.Machine.counters;
      requests = 2;
      failed = (if restored_ok && deep_ok && List.length exits = 2 then failed else 2);
      observed =
        [ ("cycles", string_of_int (cycles sys)); ("image", Op.digest final) ];
    }

let layers ~variant:_ t =
  let us name p = 1e6 *. Stat.percentile (Span_log.durations t name) p in
  let ms name = 1e3 *. Stat.median (Span_log.durations t name) in
  let deltas = Span_log.counted t "os.snapshot.deltas" in
  [
    ("os.snapshot.capture_delta_us.p50", us "os.snapshot.capture_delta" 50.0, "us");
    ("os.snapshot.capture_delta_us.p99", us "os.snapshot.capture_delta" 99.0, "us");
    ("os.snapshot.delta_pages.mean", Span_log.counted t "os.snapshot.delta_pages" /. deltas, "pages");
    ("os.snapshot.delta_bytes.mean", Span_log.counted t "os.snapshot.delta_bytes" /. deltas, "bytes");
    ("os.snapshot.flatten_ms", ms "os.snapshot.flatten", "ms");
    ("os.snapshot.restore_chain_ms", ms "os.snapshot.restore_chain", "ms");
    ("os.system.slice_us.p50", us "os.system.slice" 50.0, "us");
  ]

let workload = { Op.name = "checkpoint"; prepare; layers }
