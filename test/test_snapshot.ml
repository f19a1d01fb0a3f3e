(* Checkpoint/restore: kill-and-resume must be indistinguishable from
   never having died, and anything less than a whole image must be
   refused with a typed error. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]
let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 ()

let bump_source ~n =
  Printf.sprintf
    "start:  lda =%d\n\
    \        sta pr6|5\n\
     loop:   aos cell,*\n\
    \        lda pr6|5\n\
    \        sba =1\n\
    \        sta pr6|5\n\
    \        tnz loop\n\
    \        mme =2\n\
     cell:   .its 0, counter$value\n"
    n

(* Two bump processes over a shared counter: enough slices for several
   checkpoint boundaries, with cross-process state (the shared segment)
   the image must carry exactly. *)
let build_store ~n1 ~n2 () =
  let store = Os.Store.create () in
  Os.Store.add_source store ~name:"bump_a" ~acl:(wildcard proc4)
    (bump_source ~n:n1);
  Os.Store.add_source store ~name:"bump_b" ~acl:(wildcard proc4)
    (bump_source ~n:n2);
  Os.Store.add_source store ~name:"counter"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()))
    "value:  .word 0\n";
  store

let spawn_pair sys =
  (match
     Os.System.spawn sys ~pname:"pa" ~user:"alice"
       ~segments:[ "bump_a"; "counter" ]
       ~start:("bump_a", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn pa: %s" e);
  match
    Os.System.spawn sys
      ~shared:[ ("counter", "pa") ]
      ~pname:"pb" ~user:"bob" ~segments:[ "bump_b" ]
      ~start:("bump_b", "start") ~ring:4
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn pb: %s" e

let fresh_system ?(n1 = 30) ?(n2 = 12) () =
  let sys = Os.System.create ~store:(build_store ~n1 ~n2 ()) () in
  spawn_pair sys;
  sys

let counters sys =
  (Os.System.machine sys).Isa.Machine.counters

let cycles sys = Trace.Counters.cycles (counters sys)

(* The two counters a resumed run legitimately owns for itself. *)
let session_local = [ "restores"; "journal_replays_skipped" ]

let comparable_fields sys =
  Trace.Counters.fields (Trace.Counters.snapshot (counters sys))
  |> List.filter (fun (name, _) -> not (List.mem name session_local))

let memory_words sys =
  let mem = (Os.System.machine sys).Isa.Machine.mem in
  let acc = ref [] in
  for a = Hw.Memory.size mem - 1 downto 0 do
    let w = Hw.Memory.read_silent mem a in
    if w <> 0 then acc := (a, w) :: !acc
  done;
  !acc

let device_outputs sys =
  List.map
    (fun (e : Os.System.entry) ->
      ( e.Os.System.pname,
        Os.Device.output_text e.Os.System.process.Os.Process.typewriter ))
    (Os.System.entries sys)

(* Run [sys], capturing exactly one image at the first slice boundary
   at or past [at] modeled cycles, and return it with the exits. *)
let run_capturing_at sys ~at =
  let image = ref None in
  let on_slice () =
    if !image = None && cycles sys >= at then
      image := Some (Os.Snapshot.capture sys)
  in
  let exits = Os.System.run ~on_slice sys in
  match !image with
  | Some img -> (img, exits)
  | None -> Alcotest.failf "run finished before %d cycles" at

let exit_pair = Alcotest.(pair string (testable Os.Kernel.pp_exit ( = )))

let test_kill_and_resume_equals_straight_run () =
  (* The uninterrupted run: checkpoint once mid-flight, keep going. *)
  let straight = fresh_system () in
  let image, _ = run_capturing_at straight ~at:150 in
  (* The killed run: same program, same checkpoint — then the process
     dies and a fresh system resumes from the image.  Nothing after
     the capture point is shared with the straight run. *)
  let resumed = fresh_system () in
  (match Os.Snapshot.restore resumed image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check (list (pair string int)))
    "counters identical (minus session-local)" (comparable_fields straight)
    (comparable_fields resumed);
  Alcotest.(check (list exit_pair))
    "completion log identical"
    (Os.System.finished_log straight)
    (Os.System.finished_log resumed);
  Alcotest.(check (list (pair int int)))
    "memory identical" (memory_words straight) (memory_words resumed);
  Alcotest.(check (list (pair string string)))
    "device output identical" (device_outputs straight)
    (device_outputs resumed);
  Alcotest.(check int) "resumed run counted its restore" 1
    (Trace.Counters.get (counters resumed) Restores);
  Alcotest.(check int) "straight run restored nothing" 0
    (Trace.Counters.get (counters straight) Restores)

let test_capture_is_deterministic () =
  let a = fresh_system () in
  let b = fresh_system () in
  let img_a, _ = run_capturing_at a ~at:150 in
  let img_b, _ = run_capturing_at b ~at:150 in
  Alcotest.(check bool) "identical runs capture identical bytes" true
    (String.equal img_a img_b)

let check_error what expected image =
  let sys = fresh_system () in
  match Os.Snapshot.restore sys image with
  | Ok () -> Alcotest.failf "%s: restore accepted a damaged image" what
  | Error e ->
      Alcotest.(check string)
        what expected
        (Format.asprintf "%a" Os.Snapshot.pp_error e)

let test_damaged_images_are_rejected () =
  let sys = fresh_system () in
  let image, _ = run_capturing_at sys ~at:150 in
  check_error "bad magic" "not a snapshot image (bad magic)"
    ("XXXXXXXX" ^ String.sub image 8 (String.length image - 8));
  (let b = Bytes.of_string image in
   (* Version is the second header word; the checksum covers only the
      payload, so this must surface as Bad_version, not checksum. *)
   Bytes.set b 15 '\x2a';
   check_error "version bump" "snapshot format version 42, this build reads 4"
     (Bytes.to_string b));
  check_error "truncated header" "snapshot image is truncated"
    (String.sub image 0 20);
  check_error "truncated payload" "snapshot image is truncated"
    (String.sub image 0 (String.length image - 1));
  (let b = Bytes.of_string image in
   Bytes.set b 100 (Char.chr (Char.code (Bytes.get b 100) lxor 1));
   check_error "flipped payload byte" "snapshot payload fails its checksum"
     (Bytes.to_string b));
  (* A different program shape: respawn with different process work. *)
  let other = Os.System.create ~store:(build_store ~n1:3 ~n2:2 ()) () in
  (match
     Os.System.spawn other ~pname:"solo" ~user:"alice"
       ~segments:[ "bump_a"; "counter" ]
       ~start:("bump_a", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn solo: %s" e);
  match Os.Snapshot.restore other image with
  | Error (Os.Snapshot.Shape_mismatch _) -> ()
  | Error e ->
      Alcotest.failf "expected shape mismatch, got %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "restore accepted an image for another system"

(* Offset of the first occurrence of [words], each an 8-byte
   big-endian integer, in [image]. *)
let find_words image words =
  let pat = Buffer.create 32 in
  List.iter (fun w -> Buffer.add_int64_be pat (Int64.of_int w)) words;
  let pat = Buffer.contents pat in
  let rec go i =
    if i + String.length pat > String.length image then
      Alcotest.fail "pattern not found in the image"
    else if String.equal (String.sub image i (String.length pat)) pat then i
    else go (i + 1)
  in
  go 32

(* Overwrite the integer at [at] and reseal, so the damage passes the
   checksum and only the decoder or the audit can catch it. *)
let reseal_with image ~at n =
  let b = Bytes.of_string image in
  Bytes.set_int64_be b at (Int64.of_int n);
  Snapshot_ref.reseal (Bytes.to_string b)

let expect_refused what ok image =
  match Os.Snapshot.restore (fresh_system ()) image with
  | Ok () -> Alcotest.failf "%s: restore accepted the image" what
  | Error e when ok e -> ()
  | Error e -> Alcotest.failf "%s: %a" what Os.Snapshot.pp_error e

(* Two resealed images [restore] once let escape as exceptions: a
   span-histogram count of 2^40 (which a reader preallocating by count
   turned into [Out_of_memory]), and a placement bound no SDW can hold
   (which decodes and re-captures whole, then makes the audit's SDW
   constructor raise). *)
let test_resealed_damage_is_a_typed_error () =
  let sys = fresh_system () in
  let seed = 0x5eed_0123_4567 in
  Trace.Span.set_sampling (Os.System.machine sys).Isa.Machine.spans
    ~interval:1 ~seed;
  let image, _ = run_capturing_at sys ~at:150 in
  (* The span section's sampler seed is followed by the histogram
     count. *)
  expect_refused "histogram count"
    (function Os.Snapshot.Corrupt _ -> true | _ -> false)
    (reseal_with image ~at:(find_words image [ seed ] + 8) (1 lsl 40));
  let p = (List.hd (Os.System.entries sys)).Os.System.process in
  match Hashtbl.find p.Os.Process.placement 0 with
  | Os.Process.Direct { base; bound } ->
      (* segno, Direct's tag, base, bound *)
      let at = find_words image [ 0; 0; base; bound ] + 24 in
      expect_refused "placement bound"
        (function
          | Os.Snapshot.Audit_rejected _ | Os.Snapshot.Corrupt _ -> true
          | _ -> false)
        (reseal_with image ~at 1_048_576)
  | Os.Process.Paged_at _ -> Alcotest.fail "segment 0 is not placed directly"

let test_audit_rejects_tampered_tables () =
  (* Widen an SDW behind the kernel's back, then checkpoint: the image
     is whole (checksum and self-check pass) but the restore audit
     must refuse it, because the stored SDW no longer derives from the
     kernel's access tables. *)
  let sys = fresh_system () in
  let image, _ =
    let image = ref None in
    let on_slice () =
      if !image = None && cycles sys >= 150 then begin
        let e = List.hd (Os.System.entries sys) in
        let p = e.Os.System.process in
        let m = Os.System.machine sys in
        let dbr = p.Os.Process.descsegs.(0) in
        let segno =
          match Os.Process.segno_of p "bump_a" with
          | Some s -> s
          | None -> Alcotest.fail "bump_a not loaded"
        in
        (match Hw.Descriptor.fetch_sdw_silent m.Isa.Machine.mem dbr ~segno with
        | Ok sdw ->
            Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
              (Hw.Sdw.v ~paged:sdw.Hw.Sdw.paged ~base:sdw.Hw.Sdw.base
                 ~bound:sdw.Hw.Sdw.bound
                 {
                   sdw.Hw.Sdw.access with
                   Rings.Access.write = true;
                   Rings.Access.read = true;
                 })
        | Error _ -> Alcotest.fail "SDW unreadable");
        image := Some (Os.Snapshot.capture sys)
      end
    in
    let exits = Os.System.run ~on_slice sys in
    (Option.get !image, exits)
  in
  let resumed = fresh_system () in
  match Os.Snapshot.restore resumed image with
  | Error (Os.Snapshot.Audit_rejected problems) ->
      Alcotest.(check bool) "at least one audit finding" true (problems <> []);
      Alcotest.(check int) "rejection counted" 1
        (Trace.Counters.get (counters resumed) Restore_audit_rejections)
  | Error e ->
      Alcotest.failf "expected audit rejection, got %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "audit accepted a tampered image"

let test_watchdog_quarantines_stuck_process () =
  let store = build_store ~n1:5 ~n2:5 () in
  Os.Store.add_source store ~name:"spin" ~acl:(wildcard proc4)
    "start:  tra start\n";
  let sys = Os.System.create ~store () in
  spawn_pair sys;
  (match
     Os.System.spawn sys ~pname:"stuck" ~user:"carol" ~segments:[ "spin" ]
       ~start:("spin", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn stuck: %s" e);
  let exits = Os.System.run ~watchdog:600 sys in
  (match List.assoc_opt "stuck" exits with
  | Some (Os.Kernel.Quarantined (Rings.Fault.Watchdog_timeout { budget })) ->
      Alcotest.(check int) "carries the budget" 600 budget
  | Some e ->
      Alcotest.failf "expected watchdog quarantine, got %a" Os.Kernel.pp_exit e
  | None -> Alcotest.fail "stuck process never finished");
  Alcotest.(check (option exit_pair))
    "the bystanders still exit cleanly"
    (Some ("pa", Os.Kernel.Exited))
    (List.find_opt (fun (n, _) -> n = "pa") exits);
  Alcotest.(check int) "watchdog_tripped counted" 1
    (Trace.Counters.get (counters sys) Watchdog_tripped)

let test_watchdog_off_by_default () =
  let store = build_store ~n1:5 ~n2:5 () in
  Os.Store.add_source store ~name:"spin" ~acl:(wildcard proc4)
    "start:  tra start\n";
  let sys = Os.System.create ~store () in
  (match
     Os.System.spawn sys ~pname:"stuck" ~user:"carol" ~segments:[ "spin" ]
       ~start:("spin", "start") ~ring:4
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn stuck: %s" e);
  let exits = Os.System.run ~max_slices:50 sys in
  Alcotest.(check (option exit_pair))
    "a legitimate-looking loop only runs out of budget"
    (Some ("stuck", Os.Kernel.Out_of_budget))
    (List.find_opt (fun (n, _) -> n = "stuck") exits);
  Alcotest.(check int) "no watchdog trip" 0
    (Trace.Counters.get (counters sys) Watchdog_tripped)

let test_journal_replay_and_divergence () =
  (* The dead run: two transfers, both journalled to the sink. *)
  let sink = ref [] in
  let dead = Hw.Journal.create () in
  Hw.Journal.set_sink dead (fun r -> sink := r :: !sink);
  (match Hw.Journal.append dead [ 104; 105 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "first transfer should emit");
  (match Hw.Journal.append dead [ 33 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "second transfer should emit");
  Alcotest.(check int) "two records durable" 2 (List.length !sink);
  (* The resumed run: preload both records, replay from seq 0. *)
  let resumed = Hw.Journal.create () in
  let skips = ref 0 in
  Hw.Journal.set_on_skip resumed (fun () -> incr skips);
  List.iter (Hw.Journal.preload resumed) (List.rev !sink);
  Alcotest.(check int) "replay watermark" 1 (Hw.Journal.replay_high resumed);
  (match Hw.Journal.append resumed [ 104; 105 ] with
  | Hw.Journal.Replayed -> ()
  | _ -> Alcotest.fail "identical replay should be skipped");
  Alcotest.(check int) "skip counted" 1 !skips;
  (match Hw.Journal.append resumed [ 99 ] with
  | Hw.Journal.Diverged _ -> ()
  | _ -> Alcotest.fail "different codes must diverge");
  Alcotest.(check bool) "divergence latched" true
    (Hw.Journal.divergence resumed <> None);
  (* Past the watermark, fresh output emits again. *)
  let emitted = ref 0 in
  Hw.Journal.set_sink resumed (fun _ -> incr emitted);
  (match Hw.Journal.append resumed [ 46 ] with
  | Hw.Journal.Emitted -> ()
  | _ -> Alcotest.fail "post-watermark transfer should emit");
  Alcotest.(check int) "sink saw it" 1 !emitted

(* [warm_boot] is the serving fleet's per-request rewind: the same
   image applied to the same process must leave every counter —
   including [restores], which full [restore] bumps — byte-identical
   to the state right after capture, so per-request deltas against the
   boot snapshot compare cleanly run after run. *)
let test_warm_boot_rewinds_in_place () =
  let sys = fresh_system () in
  let image = Os.Snapshot.capture sys in
  let boot = Trace.Counters.snapshot (counters sys) in
  let boot_mem = memory_words sys in
  let exits1 = Os.System.run sys in
  let d1 =
    Trace.Counters.diff ~before:boot
      ~after:(Trace.Counters.snapshot (counters sys))
  in
  (match Os.Snapshot.warm_boot sys image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warm_boot: %a" Os.Snapshot.pp_error e);
  Alcotest.(check (list (pair string int)))
    "counters rewound exactly, session-local ones included"
    (Trace.Counters.fields boot)
    (Trace.Counters.fields (Trace.Counters.snapshot (counters sys)));
  Alcotest.(check int) "warm boot did not count as a restore" 0
    (Trace.Counters.get (counters sys) Restores);
  Alcotest.(check (list (pair int int)))
    "memory rewound" boot_mem (memory_words sys);
  let exits2 = Os.System.run sys in
  Alcotest.(check (list exit_pair)) "re-run exits identical" exits1 exits2;
  let d2 =
    Trace.Counters.diff ~before:boot
      ~after:(Trace.Counters.snapshot (counters sys))
  in
  Alcotest.(check (list (pair string int)))
    "re-run delta identical to the first run's"
    (Trace.Counters.fields d1) (Trace.Counters.fields d2)

(* {1 Incremental capture: dirty pages, delta chains, flatten} *)

let machine_mem sys = (Os.System.machine sys).Isa.Machine.mem

(* Attach the deterministic fault injector the way the serving fleet
   does, so chain captures run under chaos: poison-table writes and
   retried instructions exercise the dirty-page tracking on the same
   write path ordinary stores use. *)
let attach_injector sys =
  let inj = Hw.Inject.create (Hw.Inject.default_plan ~seed:3) in
  List.iter
    (fun (e : Os.System.entry) ->
      List.iter
        (fun (base, len) -> Hw.Inject.register_descriptor_range inj ~base ~len)
        (Os.Process.descriptor_ranges e.Os.System.process))
    (Os.System.entries sys);
  Isa.Machine.attach_injector (Os.System.machine sys) inj

let test_dirty_pages_track_every_write_path () =
  let sys = fresh_system () in
  let mem = machine_mem sys in
  Hw.Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clean after clear" [] (Hw.Memory.dirty_pages mem);
  let gen = Hw.Memory.dirty_generation mem in
  (* A plain store marks exactly its page. *)
  let addr = 5 * Hw.Memory.page_words + 17 in
  Hw.Memory.write_silent mem addr 42;
  Alcotest.(check (list int)) "store marks its page" [ 5 ]
    (Hw.Memory.dirty_pages mem);
  (* Writing the same page again adds nothing; another page appends. *)
  Hw.Memory.write_silent mem (addr + 1) 43;
  Hw.Memory.blit_silent mem (9 * Hw.Memory.page_words) [| 1; 2; 3 |];
  Alcotest.(check (list int)) "pages ascending, deduplicated" [ 5; 9 ]
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check int) "generation moves only on clear" gen
    (Hw.Memory.dirty_generation mem);
  Hw.Memory.clear_dirty mem;
  Alcotest.(check (list int)) "clear empties the map" []
    (Hw.Memory.dirty_pages mem);
  Alcotest.(check bool) "clear advances the generation" true
    (Hw.Memory.dirty_generation mem > gen);
  (* A descriptor rewrite (the kernel-table write path) lands in the
     dirty map like any other store. *)
  let e = List.hd (Os.System.entries sys) in
  let p = e.Os.System.process in
  let m = Os.System.machine sys in
  let dbr = p.Os.Process.descsegs.(0) in
  let segno =
    match Os.Process.segno_of p "bump_a" with
    | Some s -> s
    | None -> Alcotest.fail "bump_a not loaded"
  in
  (match Hw.Descriptor.fetch_sdw_silent m.Isa.Machine.mem dbr ~segno with
  | Ok sdw ->
      Hw.Descriptor.store_sdw m.Isa.Machine.mem dbr ~segno
        (Hw.Sdw.v ~paged:sdw.Hw.Sdw.paged ~base:sdw.Hw.Sdw.base
           ~bound:sdw.Hw.Sdw.bound sdw.Hw.Sdw.access)
  | Error _ -> Alcotest.fail "SDW unreadable");
  Alcotest.(check bool) "descriptor rewrite marks its page" true
    (Hw.Memory.dirty_pages mem <> []);
  (* Restore rewrites memory through the same path: the pages it
     changes surface in the dirty map (a conservative superset — a
     chain stays correct across an in-place rewind). *)
  let image = Os.Snapshot.capture sys in
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run sys in
  Hw.Memory.clear_dirty mem;
  (match Os.Snapshot.warm_boot sys image with
  | Ok () -> ()
  | Error e -> Alcotest.failf "warm_boot: %a" Os.Snapshot.pp_error e);
  Alcotest.(check bool) "rewind marks the pages it rewrote" true
    (Hw.Memory.dirty_pages mem <> [])

(* The flatten invariant, end to end under chaos injection: run twin
   systems with the same fault plan, one capturing a delta chain and
   one capturing full images at the same slice boundaries.  Every
   prefix of the chain must flatten to the bytes the full capture
   wrote at that boundary — poison-table writes, journal traffic and
   retried stores included, since any write the dirty map missed would
   diverge the bytes. *)
let test_chain_flatten_matches_full_captures () =
  let a = fresh_system () and b = fresh_system () in
  attach_injector a;
  attach_injector b;
  let chain, base = Os.Snapshot.start_chain a in
  let full0 = Os.Snapshot.capture b in
  Alcotest.(check bool) "base equals the full capture at the same point" true
    (String.equal base full0);
  let deltas = ref [] and fulls = ref [] in
  let exits_a =
    Os.System.run
      ~on_slice:(fun () ->
        deltas := Os.Snapshot.capture_delta a chain :: !deltas)
      a
  in
  let exits_b =
    Os.System.run ~on_slice:(fun () -> fulls := Os.Snapshot.capture b :: !fulls) b
  in
  Alcotest.(check (list exit_pair)) "twin runs exit identically" exits_a exits_b;
  let deltas = List.rev !deltas and fulls = List.rev !fulls in
  Alcotest.(check int) "one delta per full capture" (List.length fulls)
    (List.length deltas);
  Alcotest.(check bool) "several checkpoint boundaries" true
    (List.length deltas >= 3);
  List.iteri
    (fun i full ->
      let prefix = List.filteri (fun j _ -> j <= i) deltas in
      match Os.Snapshot.flatten ~base prefix with
      | Ok img ->
          Alcotest.(check bool)
            (Printf.sprintf "link %d flattens to the full capture's bytes" i)
            true (String.equal img full)
      | Error e ->
          Alcotest.failf "flatten link %d: %a" i Os.Snapshot.pp_error e)
    fulls;
  (* Kill-and-resume through the chain: restore a mid-chain prefix
     onto a fresh system (injector attached — the image carries its
     state) and finish the run. *)
  let k = List.length deltas / 2 in
  let resumed = fresh_system () in
  attach_injector resumed;
  (match
     Os.Snapshot.restore_chain resumed ~base
       (List.filteri (fun j _ -> j < k) deltas)
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_chain: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check (list exit_pair))
    "resumed-from-chain completion log identical"
    (Os.System.finished_log a)
    (Os.System.finished_log resumed);
  Alcotest.(check (list (pair int int)))
    "resumed-from-chain memory identical" (memory_words a)
    (memory_words resumed)

let test_chain_rejections () =
  let sys = fresh_system () in
  let chain, base = Os.Snapshot.start_chain sys in
  let deltas = ref [] in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run
      ~on_slice:(fun () ->
        if List.length !deltas < 3 then
          deltas := Os.Snapshot.capture_delta sys chain :: !deltas)
      sys
  in
  let d1, d2, d3 =
    match List.rev !deltas with
    | [ x; y; z ] -> (x, y, z)
    | l -> Alcotest.failf "expected 3 deltas, got %d" (List.length l)
  in
  let flatten_err what expected deltas =
    match Os.Snapshot.flatten ~base deltas with
    | Ok _ -> Alcotest.failf "%s: flatten accepted a broken chain" what
    | Error e ->
        Alcotest.(check string)
          what expected
          (Format.asprintf "%a" Os.Snapshot.pp_error e)
  in
  (* The empty chain re-seals the base byte-identically. *)
  (match Os.Snapshot.flatten ~base [] with
  | Ok img ->
      Alcotest.(check bool) "flatten ~base [] re-seals the base" true
        (String.equal img base)
  | Error e -> Alcotest.failf "flatten []: %a" Os.Snapshot.pp_error e);
  (* A later delta handed as the first: its reference is d1, not base. *)
  (match Os.Snapshot.flatten ~base [ d2 ] with
  | Error Os.Snapshot.Stale_base -> ()
  | Error e -> Alcotest.failf "expected Stale_base, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a delta over the wrong base");
  (* A missing and a duplicated link are named by position. *)
  (match Os.Snapshot.flatten ~base [ d1; d3 ] with
  | Error (Os.Snapshot.Broken_chain 1) -> ()
  | Error e ->
      Alcotest.failf "expected Broken_chain 1, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a chain with a missing link");
  (match Os.Snapshot.flatten ~base [ d1; d1 ] with
  | Error (Os.Snapshot.Broken_chain 1) -> ()
  | Error e ->
      Alcotest.failf "expected Broken_chain 1, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a duplicated link");
  (* Damage inside a delta surfaces as the same layered errors full
     images get. *)
  (let t = Bytes.of_string d2 in
   Bytes.set t 100 (Char.chr (Char.code (Bytes.get t 100) lxor 1));
   flatten_err "flipped delta byte" "snapshot payload fails its checksum"
     [ d1; Bytes.to_string t; d3 ]);
  flatten_err "truncated delta" "snapshot image is truncated"
    [ String.sub d1 0 (String.length d1 - 1) ];
  (* Image kinds are not interchangeable. *)
  flatten_err "full image as a delta" "not a snapshot image (bad magic)"
    [ base ];
  match Os.Snapshot.flatten ~base:d1 [] with
  | Error Os.Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "expected Bad_magic, got %a" Os.Snapshot.pp_error e
  | Ok _ -> Alcotest.fail "flatten accepted a delta as a base"

(* Garbage collection of a live chain: fold the deltas captured so far
   into a new base, delete them, re-anchor the chain on the fold, and
   keep capturing.  The final state must restore from (folded base ++
   post-rebase deltas) exactly as the uncollected chain would have. *)
let test_rebase_continues_the_chain () =
  let sys = fresh_system () in
  let chain, base0 = Os.Snapshot.start_chain sys in
  let base = ref base0 in
  let deltas = ref [] in
  let slice = ref 0 in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run
      ~on_slice:(fun () ->
        incr slice;
        if !slice <= 2 || (!slice >= 4 && !slice <= 5) then
          deltas := !deltas @ [ Os.Snapshot.capture_delta sys chain ]
        else if !slice = 3 then begin
          (* The GC pass: BASE := flatten(BASE ++ deltas). *)
          match Os.Snapshot.flatten ~base:!base !deltas with
          | Error e -> Alcotest.failf "flatten: %a" Os.Snapshot.pp_error e
          | Ok folded -> (
              match Os.Snapshot.rebase chain ~base:folded with
              | Error e -> Alcotest.failf "rebase: %a" Os.Snapshot.pp_error e
              | Ok () ->
                  Alcotest.(check int) "rebase restarts the chain" 0
                    (Os.Snapshot.chain_length chain);
                  base := folded;
                  deltas := [])
        end)
      sys
  in
  Alcotest.(check int) "post-rebase deltas captured" 2 (List.length !deltas);
  let resumed = fresh_system () in
  (match Os.Snapshot.restore_chain resumed ~base:!base !deltas with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_chain: %a" Os.Snapshot.pp_error e);
  let (_ : (string * Os.Kernel.exit) list) = Os.System.run resumed in
  Alcotest.(check bool) "resumed-through-gc run converges" true
    (comparable_fields sys = comparable_fields resumed
    && memory_words sys = memory_words resumed);
  (* A rebase on garbage refuses and leaves the chain usable. *)
  let sys2 = fresh_system () in
  let chain2, base2 = Os.Snapshot.start_chain sys2 in
  (match Os.Snapshot.rebase chain2 ~base:"garbage" with
  | Error Os.Snapshot.Truncated | Error Os.Snapshot.Bad_magic -> ()
  | Error e -> Alcotest.failf "rebase garbage: %a" Os.Snapshot.pp_error e
  | Ok () -> Alcotest.fail "rebase accepted garbage");
  let d = Os.Snapshot.capture_delta sys2 chain2 in
  match Os.Snapshot.flatten ~base:base2 [ d ] with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "chain unusable after failed rebase: %a"
        Os.Snapshot.pp_error e

(* A chain keeps its own memory epoch, so interlopers between two of
   its captures — a full capture, a foreign [clear_dirty] right after a
   store the chain has not yet seen — can no longer make a delta miss
   pages.  Twin systems: one checkpoints a chain and suffers the
   interlopers, the other takes a full capture wherever the first
   captures anything and makes the same stores, so the two agree on
   every counter.  Every delta must flatten byte-equal to the twin's
   full capture at the same point.  A refused delta — memory size
   changed — must still leave [snapshots_written] as it was. *)
let test_chain_survives_interlopers_and_counter_rollback () =
  let a = fresh_system ~n1:60 ~n2:30 () and b = fresh_system ~n1:60 ~n2:30 () in
  let chain, base = Os.Snapshot.start_chain a in
  let (_ : string) = Os.Snapshot.capture b in
  (* A store to a page the program never touches, made on both twins. *)
  let stray sys i =
    let mem = machine_mem sys in
    Hw.Memory.write_silent mem (Hw.Memory.size mem - 1 - i) (i + 1)
  in
  let deltas = ref [] and fulls = ref [] in
  let slice_a = ref 0 and slice_b = ref 0 in
  let exits_a =
    Os.System.run
      ~on_slice:(fun () ->
        incr slice_a;
        (match !slice_a mod 3 with
        | 0 -> ignore (Os.Snapshot.capture a : string)
        | 1 ->
            stray a !slice_a;
            Hw.Memory.clear_dirty (machine_mem a)
        | _ -> ());
        deltas := Os.Snapshot.capture_delta a chain :: !deltas)
      a
  in
  let exits_b =
    Os.System.run
      ~on_slice:(fun () ->
        incr slice_b;
        (match !slice_b mod 3 with
        | 0 -> ignore (Os.Snapshot.capture b : string)
        | 1 -> stray b !slice_b
        | _ -> ());
        fulls := Os.Snapshot.capture b :: !fulls)
      b
  in
  Alcotest.(check (list exit_pair)) "twin runs exit identically" exits_a exits_b;
  let deltas = List.rev !deltas and fulls = List.rev !fulls in
  Alcotest.(check bool) "every interloper met at least twice" true
    (List.length deltas >= 6);
  List.iteri
    (fun i full ->
      let prefix = List.filteri (fun j _ -> j <= i) deltas in
      match Os.Snapshot.flatten ~base prefix with
      | Ok img ->
          Alcotest.(check bool)
            (Printf.sprintf "delta %d flattens to the full capture's bytes" i)
            true (String.equal img full)
      | Error e ->
          Alcotest.failf "flatten link %d: %a" i Os.Snapshot.pp_error e)
    fulls;
  (* The memory-size refusal is a failed capture: the counter bump is
     rolled back and the chain does not advance. *)
  let small =
    Os.System.create ~mem_size:(1 lsl 20) ~store:(build_store ~n1:30 ~n2:12 ()) ()
  in
  let c = counters small in
  let before = Trace.Counters.get c Snapshots_written in
  let length = Os.Snapshot.chain_length chain in
  (match Os.Snapshot.capture_delta small chain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capture_delta accepted a different memory size");
  Alcotest.(check int) "refused delta rolled back snapshots_written" before
    (Trace.Counters.get c Snapshots_written);
  Alcotest.(check int) "refused delta did not advance the chain" length
    (Os.Snapshot.chain_length chain)

(* {1 Differential: the sparse-merge fold against the dense one}

   Randomized chains on a process-less system whose memory is written
   directly: a size that may end in a partial page, words set and
   pages cleared back to zero before the base and between deltas, so
   chains include pages dirtied in several deltas, pages whose words
   all returned to zero and deltas that carry no page at all.  Every
   prefix of every chain — the empty one included — must fold to the
   bytes the dense reference fold ({!Snapshot_ref}) produces, and a
   damaged chain must be refused with the same error. *)

type mem_op = Set of int * int | Clear of int

type chain_case = {
  full_pages : int;
  tail : int;  (* words in a last partial page; 0 = none *)
  init : mem_op list;  (* before the base *)
  steps : mem_op list list;  (* one delta after each *)
}

let case_size c = (c.full_pages * Hw.Memory.page_words) + c.tail

let gen_chain_case ~min_steps =
  let open QCheck.Gen in
  let pw = Hw.Memory.page_words in
  let* full_pages = int_range 1 4 in
  let* tail = frequency [ (1, return 0); (3, int_range 1 (pw - 1)) ] in
  let size = (full_pages * pw) + tail in
  let npages = (size + pw - 1) / pw in
  let op =
    let* p = int_range 0 (npages - 1) in
    let len = min pw (size - (p * pw)) in
    frequency
      [
        (1, return (Clear p));
        ( 6,
          let* off =
            frequency
              [ (1, return 0); (1, return (len - 1)); (4, int_range 0 (len - 1)) ]
          in
          let* w =
            frequency
              [
                (2, return 0);
                (5, int_range 1 1000);
                (1, int_range (-(1 lsl 35)) (1 lsl 35));
              ]
          in
          return (Set ((p * pw) + off, w)) );
      ]
  in
  let* init = list_size (int_range 0 12) op in
  let* steps =
    list_size (int_range min_steps 6) (list_size (int_range 0 8) op)
  in
  return { full_pages; tail; init; steps }

let print_chain_case c =
  let op = function
    | Set (a, w) -> Printf.sprintf "%d:=%d" a w
    | Clear p -> Printf.sprintf "clear %d" p
  in
  let ops l = "[" ^ String.concat "; " (List.map op l) ^ "]" in
  Printf.sprintf "size %d, init %s, steps [%s]" (case_size c) (ops c.init)
    (String.concat "; " (List.map ops c.steps))

let run_chain_case c =
  let size = case_size c in
  let sys = Os.System.create ~mem_size:size ~store:(Os.Store.create ()) () in
  let mem = machine_mem sys in
  let apply = function
    | Set (a, w) -> Hw.Memory.write_silent mem a w
    | Clear p ->
        let pw = Hw.Memory.page_words in
        for a = p * pw to min size ((p + 1) * pw) - 1 do
          Hw.Memory.write_silent mem a 0
        done
  in
  List.iter apply c.init;
  let chain, base = Os.Snapshot.start_chain sys in
  let deltas =
    List.map
      (fun ops ->
        List.iter apply ops;
        Os.Snapshot.capture_delta sys chain)
      c.steps
  in
  (base, deltas)

let prop_flatten_matches_dense_fold =
  QCheck.Test.make ~name:"flatten = dense reference fold" ~count:150
    (QCheck.make ~print:print_chain_case (gen_chain_case ~min_steps:0))
    (fun c ->
      let base, deltas = run_chain_case c in
      List.for_all
        (fun k ->
          let prefix = List.filteri (fun j _ -> j < k) deltas in
          match Os.Snapshot.flatten ~base prefix with
          | Ok img -> Snapshot_ref.flatten ~base prefix = Ok img
          | Error e ->
              QCheck.Test.fail_reportf "prefix %d refused: %a" k
                Os.Snapshot.pp_error e)
        (List.init (List.length deltas + 1) Fun.id))

type damage =
  | Flip of int * int  (* image, byte *)
  | Truncate of int * int  (* image, length *)
  | Drop_first  (* the second delta handed as the first: stale base *)
  | Duplicate of int  (* a link repeated: broken chain *)
  | Resize of int  (* a delta's memory size changed, resealed *)
  | Unsort_base
    (* base pairs out of order (with fewer than two, one pair more
       claimed than present), resealed *)
  | Unsort_delta of int  (* a delta's pages or pairs out of order, resealed *)

let print_damage = function
  | Flip (i, b) -> Printf.sprintf "flip image %d byte %d" i b
  | Truncate (i, n) -> Printf.sprintf "truncate image %d to %d" i n
  | Drop_first -> "drop the first delta"
  | Duplicate i -> Printf.sprintf "duplicate delta %d" i
  | Resize i -> Printf.sprintf "resize delta %d" i
  | Unsort_base -> "unsort base pairs"
  | Unsort_delta i -> Printf.sprintf "unsort delta %d" i

let gen_damage =
  let open QCheck.Gen in
  let any = int_bound 1_000_000 in
  oneof
    [
      map2 (fun i b -> Flip (i, b)) any any;
      map2 (fun i n -> Truncate (i, n)) any any;
      return Drop_first;
      map (fun i -> Duplicate i) any;
      map (fun i -> Resize i) any;
      return Unsort_base;
      map (fun i -> Unsort_delta i) any;
    ]

let set_int b pos n = Bytes.set_int64_be b pos (Int64.of_int n)
let get_int s pos = Int64.to_int (String.get_int64_be s pos)

let swap_words b x y =
  let vx = Bytes.get_int64_be b x in
  Bytes.set_int64_be b x (Bytes.get_int64_be b y);
  Bytes.set_int64_be b y vx

(* Swap the offsets of the first delta page holding two pairs or,
   failing that, the first two page numbers. *)
let unsort_delta d =
  let b = Bytes.of_string d in
  let at = Snapshot_ref.delta_size_at d in
  let npages = get_int d (at + 8) in
  let rec find k pos =
    if k = npages then None
    else
      let nnz = get_int d (pos + 16) in
      if nnz >= 2 then Some (pos + 24) else find (k + 1) (pos + 24 + (16 * nnz))
  in
  (match find 0 (at + 16) with
  | Some pairs -> swap_words b pairs (pairs + 16)
  | None ->
      if npages >= 2 then
        let second = at + 16 + 24 + (16 * get_int d (at + 16 + 16)) in
        swap_words b (at + 16) second);
  Snapshot_ref.reseal (Bytes.to_string b)

let damage_chain ~base deltas d =
  let images = Array.of_list (base :: deltas) in
  let n = List.length deltas in
  let edit i f =
    let images = Array.copy images in
    images.(i) <- f images.(i);
    (images.(0), List.tl (Array.to_list images))
  in
  match d with
  | Flip (i, pos) ->
      edit (i mod (n + 1)) (fun s ->
          let b = Bytes.of_string s in
          let pos = pos mod Bytes.length b in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
          Bytes.to_string b)
  | Truncate (i, len) ->
      edit (i mod (n + 1)) (fun s -> String.sub s 0 (len mod String.length s))
  | Drop_first -> (base, List.tl deltas)
  | Duplicate i ->
      let i = i mod n in
      ( base,
        List.concat_map Fun.id
          (List.mapi (fun j d -> if j = i then [ d; d ] else [ d ]) deltas) )
  | Resize i ->
      edit (1 + (i mod n)) (fun s ->
          let b = Bytes.of_string s in
          let at = Snapshot_ref.delta_size_at s in
          set_int b at (get_int s at + Hw.Memory.page_words);
          Snapshot_ref.reseal (Bytes.to_string b))
  | Unsort_base ->
      edit 0 (fun s ->
          let b = Bytes.of_string s in
          let at = Snapshot_ref.memory_pairs_at s in
          (if get_int s at >= 2 then swap_words b (at + 8) (at + 24)
           else set_int b at (get_int s at + 1));
          Snapshot_ref.reseal (Bytes.to_string b))
  | Unsort_delta i -> edit (1 + (i mod n)) unsort_delta

let prop_damaged_chains_refused_alike =
  QCheck.Test.make ~name:"damaged chains: flatten errors = reference errors"
    ~count:200
    (QCheck.make
       ~print:(fun (c, d) -> print_chain_case c ^ "; " ^ print_damage d)
       (QCheck.Gen.pair (gen_chain_case ~min_steps:2) gen_damage))
    (fun (c, d) ->
      let base, deltas = run_chain_case c in
      let base, deltas = damage_chain ~base deltas d in
      match Os.Snapshot.flatten ~base deltas with
      (* Only a delta with nothing to reorder can survive its damage
         (as the last link, resealed but unchanged). *)
      | Ok _ when (match d with Unsort_delta _ -> false | _ -> true) ->
          QCheck.Test.fail_reportf "damage accepted"
      | got -> got = Snapshot_ref.flatten ~base deltas)

let test_journal_line_roundtrip () =
  let record = { Hw.Journal.seq = 7; codes = [ 114; 105; 110 ] } in
  let line = Hw.Journal.to_line ~pname:"printer" record in
  (match Hw.Journal.of_line line with
  | Ok (pname, r) ->
      Alcotest.(check string) "pname" "printer" pname;
      Alcotest.(check int) "seq" 7 r.Hw.Journal.seq;
      Alcotest.(check (list int)) "codes" [ 114; 105; 110 ] r.Hw.Journal.codes
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  (match Hw.Journal.of_line "printer notanumber 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed seq accepted");
  match Hw.Journal.of_line "lonely" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short line accepted"

let suite =
  [
    ( "snapshot",
      [
        Alcotest.test_case "kill-and-resume equals the straight run" `Quick
          test_kill_and_resume_equals_straight_run;
        Alcotest.test_case "capture is deterministic" `Quick
          test_capture_is_deterministic;
        Alcotest.test_case "damaged images are rejected with typed errors"
          `Quick test_damaged_images_are_rejected;
        Alcotest.test_case "restore audit rejects tampered kernel tables"
          `Quick test_audit_rejects_tampered_tables;
        Alcotest.test_case "resealed damage is a typed error" `Quick
          test_resealed_damage_is_a_typed_error;
        Alcotest.test_case "watchdog quarantines a stuck process" `Quick
          test_watchdog_quarantines_stuck_process;
        Alcotest.test_case "watchdog is off by default" `Quick
          test_watchdog_off_by_default;
        Alcotest.test_case "journal replays without re-emitting" `Quick
          test_journal_replay_and_divergence;
        Alcotest.test_case "journal line format roundtrips" `Quick
          test_journal_line_roundtrip;
        Alcotest.test_case "warm boot rewinds in place" `Quick
          test_warm_boot_rewinds_in_place;
        Alcotest.test_case "dirty pages track every write path" `Quick
          test_dirty_pages_track_every_write_path;
        Alcotest.test_case "chain flatten matches full captures under chaos"
          `Quick test_chain_flatten_matches_full_captures;
        Alcotest.test_case "broken chains are rejected with typed errors"
          `Quick test_chain_rejections;
        Alcotest.test_case "rebase folds and continues the chain" `Quick
          test_rebase_continues_the_chain;
        Alcotest.test_case "chain survives interlopers"
          `Quick test_chain_survives_interlopers_and_counter_rollback;
        QCheck_alcotest.to_alcotest prop_flatten_matches_dense_fold;
        QCheck_alcotest.to_alcotest prop_damaged_chains_refused_alike;
      ] );
  ]
