(* Golden snapshot images: the v4 wire format pinned byte for byte.

   Each scenario builds a system, runs it to a fixed point and captures
   it; the test compares the MD5 of every image with a committed value.
   Between them the images populate every section of the format: the
   event log, spans and profile are enabled; a fault injector is
   attached; one process is demand-paged; the capability backend tags
   words and keeps a sealed-return stack; and the 645 backend is
   captured inside a gated call, with its crossing stack non-empty.
   The hardware scenario also pins a delta and its [flatten].  A codec
   change that moves a single byte of any section fails here. *)

let wildcard access = [ { Os.Acl.user = Os.Acl.wildcard; access } ]

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

(* The demo program's ring-4 caller and gated ring-1 service. *)
let main_source =
  "start:  eap pr1, ret\n\
  \        spr pr1, pr6|1\n\
  \        lda =0\n\
  \        sta pr6|2\n\
  \        eap pr2, pr6|2\n\
  \        call svc,*\n\
   ret:    mme =2\n\
   svc:    .its 0, service$entry\n"

let service_source =
  "entry:  .gate impl\n\
   impl:   eap pr5, pr0|0,*\n\
  \        spr pr6, pr5|0\n\
  \        eap pr6, pr5|0\n\
  \        eap pr1, pr6|8\n\
  \        spr pr1, pr0|0\n\
  \        lda =42\n\
  \        spr pr6, pr0|0\n\
  \        eap pr6, pr6|0,*\n\
  \        retn pr6|1,*\n"

let store () =
  let s = Os.Store.create () in
  let proc4 = Rings.Access.procedure_segment ~execute_in:4 ~callable_from:4 () in
  Os.Store.add_source s ~name:"bump_a" ~acl:(wildcard proc4) (bump_source ~n:20);
  Os.Store.add_source s ~name:"bump_b" ~acl:(wildcard proc4) (bump_source ~n:9);
  Os.Store.add_source s ~name:"counter"
    ~acl:(wildcard (Rings.Access.data_segment ~writable_to:4 ~readable_to:4 ()))
    "value:  .word 0\n";
  Os.Store.add_source s ~name:"main" ~acl:(wildcard proc4) main_source;
  Os.Store.add_source s ~name:"service"
    ~acl:
      (wildcard
         (Rings.Access.procedure_segment ~gates:1 ~execute_in:1
            ~callable_from:5 ()))
    service_source;
  s

let spawn sys ?shared ?paged ~pname ~segments ~start () =
  match
    Os.System.spawn sys ?shared ?paged ~pname ~user:pname ~segments ~start
      ~ring:4
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn %s: %s" pname e

(* Three processes: a direct bump loop, a demand-paged one sharing its
   counter, and the demo's gated call.  Every tracing surface is on. *)
let build mode =
  let sys = Os.System.create ~mode ~store:(store ()) () in
  spawn sys ~pname:"pa" ~segments:[ "bump_a"; "counter" ]
    ~start:("bump_a", "start") ();
  spawn sys ~shared:[ ("counter", "pa") ] ~paged:true ~pname:"pb"
    ~segments:[ "bump_b" ] ~start:("bump_b", "start") ();
  spawn sys ~pname:"pc" ~segments:[ "main"; "service" ]
    ~start:("main", "start") ();
  let m = Os.System.machine sys in
  Trace.Event.set_enabled m.Isa.Machine.log true;
  Trace.Span.set_enabled m.Isa.Machine.spans true;
  Trace.Profile.set_enabled m.Isa.Machine.profile true;
  sys

let attach_injector sys =
  let inj = Hw.Inject.create (Hw.Inject.default_plan ~seed:3) in
  List.iter
    (fun (e : Os.System.entry) ->
      List.iter
        (fun (base, len) -> Hw.Inject.register_descriptor_range inj ~base ~len)
        (Os.Process.descriptor_ranges e.Os.System.process))
    (Os.System.entries sys);
  Isa.Machine.attach_injector (Os.System.machine sys) inj

let entry sys pname =
  match Os.System.find sys pname with
  | Some e -> e
  | None -> Alcotest.failf "no process %s" pname

(* Run with a short quantum, calling [f] at every slice boundary until
   it returns [true]; fail if the run ends first. *)
let run_until sys f =
  let hit = ref false in
  let on_slice () = if not !hit then hit := f () in
  let (_ : (string * Os.Kernel.exit) list) =
    Os.System.run ~quantum:3 ~on_slice sys
  in
  if not !hit then Alcotest.fail "the run ended before the capture point"

let require what cond = if not cond then Alcotest.failf "not populated: %s" what

let spans sys = Trace.Span.dump (Os.System.machine sys).Isa.Machine.spans

(* The sections every image carries whatever the backend: the event
   log, the profile and the paged process's page tables. *)
let require_common sys =
  let m = Os.System.machine sys in
  let ev = Trace.Event.dump m.Isa.Machine.log in
  require "event log" (ev.Trace.Event.d_entries <> []);
  let ring_cycles, _, _, _ = Trace.Profile.dump m.Isa.Machine.profile in
  require "profile" (Array.exists (fun c -> c > 0) ring_cycles);
  let pb = (entry sys "pb").Os.System.process in
  require "paging" ((Option.get pb.Os.Process.paging).Os.Process.resident <> [])

let digest image = Digest.to_hex (Digest.string image)

let check name expected image =
  Alcotest.(check string) name expected (digest image)

(* Hardware rings with the injector attached: a chain base once the
   paged process has faulted a page in and the gated call's span has
   completed, one delta a few slices later, and the chain's fold. *)
let test_hw () =
  let sys = build Isa.Machine.Ring_hardware in
  attach_injector sys;
  let chain = ref None and delta = ref None and slices = ref 0 in
  run_until sys (fun () ->
      let pb = (entry sys "pb").Os.System.process in
      (match !chain with
      | None ->
          if
            (Option.get pb.Os.Process.paging).Os.Process.resident <> []
            && (spans sys).Trace.Span.dump_completed <> []
          then begin
            require_common sys;
            require "injector"
              ((Os.System.machine sys).Isa.Machine.injector <> None);
            chain := Some (Os.Snapshot.start_chain sys)
          end
      | Some (c, _) ->
          incr slices;
          if !slices = 4 then delta := Some (Os.Snapshot.capture_delta sys c));
      !delta <> None);
  let _, base = Option.get !chain in
  let delta = Option.get !delta in
  check "full image" "0aa864030134e9f6463727e2b24c3e1b" base;
  check "delta image" "657c5b8649a8cf0a36976772ef2ca2ea" delta;
  match Os.Snapshot.flatten ~base [ delta ] with
  | Ok folded -> check "flattened image" "160fa2877f59156e6a69fa93a92e38aa" folded
  | Error e -> Alcotest.failf "flatten: %a" Os.Snapshot.pp_error e

(* The 645's software rings, captured while the gated call is inside
   the service: the gatekeeper has pushed an inward crossing. *)
let test_645 () =
  let sys = build Isa.Machine.Ring_software_645 in
  let image = ref "" in
  run_until sys (fun () ->
      let pc = (entry sys "pc").Os.System.process in
      if pc.Os.Process.crossings <> [] then begin
        require_common sys;
        require "open span" ((spans sys).Trace.Span.dump_stack <> []);
        image := Os.Snapshot.capture sys
      end;
      !image <> "");
  check "645 image" "37da0883392fc1f2ea369573348afe40" !image

(* The capability backend, captured inside the call: tagged words and
   a non-empty sealed-return stack. *)
let test_cap () =
  let sys = build Isa.Machine.Ring_capability in
  let image = ref "" in
  run_until sys (fun () ->
      let m = Os.System.machine sys in
      if m.Isa.Machine.cap_stack <> [] then begin
        require_common sys;
        require "open span" ((spans sys).Trace.Span.dump_stack <> []);
        require "capability tags"
          (Hw.Memory.tagged_addrs m.Isa.Machine.mem <> []);
        image := Os.Snapshot.capture sys
      end;
      !image <> "");
  check "cap image" "6c1756b2ae2ce303e237165883c69636" !image

let suite =
  [
    ( "golden images",
      [
        Alcotest.test_case "hw full, delta and flatten" `Quick test_hw;
        Alcotest.test_case "645 inside a gated call" `Quick test_645;
        Alcotest.test_case "cap inside a sealed call" `Quick test_cap;
      ] );
  ]
