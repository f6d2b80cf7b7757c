(* Tests for the processor scheduler: per-CPU run queues, affinity,
   work stealing, quantum preemption, handoff donation — and the
   kernel-level guarantee that the IPC RPC fast path hands the sender's
   processor to the receiver without a context-switch charge. *)

open Mach
module Sched = Mach_sim.Sched
module Rng = Mach_util.Rng
module Metrics = Mach_util.Metrics

let check = Alcotest.check

(* ---- deterministic replay ----------------------------------------------- *)

(* A fixed pseudo-random workload run twice must produce identical
   completion traces and identical counters: the scheduler introduces
   no hidden nondeterminism (hash order, physical time, ...). *)
let workload_trace ~seed ~cpus ~threads ~bursts =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus ~quantum_us:500.0 ~context_switch_us:20.0 () in
  let rng = Rng.create seed in
  let plans =
    List.init threads (fun _ -> List.init bursts (fun _ -> float_of_int (Rng.int_in rng 1 400)))
  in
  let trace = ref [] in
  List.iteri
    (fun i plan ->
      Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
          List.iter
            (fun us ->
              Sched.compute s us;
              trace := (i, Engine.now eng) :: !trace)
            plan))
    plans;
  Engine.run eng;
  (List.rev !trace, Metrics.values (Sched.stats s).Sched.s_group, Sched.busy_us s)

let test_determinism () =
  let a = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 in
  let b = workload_trace ~seed:42 ~cpus:3 ~threads:5 ~bursts:12 in
  let trace_a, stats_a, busy_a = a and trace_b, stats_b, busy_b = b in
  check Alcotest.(list (pair int (float 1e-9))) "same completion trace" trace_a trace_b;
  check Alcotest.(list (pair string int)) "same counters" stats_a stats_b;
  check (Alcotest.float 1e-9) "same busy time" busy_a busy_b

(* ---- serialization and parallelism -------------------------------------- *)

let run_bursts ~cpus ~quantum_us ~context_switch_us jobs =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus ~quantum_us ~context_switch_us () in
  let finished = ref 0 in
  List.iteri
    (fun i us ->
      Engine.spawn eng ~name:(Printf.sprintf "j%d" i) (fun () ->
          Sched.compute s us;
          incr finished))
    jobs;
  Engine.run eng;
  (Engine.now eng, Sched.stats s, !finished)

let test_serializes_on_one_cpu () =
  let elapsed, _, finished = run_bursts ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:0.0
      [ 100.0; 100.0; 100.0 ] in
  check Alcotest.int "all finished" 3 finished;
  Alcotest.(check bool) "serialized" true (elapsed >= 300.0)

let test_parallel_on_enough_cpus () =
  let elapsed, st, finished = run_bursts ~cpus:4 ~quantum_us:10_000.0 ~context_switch_us:50.0
      [ 100.0; 100.0; 100.0; 100.0 ] in
  check Alcotest.int "all finished" 4 finished;
  Alcotest.(check bool) "ran in parallel" true (elapsed < 150.0);
  check Alcotest.int "no switch charges on idle acquires" 0 (Metrics.value st.Sched.s_switches)

let test_quantum_preemption () =
  (* Two 25ms bursts on one CPU with a 10ms quantum interleave: the
     second thread must start well before the first finishes. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:0.0 () in
  let first_done = ref 0.0 and second_start = ref infinity in
  Engine.spawn eng ~name:"a" (fun () ->
      Sched.compute s 25_000.0;
      first_done := Engine.now eng);
  Engine.spawn eng ~name:"b" (fun () ->
      second_start := Engine.now eng;
      Sched.compute s 25_000.0);
  Engine.run eng;
  Alcotest.(check bool) "preemptions happened" true
    (Metrics.value (Sched.stats s).Sched.s_preemptions >= 2);
  Alcotest.(check bool) "b started before a finished (timeslicing)" true
    (!second_start < !first_done)

let test_affinity_preferred () =
  (* With every CPU idle, consecutive bursts of one thread stay on the
     same processor. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:4 ~quantum_us:10_000.0 ~context_switch_us:10.0 () in
  Engine.spawn eng ~name:"hot" (fun () ->
      for _ = 1 to 5 do
        Sched.compute s 50.0;
        Engine.sleep 5.0
      done);
  Engine.run eng;
  let st = Sched.stats s in
  Alcotest.(check bool) "affinity hits" true (Metrics.value st.Sched.s_affinity_hits >= 4);
  check Alcotest.int "no migrations" 0 (Metrics.value st.Sched.s_migrations)

let test_handoff_expiry () =
  (* A donation nobody claims frees the processor after one
     context-switch window instead of leaking it. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let late_done = ref false in
  Engine.spawn eng ~name:"donor" (fun () ->
      Sched.compute s 10.0;
      (match Sched.donate s with
      | Some _ -> ()
      | None -> Alcotest.fail "donation of an idle CPU should succeed");
      Engine.sleep 1000.0);
  Engine.spawn eng ~name:"other" (fun () ->
      Engine.sleep 15.0;
      (* The only CPU is reserved at this point; the burst must still
         complete once the reservation expires. *)
      Sched.compute s 10.0;
      late_done := true);
  Engine.run eng;
  Alcotest.(check bool) "burst ran after expiry" true !late_done;
  check Alcotest.int "expiry counted" 1 (Metrics.value (Sched.stats s).Sched.s_handoff_expired)

let test_handoff_claim_by_id () =
  (* Two threads share a name; the reservation belongs to the one
     whose id claimed it, and only that one enters charge-free. *)
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:20.0 () in
  let ticket = ref None and claimant = ref (-1) in
  let claimant_done = ref 0.0 and other_done = ref 0.0 in
  Engine.spawn eng ~name:"donor" (fun () ->
      Sched.compute s 10.0;
      ticket := Sched.donate s);
  Engine.spawn eng ~name:"twin" (fun () ->
      Engine.sleep 11.0;
      claimant := Engine.self_id ();
      (match !ticket with
      | Some ticket -> Sched.claim_handoff s ~ticket ~id:!claimant
      | None -> Alcotest.fail "donation of an idle CPU should succeed");
      Engine.sleep 1.0;
      Sched.compute s 10.0;
      claimant_done := Engine.now eng);
  Engine.spawn eng ~name:"twin" (fun () ->
      Engine.sleep 11.5;
      (* Reserved for the other twin: this one must queue behind it. *)
      Sched.compute s 10.0;
      other_done := Engine.now eng);
  Engine.run eng;
  let st = Sched.stats s in
  check Alcotest.int "one claim" 1 (Metrics.value st.Sched.s_handoff_claims);
  check Alcotest.int "none expired" 0 (Metrics.value st.Sched.s_handoff_expired);
  check Alcotest.int "the other twin queued" 1 (Metrics.value st.Sched.s_enqueues);
  check (Alcotest.float 1e-9) "claimant entered on the donated CPU" 22.0 !claimant_done;
  check (Alcotest.float 1e-9) "other twin paid a switch behind it" 52.0 !other_done

let test_running_cpu_by_id () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:2 ~quantum_us:10_000.0 ~context_switch_us:0.0 () in
  let ids = Array.make 2 (-1) in
  for i = 0 to 1 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        ids.(i) <- Engine.self_id ();
        Engine.sleep (float_of_int (10 * i));
        Sched.compute s 100.0)
  done;
  let seen = ref [] in
  Engine.schedule eng ~at:50.0 (fun () ->
      seen := Array.to_list (Array.map (Sched.running_cpu s) ids));
  Engine.run eng;
  check Alcotest.(list int) "each on its own CPU mid-burst" [ 0; 1 ] !seen;
  check Alcotest.int "not running after the burst" (-1) (Sched.running_cpu s ids.(0));
  check Alcotest.int "unknown id" (-1) (Sched.running_cpu s 12345);
  check Alcotest.int "no thread is on no CPU, even an idle one" (-1) (Sched.running_cpu s (-1))

(* An uncontended burst costs its sleep plus the scheduler's
   bookkeeping, which is allocation-free: int-keyed tables, unboxed
   busy time, no effect to learn the caller's identity. *)
let test_compute_allocation () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:2 ~quantum_us:10_000.0 ~context_switch_us:50.0 () in
  (* Pending timers, so the engine's heap sifts through real levels. *)
  for i = 1 to 1000 do
    Engine.schedule eng ~at:(1e9 +. float_of_int i) ignore
  done;
  let words = ref nan in
  Engine.spawn eng ~name:"measured" (fun () ->
      Sched.compute s 10.0;
      let calibrate = Gc.minor_words () in
      let overhead = Gc.minor_words () -. calibrate in
      let before = Gc.minor_words () in
      let n = 10_000 in
      for _ = 1 to n do
        Sched.compute s 10.0
      done;
      words := (Gc.minor_words () -. before -. overhead) /. float_of_int n);
  Engine.run eng;
  if !words > 40.0 then Alcotest.failf "compute allocates %.1f words (bound 40)" !words

(* Two threads contending for one CPU: every burst enqueues, parks on
   the run queue and is dispatched by the other's release. Words per
   pair of bursts, one of each thread. *)
let test_contended_compute_allocation () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:5.0 () in
  for i = 1 to 1000 do
    Engine.schedule eng ~at:(1e9 +. float_of_int i) ignore
  done;
  let n = 10_000 and words = ref nan and stop = ref false in
  Engine.spawn eng ~name:"partner" (fun () ->
      while not !stop do
        Sched.compute s 10.0
      done);
  Engine.spawn eng ~name:"measured" (fun () ->
      Sched.compute s 10.0;
      let calibrate = Gc.minor_words () in
      let overhead = Gc.minor_words () -. calibrate in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        Sched.compute s 10.0
      done;
      words := (Gc.minor_words () -. before -. overhead) /. float_of_int n;
      stop := true);
  Engine.run eng;
  check Alcotest.bool "every burst queued" true
    (Metrics.value (Sched.stats s).Sched.s_enqueues >= 2 * n);
  if !words > 80.0 then
    Alcotest.failf "contended compute pair allocates %.1f words (bound 80)" !words

(* A preempted burst parks on its run queue; the processor it resumes
   on is the one dispatch handed it, not the one it left — here a CPU
   that went idle and stole it. *)
let test_preempted_resumes_on_dispatched_cpu () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:2 ~quantum_us:100.0 ~context_switch_us:0.0 () in
  let id_a = ref (-1) and a_done = ref 0.0 in
  (* a takes CPU 0 and c CPU 1; b queues on CPU 0 and preempts a at
     t=100; c finishes at 150 and CPU 1 steals a. *)
  Engine.spawn eng ~name:"a" (fun () ->
      id_a := Engine.self_id ();
      Sched.compute s 1000.0;
      a_done := Engine.now eng);
  Engine.spawn eng ~name:"c" (fun () -> Sched.compute s 150.0);
  Engine.spawn eng ~name:"b" (fun () -> Sched.compute s 500.0);
  let seen = ref [] in
  List.iter
    (fun at ->
      Engine.schedule eng ~at (fun () -> seen := (at, Sched.running_cpu s !id_a) :: !seen))
    [ 50.0; 120.0; 160.0 ];
  Engine.run eng;
  check
    Alcotest.(list (pair (float 1e-9) int))
    "CPU 0, queued, then CPU 1"
    [ (50.0, 0); (120.0, -1); (160.0, 1) ]
    (List.rev !seen);
  check (Alcotest.float 1e-9) "ran its remaining 900us on CPU 1" 1050.0 !a_done;
  let st = Sched.stats s in
  check Alcotest.int "one preemption" 1 (Metrics.value st.Sched.s_preemptions);
  check Alcotest.int "one steal" 1 (Metrics.value st.Sched.s_steals)

let test_blocked_names_run_queue () =
  let eng = Engine.create () in
  let s = Sched.create eng ~cpus:1 ~quantum_us:10_000.0 ~context_switch_us:0.0 () in
  Engine.spawn eng ~name:"running" (fun () -> Sched.compute s 100.0);
  Engine.spawn eng ~name:"queued" (fun () -> Sched.compute s 100.0);
  Engine.run ~until:50.0 eng;
  (* The running burst sleeps through its slice, so it is listed too. *)
  check Alcotest.(list string) "parked on the run queue" [ "queued"; "running" ]
    (Engine.blocked_names eng);
  check Alcotest.int "one queued" 1 (Sched.queued s);
  Engine.run eng;
  check Alcotest.(list string) "all done" [] (Engine.blocked_names eng)

(* ---- no-starvation / work-stealing property ------------------------------ *)

(* Random fleets of threads with random burst plans on random CPU
   counts: every burst completes, and the invariant oracle — a CPU went
   idle while another CPU's run queue held a waiter — never fires.
   This is the property work stealing exists to enforce. *)
let no_starvation_prop =
  let open QCheck2 in
  let gen =
    Gen.(
      tup3 (int_range 1 4)
        (int_range 1 8)
        (list_size (int_range 1 40) (pair (int_range 0 7) (int_range 1 300))))
  in
  Test.make ~name:"no CPU idles while a runnable thread waits" ~count:50 gen
    (fun (cpus, threads, bursts) ->
      let eng = Engine.create () in
      let s = Sched.create eng ~cpus ~quantum_us:100.0 ~context_switch_us:7.0 () in
      let plans = Array.make threads [] in
      List.iter
        (fun (th, us) ->
          let th = th mod threads in
          plans.(th) <- float_of_int us :: plans.(th))
        bursts;
      let total = List.length bursts in
      let completed = ref 0 in
      Array.iteri
        (fun i plan ->
          Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
              List.iter
                (fun us ->
                  Sched.compute s us;
                  incr completed)
                plan))
        plans;
      Engine.run eng;
      !completed = total
      && Metrics.value (Sched.stats s).Sched.s_idle_with_waiter = 0
      && Sched.queued s = 0
      && Sched.idle_cpus s = cpus)

(* ---- kernel-level handoff: RPC fast path charges no switch --------------- *)

let multimax2 = { Machine.multimax with Machine.cpus = 2 }

(* One RPC to an already-blocked receiver: both deliveries (request and
   reply) must ride the handoff path — no run-queue dispatch charge on
   either side. *)
let test_rpc_handoff_no_switch () =
  let config = { Kernel.default_config with Kernel.params = multimax2 } in
  let sys = Kernel.create_system ~config () in
  let kctx = Kernel.kctx sys.Kernel.kernel in
  let sched = kctx.Kctx.sched in
  let istats = kctx.Kctx.node.Transport.node_stats in
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"t" () in
      let svc = Syscalls.port_allocate task ~backlog:4 () in
      let svc_port = Port_space.lookup_exn (Task.space task) svc in
      ignore
        (Thread.spawn task ~name:"server" (fun () ->
             match Syscalls.msg_receive task ~from:(`Port svc) () with
             | Ok msg ->
               let rp = Option.get msg.Message.header.Message.reply in
               ignore (Syscalls.msg_send task (Message.make ~dest:rp [ Message.Data (Bytes.create 4) ]))
             | Error _ -> Alcotest.fail "server receive failed"));
      ignore
        (Thread.spawn task ~name:"client" (fun () ->
             (* Let the server block first. *)
             Engine.sleep 100.0;
             let reply = Syscalls.port_allocate task ~backlog:1 () in
             let reply_port = Port_space.lookup_exn (Task.space task) reply in
             let sw0 = Metrics.value (Sched.stats sched).Sched.s_switches in
             let ho0 = Metrics.value istats.Transport.s_handoffs in
             (match
                Syscalls.msg_rpc task
                  (Message.make ~dest:svc_port ~reply:reply_port [ Message.Data (Bytes.create 4) ])
                  ()
              with
             | Ok _ -> ()
             | Error _ -> Alcotest.fail "rpc failed");
             check Alcotest.int "no context-switch charges on the RPC"
               sw0 (Metrics.value (Sched.stats sched).Sched.s_switches);
             check Alcotest.int "request and reply both handed off"
               (ho0 + 2) (Metrics.value istats.Transport.s_handoffs);
             Alcotest.(check bool) "donations claimed" true
               (Metrics.value (Sched.stats sched).Sched.s_handoff_claims >= 1);
             ok := true)));
  Engine.run sys.Kernel.engine;
  Alcotest.(check bool) "scenario completed" true !ok

(* The same ping-pong with donation disabled is strictly slower: the
   saving is the two context-switch charges the handoff skips. *)
let ping_elapsed ~handoff ~rpcs =
  let config = { Kernel.default_config with Kernel.params = multimax2 } in
  let sys = Kernel.create_system ~config () in
  (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_handoff_enabled <- handoff;
  let elapsed = ref 0.0 in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"t" () in
      let svc = Syscalls.port_allocate task ~backlog:4 () in
      let svc_port = Port_space.lookup_exn (Task.space task) svc in
      ignore
        (Thread.spawn task ~name:"server" (fun () ->
             for _ = 1 to rpcs do
               match Syscalls.msg_receive task ~from:(`Port svc) () with
               | Ok msg ->
                 let rp = Option.get msg.Message.header.Message.reply in
                 ignore
                   (Syscalls.msg_send task (Message.make ~dest:rp [ Message.Data (Bytes.create 4) ]))
               | Error _ -> Alcotest.fail "server receive failed"
             done));
      ignore
        (Thread.spawn task ~name:"client" (fun () ->
             let reply = Syscalls.port_allocate task ~backlog:1 () in
             let reply_port = Port_space.lookup_exn (Task.space task) reply in
             let t0 = Engine.now sys.Kernel.engine in
             for _ = 1 to rpcs do
               match
                 Syscalls.msg_rpc task
                   (Message.make ~dest:svc_port ~reply:reply_port [ Message.Data (Bytes.create 4) ])
                   ()
               with
               | Ok _ -> ()
               | Error _ -> Alcotest.fail "rpc failed"
             done;
             elapsed := Engine.now sys.Kernel.engine -. t0)));
  Engine.run sys.Kernel.engine;
  !elapsed

let test_handoff_cheaper_than_queue () =
  let rpcs = 50 in
  let on = ping_elapsed ~handoff:true ~rpcs in
  let off = ping_elapsed ~handoff:false ~rpcs in
  Alcotest.(check bool)
    (Printf.sprintf "handoff path cheaper (%.1f < %.1f us)" on off)
    true (on < off);
  (* Each RPC skips two receive-side switch charges. *)
  let expected_saving = float_of_int (2 * rpcs) *. multimax2.Machine.context_switch_us in
  check (Alcotest.float 1.0) "saving = two switch charges per RPC" expected_saving (off -. on)

let () =
  Alcotest.run "sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "one CPU serializes" `Quick test_serializes_on_one_cpu;
          Alcotest.test_case "enough CPUs parallelize" `Quick test_parallel_on_enough_cpus;
          Alcotest.test_case "quantum preemption interleaves" `Quick test_quantum_preemption;
          Alcotest.test_case "soft affinity" `Quick test_affinity_preferred;
          Alcotest.test_case "unclaimed donation expires" `Quick test_handoff_expiry;
          Alcotest.test_case "handoff claimed by thread id" `Quick test_handoff_claim_by_id;
          Alcotest.test_case "running cpu by thread id" `Quick test_running_cpu_by_id;
          Alcotest.test_case "compute allocation bound" `Quick test_compute_allocation;
          Alcotest.test_case "contended compute allocation bound" `Quick
            test_contended_compute_allocation;
          Alcotest.test_case "preempted burst resumes on the dispatched CPU" `Quick
            test_preempted_resumes_on_dispatched_cpu;
          Alcotest.test_case "blocked names: run queue" `Quick test_blocked_names_run_queue;
          QCheck_alcotest.to_alcotest no_starvation_prop;
        ] );
      ( "ipc-handoff",
        [
          Alcotest.test_case "RPC fast path charges no switch" `Quick test_rpc_handoff_no_switch;
          Alcotest.test_case "handoff cheaper than run queue" `Quick test_handoff_cheaper_than_queue;
        ] );
    ]
