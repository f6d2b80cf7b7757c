(* Chaos fabric and reliable remote delivery: fault injection, the
   sequenced/acked channel layer, watchdog channel-down, crash
   propagation, and the Transport.send timeout edge cases. *)

module Engine = Mach_sim.Engine
module Chaos = Mach_sim.Chaos
module Mailbox = Mach_sim.Mailbox
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine
module Context = Mach_ipc.Context
module Port = Mach_ipc.Port
module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Metrics = Mach_util.Metrics

let check = Alcotest.check

let make_ctx () =
  let eng = Engine.create () in
  let net = Net.create eng ~latency_us:100.0 ~us_per_byte:1.0 () in
  let ctx = Context.create eng net in
  (eng, net, ctx)

(* A faulty two-host fabric: chaos attached, reliable channels on,
   heal/crash/restart hooks wired the way Kernel.create_cluster wires
   them. *)
let make_chaos_ctx ?(seed = 42) plan =
  let eng, net, ctx = make_ctx () in
  let chaos = Chaos.create ~seed () in
  Chaos.set_default_plan chaos plan;
  Net.set_chaos net (Some chaos);
  Context.set_reliable ctx true;
  Chaos.on_heal chaos (fun a b -> Context.reset_link ctx a b);
  Chaos.on_crash chaos (fun host -> ignore (Context.crash_host ctx ~host));
  Chaos.on_restart chaos (fun host -> Context.restart_host ctx ~host);
  (eng, net, ctx, chaos)

let node ?(host = 0) () =
  {
    Transport.node_host = host;
    node_params = Machine.uniprocessor;
    node_page_size = 4096;
    node_stats = Transport.create_ipc_stats ();
    node_sched = None;
    node_handoff_enabled = true;
    node_trace = None;
  }

let data s = Message.Data (Bytes.of_string s)

let in_sim eng f =
  let result = ref None in
  Engine.spawn eng ~name:"test-body" (fun () -> result := Some (f ()));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "test body blocked forever"

let drain_payloads port =
  let rec loop acc =
    match Mailbox.try_recv (Port.queue port) with
    | Some msg -> loop (Bytes.to_string (Message.data_exn msg) :: acc)
    | None -> List.rev acc
  in
  loop []

(* Send [n] numbered messages host 0 -> host 1 and return the payloads
   that arrived, in arrival order. *)
let run_numbered_sends eng ctx ?(n = 24) () =
  let p = Port.create ctx ~home:1 ~backlog:64 () in
  let nd = node () in
  let errors = ref 0 in
  Engine.spawn eng ~name:"sender" (fun () ->
      for i = 1 to n do
        match Transport.send nd (Message.make ~dest:p [ data (string_of_int i) ]) with
        | Ok () -> ()
        | Error _ -> incr errors
      done);
  Engine.run eng;
  (drain_payloads p, !errors)

let expected_payloads n = List.init n (fun i -> string_of_int (i + 1))

(* ---- Transport.send timeout edge cases ----------------------------------- *)

let test_send_timeout_zero_nonblocking () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ()) (Message.make ~dest:p [ data "1" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first send");
      let before = Engine.now eng in
      (match Transport.send (node ()) ~timeout:0.0 (Message.make ~dest:p [ data "2" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected immediate timeout");
      (* timeout 0 is a try: no sim time passes waiting on the queue
         (only the send's own CPU charge). *)
      check (Alcotest.float 1000.0) "no queue wait" before (Engine.now eng))

let test_send_timeout_expires_behind_full_queue () =
  let eng, _, ctx = make_ctx () in
  let sp = Port_space.create ctx ~home:0 in
  let n = Port_space.allocate sp ~backlog:1 () in
  let p = Port_space.lookup_exn sp n in
  in_sim eng (fun () ->
      (match Transport.send (node ()) (Message.make ~dest:p [ data "1" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "first send");
      let before = Engine.now eng in
      (match Transport.send (node ()) ~timeout:250.0 (Message.make ~dest:p [ data "2" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected timeout");
      let waited = Engine.now eng -. before in
      Alcotest.(check bool) "waited the full timeout" true (waited >= 250.0);
      (* The timed-out message never landed. *)
      check Alcotest.(list string) "queue holds only the first" [ "1" ] (drain_payloads p))

(* ---- reliable channel vs injected faults --------------------------------- *)

let test_loss_recovered_by_retransmission () =
  let eng, net, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with drop = 0.3 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "all delivered in order" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "faults actually injected" true
    (Metrics.value (Chaos.stats chaos).Chaos.s_dropped > 0);
  Alcotest.(check bool) "retransmits happened" true (Net.retransmits net > 0);
  check Alcotest.int "net counted every chaos drop"
    (Chaos.faults_injected chaos - Metrics.value (Chaos.stats chaos).Chaos.s_reordered
    - Metrics.value (Chaos.stats chaos).Chaos.s_duplicated)
    (Net.dropped net)

let test_duplicate_storm_is_deduped () =
  let eng, _, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with duplicate = 0.5; drop = 0.05 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "exactly once, in order" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "duplicates injected" true
    (Metrics.value (Chaos.stats chaos).Chaos.s_duplicated > 0);
  let dup_dropped = List.assoc "dup_dropped" (Metrics.values (Context.chan_stats ctx)) in
  Alcotest.(check bool) "receiver shed duplicates" true (dup_dropped > 0)

let test_reorder_resequenced_fifo () =
  let eng, _, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with reorder = 0.5; jitter_us = 5000.0 }
  in
  let got, errors = run_numbered_sends eng ctx () in
  check Alcotest.(list string) "FIFO preserved" (expected_payloads 24) got;
  check Alcotest.int "no send errors" 0 errors;
  Alcotest.(check bool) "reorders injected" true
    (Metrics.value (Chaos.stats chaos).Chaos.s_reordered > 0);
  let reseq = List.assoc "resequenced" (Metrics.values (Context.chan_stats ctx)) in
  Alcotest.(check bool) "receiver resequenced" true (reseq > 0)

let test_partition_exhausts_retry_budget () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  Context.set_retry_budget ctx 3;
  let p = Port.create ctx ~home:1 () in
  let nd = node () in
  in_sim eng (fun () ->
      Chaos.partition chaos 0 1;
      (match Transport.send nd (Message.make ~dest:p [ data "lost" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send accepted before the watchdog trips");
      (* Let the watchdog burn through its budget. *)
      Engine.sleep 200_000.0;
      Alcotest.(check bool) "channel declared down" true (Context.chan_down ctx ~src:0 ~dst:1);
      match Transport.send nd (Message.make ~dest:p [ data "after" ]) with
      | Error Transport.Send_timed_out -> ()
      | Ok () | Error _ -> Alcotest.fail "expected Send_timed_out on a down channel");
  check Alcotest.(list string) "nothing delivered" [] (drain_payloads p);
  let aborts = List.assoc "aborts" (Metrics.values (Context.chan_stats ctx)) in
  check Alcotest.int "one channel abort" 1 aborts

let test_heal_revives_channel () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  Context.set_retry_budget ctx 3;
  let p = Port.create ctx ~home:1 ~backlog:64 () in
  let nd = node () in
  in_sim eng (fun () ->
      Chaos.partition chaos 0 1;
      ignore (Transport.send nd (Message.make ~dest:p [ data "lost" ]));
      Engine.sleep 200_000.0;
      Alcotest.(check bool) "down during partition" true (Context.chan_down ctx ~src:0 ~dst:1);
      Chaos.heal chaos 0 1;
      Alcotest.(check bool) "heal revived the channel" false
        (Context.chan_down ctx ~src:0 ~dst:1);
      (match Transport.send nd (Message.make ~dest:p [ data "again" ]) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "send after heal");
      Engine.sleep 200_000.0);
  check Alcotest.(list string) "post-heal message arrives" [ "again" ] (drain_payloads p)

let test_short_partition_recovers_without_loss () =
  (* A partition shorter than the retry budget window: retransmission
     carries every message across the heal, nothing is lost. *)
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let p = Port.create ctx ~home:1 ~backlog:64 () in
  let nd = node () in
  let errors = ref 0 in
  Engine.spawn eng ~name:"sender" (fun () ->
      for i = 1 to 8 do
        match Transport.send nd (Message.make ~dest:p [ data (string_of_int i) ]) with
        | Ok () -> ()
        | Error _ -> incr errors
      done);
  Engine.spawn eng ~name:"partitioner" (fun () ->
      Chaos.partition chaos 0 1;
      Engine.sleep 5_000.0;
      Chaos.heal chaos 0 1);
  Engine.run eng;
  check Alcotest.int "no send errors" 0 !errors;
  check Alcotest.(list string) "all across the heal, in order" (expected_payloads 8)
    (drain_payloads p)

(* A long stream over one lossy channel, then a partition that downs
   it and a heal that opens a new epoch. Acks cover only the packets
   past the channel's lowest unacked seq, so this checks that the
   window still drains completely in both epochs and that every packet
   of the new epoch is acked and delivered in order. *)
let test_long_stream_drains_across_epochs () =
  let eng, _, ctx, chaos =
    make_chaos_ctx { Chaos.perfect with drop = 0.02; reorder = 0.02; jitter_us = 500.0 }
  in
  Context.set_retry_budget ctx 3;
  let got = ref [] in
  let send i =
    Context.remote_deliver ctx ~src:0 ~dst:1 ~bytes:32 (fun () -> got := i :: !got)
  in
  let stream ~first ~n =
    for i = first to first + n - 1 do
      (match send i with
      | Ok () -> ()
      | Error `Unreachable -> Alcotest.failf "send %d on a live channel" i);
      Engine.sleep 300.0
    done;
    Engine.sleep 1_000_000.0
  in
  let delivered () =
    let d = List.rev !got in
    got := [];
    d
  in
  in_sim eng (fun () ->
      stream ~first:1 ~n:3000;
      check Alcotest.int "first epoch: window drained" 0 (Context.unacked ctx ~src:0 ~dst:1);
      check Alcotest.(list int) "first epoch: all delivered in order" (List.init 3000 succ)
        (delivered ());
      Chaos.partition chaos 0 1;
      ignore (send 0);
      Engine.sleep 200_000.0;
      Alcotest.(check bool) "partition downed the channel" true
        (Context.chan_down ctx ~src:0 ~dst:1);
      check Alcotest.int "watchdog shed the window" 0 (Context.unacked ctx ~src:0 ~dst:1);
      Chaos.heal chaos 0 1;
      stream ~first:5001 ~n:500;
      check Alcotest.int "new epoch: window drained" 0 (Context.unacked ctx ~src:0 ~dst:1);
      check Alcotest.(list int) "new epoch: all delivered in order"
        (List.init 500 (fun i -> 5001 + i))
        (delivered ()));
  Alcotest.(check bool) "losses were injected" true
    (Metrics.value (Chaos.stats chaos).Chaos.s_dropped > 0)

let test_crash_propagates_port_death () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  let remote = Port.create ctx ~home:1 () in
  let local = Port.create ctx ~home:0 () in
  let deaths = ref [] in
  ignore (Port.on_death remote (fun () -> deaths := "remote" :: !deaths));
  ignore (Port.on_death local (fun () -> deaths := "local" :: !deaths));
  in_sim eng (fun () -> Chaos.crash_host chaos 1);
  Alcotest.(check bool) "remote port died" false (Port.alive remote);
  Alcotest.(check bool) "local port survived" true (Port.alive local);
  check Alcotest.(list string) "only the crashed host's hook fired" [ "remote" ] !deaths;
  Alcotest.(check bool) "host marked down" false (Chaos.host_up chaos 1);
  in_sim eng (fun () -> Chaos.restart_host chaos 1);
  Alcotest.(check bool) "host back up" true (Chaos.host_up chaos 1)

let test_sends_to_crashed_host_fail_cleanly () =
  let eng, _, ctx, chaos = make_chaos_ctx Chaos.perfect in
  Context.set_retry_budget ctx 3;
  let p = Port.create ctx ~home:1 () in
  let nd = node () in
  in_sim eng (fun () ->
      Chaos.crash_host chaos 1;
      (* The proxy port died with its host. *)
      match Transport.send nd (Message.make ~dest:p [ data "x" ]) with
      | Error Transport.Send_invalid_port -> ()
      | Ok () | Error _ -> Alcotest.fail "expected invalid port after crash")

(* ---- chaos determinism ---------------------------------------------------- *)

let test_same_seed_same_faults () =
  let run () =
    let eng, _, ctx, chaos = make_chaos_ctx ~seed:7 { Chaos.perfect with drop = 0.2; duplicate = 0.1 } in
    let got, _ = run_numbered_sends eng ctx () in
    (got, Metrics.values (Chaos.stats chaos).Chaos.s_group, Metrics.values (Context.chan_stats ctx))
  in
  let a = run () and b = run () in
  let pp = Alcotest.(pair (list string) (pair (list (pair string int)) (list (pair string int)))) in
  let flat (g, c, s) = (g, (c, s)) in
  check pp "identical replay" (flat a) (flat b)

let test_chaos_spec_parsing () =
  let c = Chaos.of_spec "seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500" in
  let plan = Chaos.plan_for c ~src:0 ~dst:1 in
  check (Alcotest.float 1e-9) "drop" 0.1 plan.Chaos.drop;
  check (Alcotest.float 1e-9) "dup" 0.05 plan.Chaos.duplicate;
  check (Alcotest.float 1e-9) "reorder" 0.1 plan.Chaos.reorder;
  check (Alcotest.float 1e-9) "jitter" 500.0 plan.Chaos.jitter_us;
  Alcotest.check_raises "unknown key rejected"
    (Invalid_argument "Chaos.of_spec: unknown key frobnicate") (fun () ->
      ignore (Chaos.of_spec "frobnicate=1"))

(* ---- QCheck: sequenced delivery is payload-transparent -------------------- *)

let sequenced_transparent_prop =
  let open QCheck2 in
  let gen = Gen.(list_size (int_range 1 40) (string_size ~gen:Gen.printable (int_range 0 64))) in
  Test.make ~name:"chaos off: sequenced delivery matches the direct path byte-for-byte"
    ~count:30 gen (fun payloads ->
      let run ~reliable =
        let eng, _, ctx = make_ctx () in
        Context.set_reliable ctx reliable;
        let p = Port.create ctx ~home:1 ~backlog:(List.length payloads + 1) () in
        let nd = node () in
        Engine.spawn eng ~name:"sender" (fun () ->
            List.iter
              (fun s -> ignore (Transport.send nd (Message.make ~dest:p [ data s ])))
              payloads);
        Engine.run eng;
        drain_payloads p
      in
      run ~reliable:false = run ~reliable:true)

(* ---- QCheck: the send window under random fault plans ------------------- *)

let window_exactly_once_prop =
  let open QCheck2 in
  let prob = Gen.(map (fun k -> float_of_int k /. 100.0) (int_range 0 30)) in
  let gen =
    Gen.(
      tup5 (int_range 0 10_000) prob prob prob
        (pair (map float_of_int (int_range 0 3000)) (int_range 1 40)))
  in
  Test.make ~name:"random drop/dup/reorder: every payload once, in order, window empty"
    ~count:40 gen (fun (seed, drop, duplicate, reorder, (jitter_us, n)) ->
      let eng, _, ctx, _ =
        make_chaos_ctx ~seed { Chaos.drop; duplicate; reorder; jitter_us }
      in
      (* Generous, so that no run is cut short by a channel going down. *)
      Context.set_retry_budget ctx 100;
      let got, errors = run_numbered_sends eng ctx ~n () in
      errors = 0
      && got = List.init n (fun i -> string_of_int (i + 1))
      && Context.unacked ctx ~src:0 ~dst:1 = 0
      && Context.unacked ctx ~src:1 ~dst:0 = 0)

(* ---- words allocated per operation --------------------------------------- *)

let words_per_op n f =
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_rng_int_allocates_nothing () =
  let rng = Mach_util.Rng.create 7 in
  let w = words_per_op 100_000 (fun () -> ignore (Mach_util.Rng.int rng 1000)) in
  check (Alcotest.float 0.01) "Rng.int words/op" 0.0 w

let test_judge_allocates_nothing () =
  let chaos = Chaos.create ~seed:3 () in
  (match Chaos.judge chaos ~src:0 ~dst:1 with
  | Chaos.Deliver { copies = 1; extra_delay_us = 0.0 } -> ()
  | _ -> Alcotest.fail "expected a single on-time delivery");
  let w = words_per_op 100_000 (fun () -> ignore (Chaos.judge chaos ~src:0 ~dst:1)) in
  check (Alcotest.float 0.01) "Chaos.judge words/op" 0.0 w

(* Every cluster attaches a trace that starts disabled: a fault must
   not format its label then, and must still emit it once enabled. *)
let test_fault_label_only_when_traced () =
  let chaos = Chaos.create ~seed:5 () in
  Chaos.set_default_plan chaos { Chaos.perfect with drop = 1.0 };
  let trace = Mach_sim.Trace.create (Engine.create ()) in
  Chaos.set_trace chaos (Some trace);
  let w = words_per_op 10_000 (fun () -> ignore (Chaos.judge chaos ~src:0 ~dst:1)) in
  (* At most the boxed draw of a build without cross-module inlining. *)
  if w > 4.0 then Alcotest.failf "untraced drop: %.1f words/op, bound 4" w;
  Mach_sim.Trace.set_enabled trace true;
  ignore (Chaos.judge chaos ~src:0 ~dst:1);
  check Alcotest.(list string) "labelled point" [ "drop h0->h1" ]
    (List.map (fun e -> e.Mach_sim.Trace.ev_label) (Mach_sim.Trace.events trace))

(* One packet on a fault-free reliable channel, delivered in order, and
   its ack. *)
let test_in_order_delivery_words () =
  let eng, _, ctx, _ = make_chaos_ctx Chaos.perfect in
  let delivered = ref 0 in
  let thunk () = incr delivered in
  let batch = 100 in
  let w =
    words_per_op (100_000 / batch) (fun () ->
        for _ = 1 to batch do
          ignore (Context.remote_deliver ctx ~src:0 ~dst:1 ~bytes:64 thunk)
        done;
        Engine.run eng)
    /. float_of_int batch
  in
  check Alcotest.int "all delivered" 100_000 !delivered;
  check Alcotest.int "window drained" 0 (Context.unacked ctx ~src:0 ~dst:1);
  (* About 106 words on OCaml 5.1 in the dev profile (201 before the
     send window and int-keyed channels). Most of it is simulated work:
     the packet's and the ack's delivery closures, and the destination's
     delivery daemon, respawned for each packet because the wire spaces
     them out. *)
  if w > 130.0 then Alcotest.failf "in-order delivery: %.1f words/op, bound 130" w

let () =
  Alcotest.run "chaos"
    [
      ( "transport-timeouts",
        [
          Alcotest.test_case "timeout 0 is a non-blocking try" `Quick
            test_send_timeout_zero_nonblocking;
          Alcotest.test_case "timeout expires behind a full queue" `Quick
            test_send_timeout_expires_behind_full_queue;
        ] );
      ( "reliable-channel",
        [
          Alcotest.test_case "loss recovered by retransmission" `Quick
            test_loss_recovered_by_retransmission;
          Alcotest.test_case "duplicate storm deduped" `Quick test_duplicate_storm_is_deduped;
          Alcotest.test_case "reorder resequenced to FIFO" `Quick test_reorder_resequenced_fifo;
          Alcotest.test_case "partition exhausts retry budget" `Quick
            test_partition_exhausts_retry_budget;
          Alcotest.test_case "heal revives a down channel" `Quick test_heal_revives_channel;
          Alcotest.test_case "short partition loses nothing" `Quick
            test_short_partition_recovers_without_loss;
          Alcotest.test_case "long stream drains across epochs" `Quick
            test_long_stream_drains_across_epochs;
        ] );
      ( "host-failure",
        [
          Alcotest.test_case "crash propagates port death" `Quick
            test_crash_propagates_port_death;
          Alcotest.test_case "send to crashed host fails cleanly" `Quick
            test_sends_to_crashed_host_fail_cleanly;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, same faults" `Quick test_same_seed_same_faults;
          Alcotest.test_case "fault-plan spec grammar" `Quick test_chaos_spec_parsing;
          QCheck_alcotest.to_alcotest sequenced_transparent_prop;
          QCheck_alcotest.to_alcotest window_exactly_once_prop;
        ] );
      ( "words-per-op",
        [
          Alcotest.test_case "Rng.int" `Quick test_rng_int_allocates_nothing;
          Alcotest.test_case "Chaos.judge, deliver-once" `Quick test_judge_allocates_nothing;
          Alcotest.test_case "Chaos.judge, untraced drop" `Quick test_fault_label_only_when_traced;
          Alcotest.test_case "in-order reliable delivery" `Quick test_in_order_delivery_words;
        ] );
    ]
