(* Tests for the discrete-event engine and its synchronisation
   primitives. *)

module Engine = Mach_sim.Engine
module Ivar = Mach_sim.Ivar
module Mailbox = Mach_sim.Mailbox
module Semaphore = Mach_sim.Semaphore
module Waitq = Mach_sim.Waitq

let check = Alcotest.check

(* ---- engine ------------------------------------------------------------- *)

let test_event_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30.0 (fun () -> log := 3 :: !log);
  Engine.schedule eng ~at:10.0 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~at:20.0 (fun () -> log := 2 :: !log);
  Engine.run eng;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 30.0 (Engine.now eng)

let test_tie_break_by_sequence () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule eng ~at:5.0 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  check Alcotest.(list int) "fifo among equal times" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_sleep_advances_time () =
  let eng = Engine.create () in
  let seen = ref 0.0 in
  Engine.spawn eng (fun () ->
      Engine.sleep 123.0;
      Engine.sleep 77.0;
      seen := Engine.now eng);
  Engine.run eng;
  check (Alcotest.float 1e-9) "slept" 200.0 !seen

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~at:1000.0 (fun () -> fired := true);
  Engine.run ~until:500.0 eng;
  Alcotest.(check bool) "not yet" false !fired;
  check (Alcotest.float 1e-9) "clock clamped" 500.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "eventually" true !fired

let test_spawn_nested () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng ~name:"outer" (fun () ->
      order := "outer-start" :: !order;
      Engine.spawn eng ~name:"inner" (fun () -> order := "inner" :: !order);
      Engine.sleep 1.0;
      order := "outer-end" :: !order);
  Engine.run eng;
  check Alcotest.(list string) "interleaving" [ "outer-start"; "inner"; "outer-end" ]
    (List.rev !order)

let test_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "thread exception surfaces" (Failure "boom") (fun () -> Engine.run eng)

let test_deadlock_detection () =
  let eng = Engine.create () in
  let iv : unit Ivar.t = Ivar.create () in
  Engine.spawn eng ~name:"stuck-thread" (fun () -> Ivar.read iv);
  Engine.run eng;
  check Alcotest.int "one live blocked thread" 1 (Engine.live eng);
  check Alcotest.(list string) "named" [ "stuck-thread" ] (Engine.blocked_names eng)

let test_self_name () =
  let eng = Engine.create () in
  let name = ref "" in
  Engine.spawn eng ~name:"me" (fun () -> name := Engine.self_name ());
  Engine.run eng;
  check Alcotest.string "self name" "me" !name

let test_determinism_across_runs () =
  let run () =
    let eng = Engine.create () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
          Engine.sleep (float_of_int (10 - i));
          Buffer.add_string log (Printf.sprintf "%d@%.0f;" i (Engine.now eng));
          Engine.sleep (float_of_int i);
          Buffer.add_string log (Printf.sprintf "%d@%.0f;" i (Engine.now eng)))
    done;
    Engine.run eng;
    Buffer.contents log
  in
  check Alcotest.string "identical traces" (run ()) (run ())

(* The heap keeps the (time, insertion) order whatever the mix of
   equal times, across several array growths: the events run exactly
   in the order of a stable sort of the pushes by time. *)
let tie_break_prop =
  let open QCheck2 in
  Test.make ~name:"equal times pop in insertion order" ~count:100
    Gen.(list_size (int_range 1 400) (int_range 0 7))
    (fun times ->
      let eng = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i tm -> Engine.schedule eng ~at:(float_of_int tm) (fun () -> log := i :: !log))
        times;
      Engine.run eng;
      let expected =
        List.mapi (fun i tm -> (tm, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      List.rev !log = expected)

let test_blocked_names_sleep_and_ivar () =
  let eng = Engine.create () in
  let iv : unit Ivar.t = Ivar.create () in
  Engine.spawn eng ~name:"sleeper" (fun () -> Engine.sleep 1_000.0);
  Engine.spawn eng ~name:"waiter" (fun () -> Ivar.read iv);
  Engine.spawn eng ~name:"finisher" (fun () -> Engine.sleep 10.0);
  Engine.run ~until:500.0 eng;
  check Alcotest.(list string) "parked in sleep and on the ivar" [ "sleeper"; "waiter" ]
    (Engine.blocked_names eng);
  Engine.run eng;
  check Alcotest.(list string) "only the ivar waiter is stuck forever" [ "waiter" ]
    (Engine.blocked_names eng);
  check Alcotest.int "one live thread" 1 (Engine.live eng)

let test_self_outside_fibers () =
  let eng = Engine.create () in
  let in_timer = ref (Some "unset") and timer_id = ref 0 in
  let ids = ref [] in
  Engine.schedule eng ~at:5.0 (fun () ->
      in_timer := Engine.self_name_opt ();
      timer_id := Engine.self_id ());
  for i = 0 to 2 do
    Engine.spawn eng ~name:(Printf.sprintf "f%d" i) (fun () ->
        let id = Engine.self_id () in
        Engine.sleep 10.0;
        (* Still the same fiber after being resumed. *)
        check Alcotest.int "id survives a sleep" id (Engine.self_id ());
        check Alcotest.(option string) "name opt" (Some (Printf.sprintf "f%d" i))
          (Engine.self_name_opt ());
        ids := id :: !ids)
  done;
  Engine.run eng;
  check Alcotest.(option string) "no fiber in a timer callback" None !in_timer;
  check Alcotest.int "no id in a timer callback" (-1) !timer_id;
  check Alcotest.(option string) "no fiber outside run" None (Engine.self_name_opt ());
  check Alcotest.int "fibers have distinct ids" 3 (List.length (List.sort_uniq compare !ids))

(* Minor words allocated per call of [f], measured inside a fiber over
   [n] calls (after one warm-up call), net of [Gc.minor_words]'s own
   boxing. Includes the engine's share: event push, pop and resume, on
   a heap holding a thousand pending timers, so that sifting through
   its levels is counted too. With [partner], a second fiber runs it
   forever (it must block once per round) and each call of [f] is a
   ping-pong round of two wait/wake cycles, one per fiber: the figure
   is then per cycle, and the partner is left parked at the end. *)
let words_per_call ?(n = 10_000) ?partner f =
  let eng = Engine.create () in
  for i = 1 to 1000 do
    Engine.schedule eng ~at:(1e9 +. float_of_int i) ignore
  done;
  let cycles_per_call =
    match partner with
    | None -> 1
    | Some p ->
      Engine.spawn eng ~name:"partner" (fun () ->
          while true do
            p ()
          done);
      2
  in
  let words = ref nan in
  Engine.spawn eng ~name:"measured" (fun () ->
      f ();
      let calibrate = Gc.minor_words () in
      let overhead = Gc.minor_words () -. calibrate in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        f ()
      done;
      words := (Gc.minor_words () -. before -. overhead) /. float_of_int (cycles_per_call * n));
  Engine.run eng;
  !words

let test_sleep_allocation () =
  let w = words_per_call (fun () -> Engine.sleep 1.0) in
  if w > 8.0 then Alcotest.failf "sleep allocates %.1f words (bound 8)" w

let test_self_name_allocates_nothing () =
  let w = words_per_call (fun () -> ignore (Sys.opaque_identity (Engine.self_name ()))) in
  check (Alcotest.float 0.0) "self_name words" 0.0 w;
  let w = words_per_call (fun () -> ignore (Sys.opaque_identity (Engine.self_id ()))) in
  check (Alcotest.float 0.0) "self_id words" 0.0 w

let test_waitq_allocation () =
  let ping = Waitq.create () and pong = Waitq.create () in
  let w =
    words_per_call
      ~partner:(fun () ->
        Waitq.wait ping;
        Waitq.signal pong)
      (fun () ->
        Waitq.signal ping;
        Waitq.wait pong)
  in
  if w > 8.0 then Alcotest.failf "Waitq wait+signal allocates %.1f words (bound 8)" w;
  (* Each timed-out waiter stays queued: the ring must reuse its slot
     rather than grow or allocate. *)
  let q = Waitq.create () in
  let w = words_per_call (fun () -> ignore (Waitq.wait_timeout q ~timeout:1.0)) in
  if w > 8.0 then Alcotest.failf "fired wait_timeout allocates %.1f words (bound 8)" w

let test_mailbox_recv_allocation () =
  let ping = Mailbox.create () and pong = Mailbox.create () in
  let w =
    words_per_call
      ~partner:(fun () ->
        Mailbox.recv ping;
        Mailbox.send pong ())
      (fun () ->
        Mailbox.send ping ();
        Mailbox.recv pong)
  in
  if w > 20.0 then Alcotest.failf "blocking Mailbox.recv+send allocates %.1f words (bound 20)" w

(* qcheck: arbitrary programs of spawns/sleeps/sends produce identical
   traces on re-execution — the engine is deterministic by
   construction. *)
let determinism_prop =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          map (fun d -> `Sleep (float_of_int (d mod 50))) small_nat;
          map (fun v -> `Send v) small_nat;
          pure `Recv;
          map (fun d -> `Spawn_child (float_of_int (d mod 20))) small_nat;
        ])
  in
  Test.make ~name:"random programs replay identically" ~count:50
    Gen.(list_size (int_range 1 12) (small_list op_gen))
    (fun programs ->
      let run () =
        let eng = Engine.create () in
        let mb = Mailbox.create () in
        let trace = Buffer.create 256 in
        List.iteri
          (fun i ops ->
            Engine.spawn eng ~name:(Printf.sprintf "prog-%d" i) (fun () ->
                List.iter
                  (fun op ->
                    match op with
                    | `Sleep d -> Engine.sleep d
                    | `Send v ->
                      Mailbox.send mb v;
                      Buffer.add_string trace (Printf.sprintf "%d:s%d@%.0f;" i v (Engine.now eng))
                    | `Recv -> (
                      match Mailbox.recv_timeout mb ~timeout:100.0 with
                      | Some v ->
                        Buffer.add_string trace
                          (Printf.sprintf "%d:r%d@%.0f;" i v (Engine.now eng))
                      | None -> Buffer.add_string trace (Printf.sprintf "%d:rT@%.0f;" i (Engine.now eng)))
                    | `Spawn_child d ->
                      Engine.spawn eng ~name:(Printf.sprintf "child-%d" i) (fun () ->
                          Engine.sleep d;
                          Buffer.add_string trace (Printf.sprintf "%d:c@%.0f;" i (Engine.now eng))))
                  ops))
          programs;
        Engine.run eng;
        Buffer.contents trace
      in
      run () = run ())

(* ---- ivar --------------------------------------------------------------- *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Ivar.fill iv 42;
  Engine.spawn eng (fun () -> got := Ivar.read iv);
  Engine.run eng;
  check Alcotest.int "value" 42 !got

let test_ivar_read_then_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        (* Bind before consing: [!got] must be read after the blocking
           call, not before (right-to-left evaluation). *)
        let v = Ivar.read iv in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Ivar.fill iv 7);
  Engine.run eng;
  check Alcotest.int "all readers woken" 3 (List.length !got);
  List.iter (fun (_, v) -> check Alcotest.int "value" 7 v) !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
  check Alcotest.(option int) "first value kept" (Some 1) (Ivar.peek iv)

let test_ivar_timeout () =
  let eng = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref (Some 99) in
  let at = ref 0.0 in
  Engine.spawn eng (fun () ->
      got := Ivar.read_timeout iv ~timeout:50.0;
      at := Engine.now eng);
  Engine.run eng;
  check Alcotest.(option int) "timed out" None !got;
  check (Alcotest.float 1e-9) "at deadline" 50.0 !at

let test_ivar_timeout_beaten_by_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn eng (fun () -> got := Ivar.read_timeout iv ~timeout:100.0);
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Ivar.fill iv 5);
  Engine.run eng;
  check Alcotest.(option int) "filled in time" (Some 5) !got

(* ---- mailbox ------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 5 do
        Mailbox.send mb i
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.run eng;
  check Alcotest.(list int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_mailbox_capacity_blocks_sender () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let sent_all_at = ref 0.0 in
  Engine.spawn eng ~name:"producer" (fun () ->
      for i = 1 to 3 do
        Mailbox.send mb i
      done;
      sent_all_at := Engine.now eng);
  Engine.spawn eng ~name:"consumer" (fun () ->
      Engine.sleep 100.0;
      ignore (Mailbox.recv mb));
  Engine.run eng;
  (* The third send had to wait for the consumer at t=100. *)
  check (Alcotest.float 1e-9) "blocked until drain" 100.0 !sent_all_at

let test_mailbox_send_timeout () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 () in
  let second = ref true in
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      second := Mailbox.send_timeout mb 2 ~timeout:50.0);
  Engine.run eng;
  Alcotest.(check bool) "timed out" false !second;
  check Alcotest.int "only first queued" 1 (Mailbox.length mb)

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let got = ref (Some 1) in
  Engine.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:25.0);
  Engine.run eng;
  check Alcotest.(option int) "timeout" None !got

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  check Alcotest.(option int) "empty" None (Mailbox.try_recv mb);
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Mailbox.send mb 9);
  Engine.run eng;
  check Alcotest.(option int) "nonempty" (Some 9) (Mailbox.try_recv mb)

let test_mailbox_direct_handoff () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:0 () in
  (* Zero capacity: transfer only via a waiting receiver. *)
  let got = ref 0 in
  Engine.spawn eng ~name:"rx" (fun () -> got := Mailbox.recv mb);
  Engine.spawn eng ~name:"tx" (fun () ->
      Engine.sleep 5.0;
      Mailbox.send mb 77);
  Engine.run eng;
  check Alcotest.int "handoff" 77 !got

let test_mailbox_raise_capacity_admits_senders () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 () in
  let done_ = ref false in
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      (* blocks *)
      done_ := true);
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Mailbox.set_capacity mb (Some 4));
  Engine.run eng;
  Alcotest.(check bool) "admitted after resize" true !done_;
  check Alcotest.int "both queued" 2 (Mailbox.length mb)

(* ---- semaphore ----------------------------------------------------------- *)

let test_semaphore_mutual_exclusion () =
  let eng = Engine.create () in
  let sem = Semaphore.create 1 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Semaphore.with_permit sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.sleep 10.0;
            decr inside))
  done;
  Engine.run eng;
  check Alcotest.int "never two inside" 1 !max_inside;
  check (Alcotest.float 1e-9) "serialised" 40.0 (Engine.now eng)

let test_semaphore_parallelism () =
  let eng = Engine.create () in
  let sem = Semaphore.create 4 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () -> Semaphore.with_permit sem (fun () -> Engine.sleep 10.0))
  done;
  Engine.run eng;
  check (Alcotest.float 1e-9) "all parallel" 10.0 (Engine.now eng)

let test_semaphore_fifo_big_request () =
  let eng = Engine.create () in
  let sem = Semaphore.create 2 in
  let order = ref [] in
  Engine.spawn eng ~name:"small1" (fun () ->
      Semaphore.acquire sem;
      Engine.sleep 10.0;
      Semaphore.release sem);
  Engine.spawn eng ~name:"small2" (fun () ->
      Semaphore.acquire sem;
      Engine.sleep 20.0;
      Semaphore.release sem);
  Engine.spawn eng ~name:"big" (fun () ->
      Engine.sleep 1.0;
      Semaphore.acquire ~n:2 sem;
      order := "big" :: !order;
      Semaphore.release ~n:2 sem);
  Engine.spawn eng ~name:"small3" (fun () ->
      Engine.sleep 2.0;
      Semaphore.acquire sem;
      order := "small3" :: !order;
      Semaphore.release sem);
  Engine.run eng;
  (* The big request is at the queue head; small3 must not starve it. *)
  check Alcotest.(list string) "big not starved" [ "big"; "small3" ] (List.rev !order)

let test_try_acquire () =
  let sem = Semaphore.create 1 in
  Alcotest.(check bool) "first" true (Semaphore.try_acquire sem);
  Alcotest.(check bool) "second fails" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  Alcotest.(check bool) "after release" true (Semaphore.try_acquire sem)

(* ---- waitq ---------------------------------------------------------------- *)

let test_waitq_signal_wakes_one () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Waitq.wait wq;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 1.0;
      Waitq.signal wq);
  Engine.run eng;
  check Alcotest.int "one woken" 1 !woken;
  check Alcotest.int "two blocked" 2 (Engine.live eng - 0)

let test_waitq_broadcast_wakes_all () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Waitq.wait wq;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 1.0;
      Waitq.broadcast wq);
  Engine.run eng;
  check Alcotest.int "all woken" 3 !woken

let test_waitq_signal_fifo () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.sleep (float_of_int i);
        Waitq.wait wq;
        order := i :: !order)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Waitq.signal wq;
      Engine.sleep 1.0;
      Waitq.signal wq;
      Engine.sleep 1.0;
      Waitq.signal wq);
  Engine.run eng;
  check Alcotest.(list int) "oldest waiter first" [ 1; 2; 3 ] (List.rev !order)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let result = ref true in
  Engine.spawn eng (fun () -> result := Waitq.wait_timeout wq ~timeout:30.0);
  Engine.run eng;
  Alcotest.(check bool) "timed out" false !result

(* Waitq against a reference model: a plain list, oldest first, whose
   timed-out waiters stay until a signal or broadcast reaches them. Both
   park and unpark through the same engine calls, so on the same
   program they must wake the same fibers in the same order at the
   same instants, and agree on [waiters] after every operation. *)
module Ref_waitq = struct
  type t = { mutable q : (Engine.fiber * int) list }

  let create () = { q = [] }
  let live (f, k) = Engine.waiting f k
  let waiters t = List.length (List.filter live t.q)

  let enqueue t =
    let f = Engine.self () in
    t.q <- t.q @ [ (f, Engine.ticket f) ]

  let wait t =
    enqueue t;
    Engine.park ()

  let wait_timeout t ~timeout =
    enqueue t;
    Engine.park_timeout timeout

  let rec signal t =
    match t.q with
    | [] -> ()
    | ((f, k) as w) :: rest ->
      t.q <- rest;
      if live w then Engine.unpark f k else signal t

  let broadcast t =
    let ws = t.q in
    t.q <- [];
    List.iter (fun ((f, k) as w) -> if live w then Engine.unpark f k) ws
end

type wq_ops = {
  wait : unit -> unit;
  wait_timeout : float -> bool;
  signal : unit -> unit;
  broadcast : unit -> unit;
  count : unit -> int;
}

type wq_op = Wait | Wait_timeout of int | Signal | Broadcast | Sleep of int

(* Run one program per fiber and log (fiber, op, time, outcome) after
   every operation; a fiber left waiting forever just stops logging. *)
let run_waitq_program make programs =
  let eng = Engine.create () in
  let q = make () in
  let log = ref [] in
  List.iteri
    (fun i ops ->
      Engine.spawn eng ~name:(Printf.sprintf "f%d" i) (fun () ->
          List.iteri
            (fun j op ->
              let outcome =
                match op with
                | Wait ->
                  q.wait ();
                  "woken"
                | Wait_timeout d -> if q.wait_timeout (float_of_int d) then "signalled" else "timed out"
                | Signal ->
                  q.signal ();
                  "signal"
                | Broadcast ->
                  q.broadcast ();
                  "broadcast"
                | Sleep d ->
                  Engine.sleep (float_of_int d);
                  "slept"
              in
              log := Printf.sprintf "%d.%d@%g %s w=%d" i j (Engine.now eng) outcome (q.count ()) :: !log)
            ops))
    programs;
  Engine.run eng;
  (List.rev !log, Engine.live eng)

let waitq_model_prop =
  let open QCheck2 in
  let op =
    Gen.(
      frequency
        [
          (2, pure Wait); (4, map (fun d -> Wait_timeout d) (int_range 0 6)); (3, pure Signal);
          (1, pure Broadcast); (3, map (fun d -> Sleep d) (int_range 0 4));
        ])
  in
  (* Up to 12 fibers outgrow the ring's first 4 slots, and up to 60
     ops each keep timed-out waiters piling up for compaction. *)
  let program = Gen.(list_size (int_range 1 12) (list_size (int_range 1 60) op)) in
  let print programs = Printf.sprintf "%d fibers" (List.length programs) in
  Test.make ~name:"waitq wakes like a reference list" ~count:200 ~print program (fun programs ->
      let real () =
        let q = Waitq.create () in
        { wait = (fun () -> Waitq.wait q); wait_timeout = (fun timeout -> Waitq.wait_timeout q ~timeout);
          signal = (fun () -> Waitq.signal q); broadcast = (fun () -> Waitq.broadcast q);
          count = (fun () -> Waitq.waiters q) }
      and model () =
        let q = Ref_waitq.create () in
        { wait = (fun () -> Ref_waitq.wait q);
          wait_timeout = (fun timeout -> Ref_waitq.wait_timeout q ~timeout);
          signal = (fun () -> Ref_waitq.signal q); broadcast = (fun () -> Ref_waitq.broadcast q);
          count = (fun () -> Ref_waitq.waiters q) }
      in
      run_waitq_program real programs = run_waitq_program model programs)

(* Timed-out waiters are compacted out of a full ring, live ones keep
   their order across growth, and a broadcast still wakes them FIFO. *)
let test_waitq_ring_compaction_and_growth () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let timeouts = ref 0 and order = ref [] in
  Engine.spawn eng ~name:"poller" (fun () ->
      for _ = 1 to 100 do
        if not (Waitq.wait_timeout wq ~timeout:1.0) then incr timeouts
      done);
  for i = 1 to 10 do
    Engine.spawn eng (fun () ->
        Engine.sleep (float_of_int (10 * i));
        Waitq.wait wq;
        order := i :: !order)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 200.0;
      check Alcotest.int "only the ten live waiters count" 10 (Waitq.waiters wq);
      Waitq.broadcast wq);
  Engine.run eng;
  check Alcotest.int "every poll timed out" 100 !timeouts;
  check Alcotest.(list int) "woken oldest first" (List.init 10 (fun i -> i + 1)) (List.rev !order);
  check Alcotest.int "nobody left parked" 0 (Engine.live eng)

(* ---- park / unpark ------------------------------------------------------ *)

(* A timer is set for one park: once an unpark has ended that park
   early, the timer firing must not end the next one. *)
let test_stale_timer () =
  let eng = Engine.create () in
  let parked = ref None and log = ref [] in
  Engine.spawn eng ~name:"parker" (fun () ->
      let f = Engine.self () in
      parked := Some (f, Engine.ticket f);
      let first = Engine.park_timeout 10.0 in
      log := (first, Engine.now eng) :: !log;
      let second = Engine.park_timeout 100.0 in
      log := (second, Engine.now eng) :: !log);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep 5.0;
      let f, ticket = Option.get !parked in
      Engine.unpark f ticket);
  Engine.run eng;
  check
    Alcotest.(list (pair bool (float 1e-9)))
    "unparked at 5, then timed out at 105, not at 10"
    [ (true, 5.0); (false, 105.0) ]
    (List.rev !log)

(* A signal and a timeout landing at the same instant: whichever event
   runs first decides the answer, and the waiter resumes exactly once —
   a second wake-up would cut its next sleep short. *)
let test_waitq_timeout_signal_same_instant () =
  let run ~signal_first =
    let eng = Engine.create () in
    let wq = Waitq.create () in
    let result = ref None and resumed = ref 0 and slept_until = ref 0.0 in
    let signaller () =
      Engine.sleep 10.0;
      Waitq.signal wq
    in
    (* Spawned earlier, the signaller's wake-up takes an earlier seq
       than the waiter's timer at t=10, and runs first. *)
    if signal_first then Engine.spawn eng ~name:"signaller" signaller;
    Engine.spawn eng ~name:"waiter" (fun () ->
        result := Some (Waitq.wait_timeout wq ~timeout:10.0);
        incr resumed;
        Engine.sleep 5.0;
        slept_until := Engine.now eng);
    if not signal_first then Engine.spawn eng ~name:"signaller" signaller;
    Engine.run eng;
    check Alcotest.int "resumed once" 1 !resumed;
    check (Alcotest.float 1e-9) "the next sleep ran its full length" 15.0 !slept_until;
    check Alcotest.int "nobody left parked" 0 (Engine.live eng);
    !result
  in
  check Alcotest.(option bool) "signal first wins" (Some true) (run ~signal_first:true);
  check Alcotest.(option bool) "timer first wins" (Some false) (run ~signal_first:false)

(* [read_timeout] answers by which event came first, not by the cell's
   state when the reader resumes: an expiry that ran before a fill at
   the same instant still reads [None]. *)
let test_ivar_timeout_fill_same_instant () =
  let run ~fill_first =
    let eng = Engine.create () in
    let iv = Ivar.create () in
    let result = ref (Some (-1)) and resumed = ref 0 in
    let filler () =
      Engine.sleep 10.0;
      Ivar.fill iv 42
    in
    if fill_first then Engine.spawn eng ~name:"filler" filler;
    Engine.spawn eng ~name:"reader" (fun () ->
        result := Ivar.read_timeout iv ~timeout:10.0;
        incr resumed;
        Engine.sleep 5.0);
    if not fill_first then Engine.spawn eng ~name:"filler" filler;
    Engine.run eng;
    check Alcotest.int "resumed once" 1 !resumed;
    check (Alcotest.float 1e-9) "the next sleep ran its full length" 15.0 (Engine.now eng);
    !result
  in
  check Alcotest.(option int) "fill first" (Some 42) (run ~fill_first:true);
  check Alcotest.(option int) "expiry first" None (run ~fill_first:false)

let test_mailbox_close_wakes_parked () =
  let eng = Engine.create () in
  let inbox : int Mailbox.t = Mailbox.create () in
  let full : int Mailbox.t = Mailbox.create ~capacity:1 () in
  Mailbox.send full 0;
  let outcomes = ref [] in
  let expect_closed name f =
    Engine.spawn eng ~name (fun () ->
        match f () with
        | () -> outcomes := (name, "returned") :: !outcomes
        | exception Mailbox.Closed -> outcomes := (name, "closed") :: !outcomes)
  in
  expect_closed "recv" (fun () -> ignore (Mailbox.recv inbox));
  expect_closed "recv_timeout" (fun () -> ignore (Mailbox.recv_timeout inbox ~timeout:100.0));
  expect_closed "send" (fun () -> Mailbox.send full 1);
  expect_closed "send_timeout" (fun () -> ignore (Mailbox.send_timeout full 2 ~timeout:100.0));
  Engine.spawn eng ~name:"closer" (fun () ->
      Engine.sleep 10.0;
      check Alcotest.int "receivers parked" 2 (Mailbox.waiters inbox);
      Mailbox.close inbox;
      Mailbox.close full);
  Engine.run eng;
  check
    Alcotest.(list (pair string string))
    "every parked thread raised Closed"
    [ ("recv", "closed"); ("recv_timeout", "closed"); ("send", "closed");
      ("send_timeout", "closed") ]
    (List.sort compare !outcomes);
  check (Alcotest.float 1e-9) "the stale timeouts still ran, as no-ops" 100.0 (Engine.now eng);
  check Alcotest.int "nobody left parked" 0 (Engine.live eng)

let test_blocked_names_every_primitive () =
  let eng = Engine.create () in
  let wq = Waitq.create () and iv : unit Ivar.t = Ivar.create () in
  let inbox : unit Mailbox.t = Mailbox.create () in
  let full = Mailbox.create ~capacity:0 () in
  let sem = Semaphore.create 0 in
  Engine.spawn eng ~name:"waitq" (fun () -> Waitq.wait wq);
  Engine.spawn eng ~name:"waitq-timeout" (fun () -> ignore (Waitq.wait_timeout wq ~timeout:1e6));
  Engine.spawn eng ~name:"ivar" (fun () -> Ivar.read iv);
  Engine.spawn eng ~name:"ivar-timeout" (fun () -> ignore (Ivar.read_timeout iv ~timeout:1e6));
  Engine.spawn eng ~name:"recv" (fun () -> Mailbox.recv inbox);
  Engine.spawn eng ~name:"send" (fun () -> Mailbox.send full ());
  Engine.spawn eng ~name:"semaphore" (fun () -> Semaphore.acquire sem);
  Engine.spawn eng ~name:"runner" (fun () -> Engine.sleep 1.0);
  Engine.run ~until:10.0 eng;
  check
    Alcotest.(list string)
    "every parked thread is listed, the finished one is not"
    [ "ivar"; "ivar-timeout"; "recv"; "semaphore"; "send"; "waitq"; "waitq-timeout" ]
    (Engine.blocked_names eng);
  Waitq.broadcast wq;
  Ivar.fill iv ();
  Engine.run ~until:20.0 eng;
  check Alcotest.(list string) "woken threads drop out" [ "recv"; "semaphore"; "send" ]
    (Engine.blocked_names eng)

(* The park contract, at the engine: each park ends once, by an unpark
   or its timeout, and a late or repeated unpark raises instead of
   waking the fiber out of whatever it does next. *)
let test_park_ends_once () =
  let eng = Engine.create () in
  let fib = ref None and ticket = ref (-1) and outcomes = ref [] in
  let raises f =
    match f () with () -> "woke" | exception Invalid_argument msg -> msg
  in
  let unpark_at at =
    Engine.schedule eng ~at (fun () ->
        let f = Option.get !fib in
        let live = Engine.waiting f !ticket in
        outcomes := (at, live, raises (fun () -> Engine.unpark f !ticket)) :: !outcomes)
  in
  Engine.spawn eng ~name:"parker" (fun () ->
      let f = Engine.self () in
      fib := Some f;
      ticket := Engine.ticket f;
      (* Timer at 10 beats the unpark at 20. *)
      check Alcotest.bool "timed out" false (Engine.park_timeout 10.0);
      check (Alcotest.float 1e-9) "at the deadline" 10.0 (Engine.now eng);
      Engine.sleep 20.0;
      check (Alcotest.float 1e-9) "the stale unpark left the sleep alone" 30.0 (Engine.now eng);
      (* Unparked at 40, twice; the timer at 130 finds the park over. *)
      ticket := Engine.ticket f;
      check Alcotest.bool "unparked" true (Engine.park_timeout 100.0);
      check (Alcotest.float 1e-9) "at the unpark" 40.0 (Engine.now eng);
      Engine.sleep 200.0;
      check (Alcotest.float 1e-9) "the stale timer left the sleep alone" 240.0 (Engine.now eng));
  unpark_at 20.0;
  unpark_at 40.0;
  unpark_at 40.0;
  Engine.run eng;
  check
    Alcotest.(list (triple (float 1e-9) bool string))
    "only the live unpark woke the fiber"
    [ (20.0, false, "Engine.unpark: park already ended"); (40.0, true, "woke");
      (40.0, false, "Engine.unpark: park already ended") ]
    (List.rev !outcomes);
  check Alcotest.int "finished" 0 (Engine.live eng)

let test_unpark_before_park () =
  let eng = Engine.create () in
  let outcome = ref "" in
  Engine.spawn eng ~name:"runner" (fun () ->
      let f = Engine.self () in
      outcome :=
        match Engine.unpark f (Engine.ticket f) with
        | () -> "woke"
        | exception Invalid_argument msg -> msg);
  Engine.run eng;
  check Alcotest.string "refused" "Engine.unpark: fiber not parked" !outcome

let test_self_outside_a_thread () =
  Alcotest.check_raises "self outside a thread"
    (Invalid_argument "Engine.self: not inside a simulated thread") (fun () ->
      ignore (Engine.self ()))

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "tie break by sequence" `Quick test_tie_break_by_sequence;
          Alcotest.test_case "sleep advances time" `Quick test_sleep_advances_time;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "nested spawn" `Quick test_spawn_nested;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "self name" `Quick test_self_name;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          QCheck_alcotest.to_alcotest determinism_prop;
          QCheck_alcotest.to_alcotest tie_break_prop;
          Alcotest.test_case "blocked names: sleep and ivar" `Quick
            test_blocked_names_sleep_and_ivar;
          Alcotest.test_case "self outside fibers" `Quick test_self_outside_fibers;
          Alcotest.test_case "sleep allocation bound" `Quick test_sleep_allocation;
          Alcotest.test_case "self_name allocates nothing" `Quick
            test_self_name_allocates_nothing;
          Alcotest.test_case "waitq allocation bound" `Quick test_waitq_allocation;
          Alcotest.test_case "mailbox recv allocation bound" `Quick
            test_mailbox_recv_allocation;
        ] );
      ( "park",
        [
          Alcotest.test_case "wait_timeout: signal and timer at one instant" `Quick
            test_waitq_timeout_signal_same_instant;
          Alcotest.test_case "read_timeout: fill and expiry at one instant" `Quick
            test_ivar_timeout_fill_same_instant;
          Alcotest.test_case "close wakes parked receivers and senders" `Quick
            test_mailbox_close_wakes_parked;
          Alcotest.test_case "blocked names: every primitive" `Quick
            test_blocked_names_every_primitive;
          Alcotest.test_case "each park ends once" `Quick test_park_ends_once;
          Alcotest.test_case "stale timer ignored" `Quick test_stale_timer;
          Alcotest.test_case "unpark before park" `Quick test_unpark_before_park;
          Alcotest.test_case "self outside a thread" `Quick test_self_outside_a_thread;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read then fill wakes all" `Quick test_ivar_read_then_fill;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
          Alcotest.test_case "fill beats timeout" `Quick test_ivar_timeout_beaten_by_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "capacity blocks sender" `Quick test_mailbox_capacity_blocks_sender;
          Alcotest.test_case "send timeout" `Quick test_mailbox_send_timeout;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "try recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "zero-capacity handoff" `Quick test_mailbox_direct_handoff;
          Alcotest.test_case "raising capacity admits senders" `Quick
            test_mailbox_raise_capacity_admits_senders;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
          Alcotest.test_case "parallelism" `Quick test_semaphore_parallelism;
          Alcotest.test_case "fifo big request" `Quick test_semaphore_fifo_big_request;
          Alcotest.test_case "try acquire" `Quick test_try_acquire;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "signal wakes one" `Quick test_waitq_signal_wakes_one;
          Alcotest.test_case "broadcast wakes all" `Quick test_waitq_broadcast_wakes_all;
          Alcotest.test_case "signal is FIFO" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "timeout" `Quick test_waitq_timeout;
          Alcotest.test_case "ring compaction and growth" `Quick
            test_waitq_ring_compaction_and_growth;
          QCheck_alcotest.to_alcotest waitq_model_prop;
        ] );
    ]
