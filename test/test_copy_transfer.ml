(* Copy semantics of out-of-line message transfer.

   msg_send and msg_rpc snapshot Ool_region items into kernel copy objects
   (vm_map_copyin): from that instant the message's contents are fixed.
   The receiver's map_ool attaches the snapshot lazily (vm_map_copyout)
   and its pages materialize through the fault path. Both directions of
   isolation must hold — sender writes after the send are invisible to
   the receiver, and receiver writes never leak back — locally and
   across hosts, for any interleaving of sends and writes. *)

open Mach
module Metrics = Mach_util.Metrics
module Codec = Mach_util.Codec

let check = Alcotest.check
let page = 4096

let with_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"sender" () in
      ignore (Thread.spawn task ~name:"sender.main" (fun () -> result := Some (f sys task)));
      ());
  Engine.run sys.Kernel.engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete (deadlock?)"

let read_str task ~addr ~len =
  match Syscalls.read_bytes task ~addr ~len () with
  | Ok b -> Bytes.to_string b
  | Error e -> Alcotest.failf "%s read: %a" (Task.name task) Access.pp_error e

let write_str task ~addr s =
  match Syscalls.write_bytes task ~addr (Bytes.of_string s) () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s write: %a" (Task.name task) Access.pp_error e

(* Ship [addr, addr+size) of [sender] out of line to [dest]. *)
let send_region sender ~addr ~size ~dest =
  match
    Syscalls.msg_send sender (Message.make ~dest [ Syscalls.ool_region sender ~addr ~size ])
  with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "ool send failed"

let receive_mapped receiver ~svc =
  match Syscalls.msg_receive receiver ~from:(`Port svc) () with
  | Ok msg -> (
    match Syscalls.map_ool receiver msg with
    | [ (addr, size) ] -> (addr, size)
    | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other))
  | Error _ -> Alcotest.fail "receive failed"

let test_sender_writes_invisible () =
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 2 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "before";
      write_str sender ~addr:(addr + page) "tail";
      send_region sender ~addr ~size ~dest:svc_port;
      (* The snapshot is already fixed: scribble over both pages. *)
      write_str sender ~addr "AFTER!";
      write_str sender ~addr:(addr + page) "gone";
      let raddr, rsize = receive_mapped receiver ~svc in
      check Alcotest.int "full region mapped" size rsize;
      check Alcotest.string "first page is the snapshot" "before"
        (read_str receiver ~addr:raddr ~len:6);
      check Alcotest.string "second page is the snapshot" "tail"
        (read_str receiver ~addr:(raddr + page) ~len:4))

let test_receiver_writes_do_not_leak () =
  with_system (fun sys sender ->
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "original";
      send_region sender ~addr ~size ~dest:svc_port;
      let raddr, _ = receive_mapped receiver ~svc in
      write_str receiver ~addr:raddr "tampered";
      check Alcotest.string "receiver sees its own write" "tampered"
        (read_str receiver ~addr:raddr ~len:8);
      check Alcotest.string "sender unaffected" "original" (read_str sender ~addr ~len:8))

let test_lazy_copyout_faults_counted () =
  with_system (fun sys sender ->
      let stats = (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_stats in
      let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 4 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      write_str sender ~addr "payload";
      let copyins0 = Metrics.value stats.Transport.s_copyins in
      send_region sender ~addr ~size ~dest:svc_port;
      check Alcotest.int "one copyin at send" 1
        (Metrics.value stats.Transport.s_copyins - copyins0);
      let faults0 = Metrics.value stats.Transport.s_lazy_copyout_faults in
      let raddr, _ = receive_mapped receiver ~svc in
      check Alcotest.int "mapping alone faults nothing" 0
        (Metrics.value stats.Transport.s_lazy_copyout_faults - faults0);
      check Alcotest.string "first touch pages the copy in" "payload"
        (read_str receiver ~addr:raddr ~len:7);
      Alcotest.(check bool) "lazy copy-out faults counted" true
        (Metrics.value stats.Transport.s_lazy_copyout_faults > faults0))

let test_remote_copy_transfer () =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let sender = Task.create cluster.Kernel.c_kernels.(0) ~name:"sender" () in
      let receiver = Task.create cluster.Kernel.c_kernels.(1) ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let size = 2 * page in
      ignore
        (Thread.spawn sender ~name:"sender.main" (fun () ->
             let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
             write_str sender ~addr "across-the-wire";
             send_region sender ~addr ~size ~dest:svc_port;
             (* Late sender writes must not reach the remote snapshot
                even though its pages have not crossed the wire yet. *)
             write_str sender ~addr "XXXXXXXXXXXXXXX"));
      ignore
        (Thread.spawn receiver ~name:"receiver.main" (fun () ->
             let msg =
               match Syscalls.msg_receive receiver ~from:(`Port svc) () with
               | Ok msg -> msg
               | Error _ -> Alcotest.fail "remote receive failed"
             in
             (* The message carries only a handle to the sender-side
                export, never the bytes. *)
             let mo =
               match msg.Message.body with
               | [ Message.Ool_copy { Message.cp_payload = Message.Net_copy { nc_object }; _ } ]
                 -> nc_object
               | _ -> Alcotest.fail "expected a remote copy handle"
             in
             let raddr, rsize =
               match Syscalls.map_ool receiver msg with
               | [ r ] -> r
               | other -> Alcotest.failf "expected one mapped region, got %d" (List.length other)
             in
             let first = read_str receiver ~addr:raddr ~len:15 in
             write_str receiver ~addr:raddr "local-scribble!";
             let after = read_str receiver ~addr:raddr ~len:15 in
             (* Dropping the mapping kills our pager request port; the
                sender-side export sees the death and tears down. *)
             Syscalls.vm_deallocate receiver ~addr:raddr ~size:rsize;
             Engine.sleep 10_000.0;
             result := Some (first, after, Mach_ipc.Port.alive mo))));
  Engine.run cluster.Kernel.c_engine;
  match !result with
  | None -> Alcotest.fail "remote transfer did not complete (deadlock?)"
  | Some (first, after, export_alive) ->
    check Alcotest.string "receiver pages in the send-time snapshot" "across-the-wire" first;
    check Alcotest.string "receiver writes stay local" "local-scribble!" after;
    Alcotest.(check bool) "export torn down after unmap" false export_alive

(* Out-of-line RPCs to a multi-threaded server: every request is
   snapshotted at send, so the service threads only ever copy out, and
   their concurrent map_ool / touch / vm_deallocate cycles must give
   each request its own range of the server's map holding exactly the
   sender's pages. *)
let test_concurrent_rpc_map_ool () =
  let clients = 4 and server_threads = 4 and iters = 6 and pages = 8 in
  let stamp ~client ~iter ~pg = Printf.sprintf "c%d.i%d.p%d" client iter pg in
  let params = { Machine.multimax with Machine.cpus = 4 } in
  with_system ~config:{ Kernel.default_config with Kernel.params = params } (fun sys _ ->
      let kernel = sys.Kernel.kernel in
      let server = Task.create kernel ~name:"server" () in
      let svc = Syscalls.port_allocate server ~backlog:(2 * clients) () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space server) svc in
      let serve () =
        let rec loop () =
          match Syscalls.msg_receive server ~from:(`Port svc) () with
          | Error _ -> ()
          | Ok msg ->
            let d = Codec.Dec.of_bytes (Message.data_exn msg) in
            let client = Codec.Dec.int d in
            let iter = Codec.Dec.int d in
            let status =
              match Syscalls.map_ool server msg with
              | [ (addr, size) ] ->
                let bad =
                  List.find_opt
                    (fun pg ->
                      let want = stamp ~client ~iter ~pg in
                      let va = addr + (pg * page) in
                      match Syscalls.read_bytes server ~addr:va ~len:(String.length want) () with
                      | Ok b -> Bytes.to_string b <> want
                      | Error _ -> true)
                    (List.init pages Fun.id)
                in
                (* A server write must stay in the server's copy. *)
                ignore (Syscalls.write_bytes server ~addr (Bytes.of_string "server") ());
                Syscalls.vm_deallocate server ~addr ~size;
                (match bad with
                | None -> "ok"
                | Some pg -> Printf.sprintf "client %d iter %d: page %d wrong" client iter pg)
              | regions -> Printf.sprintf "%d regions" (List.length regions)
            in
            (match msg.Message.header.Message.reply with
            | Some reply ->
              ignore
                (Syscalls.msg_send server
                   (Message.make ~dest:reply [ Message.Data (Bytes.of_string status) ]))
            | None -> ());
            loop ()
        in
        loop ()
      in
      for i = 1 to server_threads do
        ignore (Thread.spawn server ~name:(Printf.sprintf "server.%d" i) serve)
      done;
      let client_main client task reply_port () =
        let size = pages * page in
        List.init iters (fun iter ->
            let addr = Syscalls.vm_allocate task ~size ~anywhere:true () in
            for pg = 0 to pages - 1 do
              write_str task ~addr:(addr + (pg * page)) (stamp ~client ~iter ~pg)
            done;
            let e = Codec.Enc.create () in
            Codec.Enc.int e client;
            Codec.Enc.int e iter;
            let msg =
              Message.make ~dest:svc_port ~reply:reply_port
                [ Message.Data (Codec.Enc.to_bytes e); Syscalls.ool_region task ~addr ~size ]
            in
            let status =
              match Syscalls.msg_rpc task msg () with
              | Ok reply ->
                let want = stamp ~client ~iter ~pg:0 in
                if read_str task ~addr ~len:(String.length want) <> want then
                  "server write leaked back"
                else Bytes.to_string (Message.data_exn reply)
              | Error _ -> "rpc failed"
            in
            (* The snapshot was taken at send: the sender may scribble
               and free the region while the server still holds it. *)
            Syscalls.vm_deallocate task ~addr ~size;
            status)
      in
      let results =
        List.init clients (fun client ->
            let task = Task.create kernel ~name:(Printf.sprintf "client%d" client) () in
            let reply = Syscalls.port_allocate task () in
            let reply_port = Mach_ipc.Port_space.lookup_exn (Task.space task) reply in
            let done_ = Ivar.create () in
            ignore
              (Thread.spawn task ~name:(Printf.sprintf "client%d.main" client) (fun () ->
                   Ivar.fill done_ (client_main client task reply_port ())));
            done_)
        |> List.concat_map Ivar.read
      in
      List.iter (check Alcotest.string "every page carries its sender's stamp" "ok") results;
      (match Vm_map.check_invariants (Task.map server) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "server map: %s" e);
      check Alcotest.int "every region deallocated" 0 (Vm_map.size (Task.map server)))

(* A region is a request to snapshot the sender's own memory; naming
   another task's address space is refused before anything moves. *)
let test_foreign_region_rejected () =
  with_system (fun sys sender ->
      let other = Task.create sys.Kernel.kernel ~name:"other" () in
      let addr = Syscalls.vm_allocate other ~size:page ~anywhere:true () in
      let svc = Syscalls.port_allocate other ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space other) svc in
      let reply = Syscalls.port_allocate sender () in
      let reply_port = Mach_ipc.Port_space.lookup_exn (Task.space sender) reply in
      let foreign = Syscalls.ool_region other ~addr ~size:page in
      let rejected f = match f () with _ -> false | exception Invalid_argument _ -> true in
      Alcotest.(check bool) "msg_send rejects it" true
        (rejected (fun () -> Syscalls.msg_send sender (Message.make ~dest:svc_port [ foreign ])));
      Alcotest.(check bool) "msg_rpc rejects it" true
        (rejected (fun () ->
             Syscalls.msg_rpc sender (Message.make ~dest:svc_port ~reply:reply_port [ foreign ]) ()));
      check Alcotest.(list int) "nothing was queued" [] (Syscalls.port_messages other))

(* A send that fails drops the snapshot it took: once the sender
   deallocates the region too, every frame is free again. *)
let test_failed_send_frees_snapshot () =
  with_system (fun sys sender ->
      let kernel = sys.Kernel.kernel in
      let dead = Task.create kernel ~name:"dead" () in
      let svc = Syscalls.port_allocate dead ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space dead) svc in
      Task.terminate dead;
      let free_before = Kernel.free_frames kernel in
      let size = 8 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      for i = 0 to 7 do
        write_str sender ~addr:(addr + (i * page)) (Printf.sprintf "page %d" i)
      done;
      (match
         Syscalls.msg_send sender (Message.make ~dest:svc_port [ Syscalls.ool_region sender ~addr ~size ])
       with
      | Ok () -> Alcotest.fail "send to a dead port succeeded"
      | Error _ -> ());
      Syscalls.vm_deallocate sender ~addr ~size;
      check Alcotest.int "every frame back" free_before (Kernel.free_frames kernel))

(* A snapshot still queued when its port dies is released with the
   port: once the sender deallocates the region too, every frame is
   free again. *)
let test_port_death_frees_queued_snapshot () =
  with_system (fun sys sender ->
      let kernel = sys.Kernel.kernel in
      let receiver = Task.create kernel ~name:"receiver" () in
      let svc = Syscalls.port_allocate receiver ~backlog:4 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
      let free_before = Kernel.free_frames kernel in
      let size = 8 * page in
      let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
      for i = 0 to 7 do
        write_str sender ~addr:(addr + (i * page)) (Printf.sprintf "page %d" i)
      done;
      send_region sender ~addr ~size ~dest:svc_port;
      check Alcotest.int "queued at the receiver" 1 (Mach_ipc.Port.queued svc_port);
      Task.terminate receiver;
      Syscalls.vm_deallocate sender ~addr ~size;
      check Alcotest.int "every frame back" free_before (Kernel.free_frames kernel))

(* qcheck: the lazy pipeline must be observationally equal to an eager
   Bytes.blit snapshot at every send, for any interleaving of sends and
   single-byte sender writes. *)
let copy_oracle_prop =
  let open QCheck2 in
  let size = 2 * page in
  let gen =
    Gen.(
      list_size (int_range 1 4)
        (pair
           (list_size (int_range 0 6) (pair (int_range 0 (size - 1)) (char_range 'a' 'z')))
           unit))
  in
  Test.make ~name:"lazy copy-out equals eager blit oracle" ~count:30 gen (fun rounds ->
      with_system (fun sys sender ->
          let receiver = Task.create sys.Kernel.kernel ~name:"receiver" () in
          let svc = Syscalls.port_allocate receiver ~backlog:8 () in
          let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) svc in
          let addr = Syscalls.vm_allocate sender ~size ~anywhere:true () in
          (match Syscalls.write_bytes sender ~addr (Bytes.make size '.') () with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "seed write failed");
          let oracle = Bytes.make size '.' in
          (* Each round: a burst of overlapping writes, then a send.
             The oracle snapshots eagerly at the send. *)
          let snapshots =
            List.map
              (fun (writes, ()) ->
                List.iter
                  (fun (off, ch) ->
                    Bytes.set oracle off ch;
                    match
                      Syscalls.write_bytes sender ~addr:(addr + off) (Bytes.make 1 ch) ()
                    with
                    | Ok () -> ()
                    | Error _ -> Alcotest.fail "interleaved write failed")
                  writes;
                send_region sender ~addr ~size ~dest:svc_port;
                let snap = Bytes.create size in
                Bytes.blit oracle 0 snap 0 size;
                snap)
              rounds
          in
          List.for_all
            (fun snap ->
              let raddr, rsize = receive_mapped receiver ~svc in
              let got = read_str receiver ~addr:raddr ~len:rsize in
              Syscalls.vm_deallocate receiver ~addr:raddr ~size:rsize;
              String.equal got (Bytes.to_string snap))
            snapshots))

let () =
  Alcotest.run "copy_transfer"
    [
      ( "local",
        [
          Alcotest.test_case "sender writes after send invisible" `Quick
            test_sender_writes_invisible;
          Alcotest.test_case "receiver writes do not leak back" `Quick
            test_receiver_writes_do_not_leak;
          Alcotest.test_case "copyin eager, copy-out faults lazy" `Quick
            test_lazy_copyout_faults_counted;
          Alcotest.test_case "foreign region rejected at send" `Quick test_foreign_region_rejected;
          Alcotest.test_case "port death frees a queued snapshot" `Quick
            test_port_death_frees_queued_snapshot;
          Alcotest.test_case "failed send frees its snapshot" `Quick
            test_failed_send_frees_snapshot;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "rpc to 4 service threads keeps the map disjoint" `Quick
            test_concurrent_rpc_map_ool;
        ] );
      ("remote", [ Alcotest.test_case "cross-host snapshot" `Quick test_remote_copy_transfer ]);
      ("property", [ QCheck_alcotest.to_alcotest copy_oracle_prop ]);
    ]
