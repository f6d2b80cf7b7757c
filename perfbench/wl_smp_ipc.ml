(* smp_ipc: fork and out-of-line RPC on one 4-CPU MultiMax host.

   Eight client tasks (two per CPU, so run queues form) each loop over
   a fixed number of iterations; one iteration is the unit op:
   allocate and write a 32-page region, fork a child that writes 8
   pages and exits, rewrite 8 pages in the parent, msg_rpc the region
   out-of-line to a 4-thread server (which maps it, checks every page,
   writes a quarter of them and deallocates), then deallocate.

   Every page carries an 8-byte stamp naming its writer, so the server
   and the child can check what they see: the server must find the
   parent's current values (pre-fork stamps, or the post-fork rewrite
   where one happened), the child must find the pre-fork values. *)

open Mach
module Rng = Mach_util.Rng

let page = 4096
let clients = 8
let server_threads = 4
let region_pages = 32
let child_writes = 8
let parent_rewrites = 8

(* Phase 0 = written before the fork, 1 = parent's post-fork rewrite,
   2 = child, 3 = server. *)
let stamp ~client ~iter ~phase ~pg =
  Int64.of_int ((client lsl 40) lor (iter lsl 16) lor (phase lsl 8) lor pg)

let stamp_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  b

let read_stamp task addr =
  match Syscalls.read_bytes task ~addr ~len:8 () with
  | Ok b -> Ok (Bytes.get_int64_le b 0)
  | Error e -> Error (Format.asprintf "read %#x: %a" addr Access.pp_error e)

let write_stamp task addr v =
  match Syscalls.write_bytes task ~addr (stamp_bytes v) () with
  | Ok () -> Ok ()
  | Error e -> Error (Format.asprintf "write %#x: %a" addr Access.pp_error e)

let rec each_page f = function
  | [] -> Ok ()
  | pg :: rest -> ( match f pg with Ok () -> each_page f rest | Error _ as e -> e)

let ( let* ) = Result.bind

(* The request's inline header: who sent it, which iteration, and the
   bitmask of pages the parent rewrote after the fork. *)
let encode_request ~client ~iter ~rewritten =
  let b = Bytes.create 24 in
  Bytes.set_int64_le b 0 (Int64.of_int client);
  Bytes.set_int64_le b 8 (Int64.of_int iter);
  Bytes.set_int64_le b 16 (Int64.of_int rewritten);
  b

let decode_request b =
  ( Int64.to_int (Bytes.get_int64_le b 0),
    Int64.to_int (Bytes.get_int64_le b 8),
    Int64.to_int (Bytes.get_int64_le b 16) )

let serve h server svc () =
  let rec loop () =
    match Syscalls.msg_receive server ~from:(`Port svc) () with
    | Error _ -> ()
    | Ok msg ->
      let client, iter, rewritten = decode_request (Message.data_exn msg) in
      let check () =
        match Harness.call h "map_ool" (fun () -> Syscalls.map_ool server msg) with
        | [ (addr, size) ] when size = region_pages * page ->
          let r =
            each_page
              (fun pg ->
                let* v = read_stamp server (addr + (pg * page)) in
                let phase = if rewritten land (1 lsl pg) <> 0 then 1 else 0 in
                if v <> stamp ~client ~iter ~phase ~pg then
                  Error (Printf.sprintf "server: client %d iter %d page %d has stamp %Lx" client iter pg v)
                else if pg mod 4 = 0 then write_stamp server (addr + (pg * page)) (stamp ~client ~iter ~phase:3 ~pg)
                else Ok ())
              (List.init region_pages Fun.id)
          in
          Harness.call h "vm_deallocate" (fun () -> Syscalls.vm_deallocate server ~addr ~size);
          r
        | regions -> Error (Printf.sprintf "server: %d out-of-line regions" (List.length regions))
      in
      let status = match check () with Ok () -> "ok" | Error m -> m in
      (match msg.Message.header.Message.reply with
      | Some reply ->
        ignore (Syscalls.msg_send server (Message.make ~dest:reply [ Message.Data (Bytes.of_string status) ]))
      | None -> ());
      loop ()
  in
  loop ()

let iteration h ~kernel ~task ~svc_port ~reply_port ~rng ~client ~iter =
  let size = region_pages * page in
  let addr =
    Harness.call h "vm_allocate" (fun () -> Syscalls.vm_allocate task ~size ~anywhere:true ())
  in
  let pages = List.init region_pages Fun.id in
  let pick n =
    let a = Array.of_list pages in
    Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 n)
  in
  let child_pages = pick child_writes and parent_pages = pick parent_rewrites in
  let* () =
    each_page (fun pg -> write_stamp task (addr + (pg * page)) (stamp ~client ~iter ~phase:0 ~pg)) pages
  in
  let child =
    Harness.call h "fork" (fun () ->
        Task.create kernel ~parent:task ~name:(Printf.sprintf "c%d.%d" client iter) ())
  in
  let child_done = Ivar.create () in
  ignore
    (Thread.spawn child ~name:(Printf.sprintf "c%d.%d.main" client iter) (fun () ->
         Ivar.fill child_done
           (each_page
              (fun pg ->
                let a = addr + (pg * page) in
                let* v = read_stamp child a in
                if v <> stamp ~client ~iter ~phase:0 ~pg then
                  Error (Printf.sprintf "child: client %d iter %d page %d has stamp %Lx" client iter pg v)
                else write_stamp child a (stamp ~client ~iter ~phase:2 ~pg))
              child_pages)));
  let* () =
    each_page (fun pg -> write_stamp task (addr + (pg * page)) (stamp ~client ~iter ~phase:1 ~pg)) parent_pages
  in
  let rewritten = List.fold_left (fun m pg -> m lor (1 lsl pg)) 0 parent_pages in
  let msg =
    Message.make ~dest:svc_port ~reply:reply_port
      [ Message.Data (encode_request ~client ~iter ~rewritten); Syscalls.ool_region task ~addr ~size ]
  in
  let rpc = Harness.call h "msg_rpc" (fun () -> Syscalls.msg_rpc task msg ()) in
  let child_result = Ivar.read child_done in
  Harness.call h "task_terminate" (fun () -> Task.terminate child);
  Harness.call h "vm_deallocate" (fun () -> Syscalls.vm_deallocate task ~addr ~size);
  let* () = child_result in
  match rpc with
  | Error _ -> Error (Printf.sprintf "client %d iter %d: msg_rpc failed" client iter)
  | Ok reply -> (
    match Bytes.to_string (Message.data_exn reply) with
    | "ok" -> Ok ()
    | m -> Error m)

(* [iters] iterations per client; the seed picks which pages the child
   and the parent write in each iteration. *)
let run h ~seed ~iters =
  let params = { Machine.multimax with Machine.cpus = 4 } in
  let config = { Kernel.default_config with Kernel.params = params; phys_frames = 2048 } in
  let sys = Kernel.create_system ~config () in
  let kernel = sys.Kernel.kernel in
  Harness.attach h ~engine:sys.Kernel.engine ~kernels:[| kernel |] ~disks:[];
  Engine.spawn sys.Kernel.engine ~name:"bench-setup" (fun () ->
      let server = Task.create kernel ~name:"srv" () in
      let svc = Syscalls.port_allocate server ~backlog:(2 * clients) () in
      let svc_port = Port_space.lookup_exn (Task.space server) svc in
      for i = 1 to server_threads do
        ignore (Thread.spawn server ~name:(Printf.sprintf "srv.%d" i) (serve h server svc))
      done;
      let root = Rng.create seed in
      let tasks =
        List.init clients (fun c ->
            let task = Task.create kernel ~name:(Printf.sprintf "cl%d" c) () in
            let reply_name = Syscalls.port_allocate task () in
            (c, task, Port_space.lookup_exn (Task.space task) reply_name, Rng.split root))
      in
      let remaining = ref clients in
      Harness.start h ~planned:(clients * iters);
      List.iter
        (fun (client, task, reply_port, rng) ->
          ignore
            (Thread.spawn task ~name:(Printf.sprintf "cl%d.main" client) (fun () ->
                 for iter = 1 to iters do
                   Harness.op h (fun () ->
                       iteration h ~kernel ~task ~svc_port ~reply_port ~rng ~client ~iter)
                 done;
                 decr remaining;
                 if !remaining = 0 then Harness.finish h)))
        tasks);
  Harness.run h
