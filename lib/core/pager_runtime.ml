(** The Mos-hosted face of the pager runtime.

    [Mach_vm.Pager_runtime] is the transport-agnostic engine; this
    module re-exports it and adds {!serve}, which plants the engine on
    top of {!Memory_object_server} — the layering every user-level
    manager shares:

    {v
      Memory_object_server   (receive/dispatch, port-death notify)
             |
        Pager_runtime        (registry, splitting, coalescing, stats)
             |
        policy module        (backing-store read/write + consistency)
    v} *)

open Mach_kernel.Ktypes
module Mos = Memory_object_server
include Mach_vm.Pager_runtime

(** Start serving a policy from [srv_task]: returns the runtime (for
    registering objects and reading stats) and the underlying server
    (for [create_memory_object], non-protocol RPC, [stop]). Failed
    replies — the runtime's own and any the policy sends through [Mos]
    directly — are counted as [s_dropped_replies]. *)
let serve ?service_threads
    ?(on_create = fun _ _ ~memory_object:_ ~request:_ ~name:_ ~size:_ -> ())
    ?(on_other = fun _ _ _ -> ()) srv_task policy =
  let send msg =
    match Mach_kernel.Syscalls.msg_send srv_task msg with
    | Ok () -> Ok ()
    | Error _ ->
      Mos.trace_dropped_reply srv_task msg;
      Error ()
  in
  let kctx = srv_task.t_kernel.k_kctx in
  let rt =
    create ~name:srv_task.t_name ~page_size:kctx.Mach_vm.Kctx.page_size ~send policy
  in
  (* Every user-level manager's stats block lands in the host registry
     under its own namespace, e.g. "pager.vnode-pager.requests". *)
  Mach_util.Metrics.attach kctx.Mach_vm.Kctx.metrics ~subsystem:("pager." ^ srv_task.t_name)
    (stats rt).Stats.s_group;
  let cb =
    {
      Mos.on_init =
        (fun _ ~memory_object ~request ~name:_ -> handle_init rt ~memory_object ~request);
      on_data_request =
        (fun _ ~memory_object ~request ~offset ~length ~desired_access ->
          handle_data_request rt ~memory_object ~request ~offset ~length ~desired_access);
      on_data_write =
        (fun _ ~memory_object ~offset ~data ~release ->
          handle_data_write rt ~memory_object ~offset ~data ~release);
      on_data_unlock =
        (fun _ ~memory_object ~request ~offset ~length ~desired_access ->
          handle_data_unlock rt ~memory_object ~request ~offset ~length ~desired_access);
      on_lock_completed =
        (fun _ ~memory_object ~request ~offset ~length ->
          handle_lock_completed rt ~memory_object ~request ~offset ~length);
      on_port_death = (fun _ port -> handle_port_death rt port);
      on_create =
        (fun srv ~memory_object ~request ~name ~size ->
          on_create rt srv ~memory_object ~request ~name ~size);
      on_other = (fun srv msg -> on_other rt srv msg);
    }
  in
  let srv = Mos.start ?service_threads srv_task cb in
  Mos.set_send_error_hook srv (fun () -> note_dropped_reply rt);
  (rt, srv)
