(* Shared helpers for the experiment harness. *)

open Mach
module Table = Mach_util.Table
module Rng = Mach_util.Rng
module Metrics = Mach_util.Metrics

(* Every run_system/run_cluster notes the registry snapshot of each
   kernel it booted, so any experiment's --json output can carry the
   unified "subsystem.counter" schema alongside its own metrics. *)
let collected : Metrics.snapshot list ref = ref []

let reset_collected () = collected := []
let note_registry kernel = collected := Metrics.snapshot (Kernel.metrics kernel) :: !collected

(* The merged registry snapshot of every kernel run since the last
   [reset_collected] (counters sum pointwise across hosts and runs). *)
let collected_registry () = Metrics.merge !collected

(* Run a scenario inside a fresh single-host system; the callback runs
   on a task thread. Returns the callback's result. *)
let run_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"bench-setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"bench" () in
      ignore
        (Thread.spawn task ~name:"bench.main" (fun () -> result := Some (f sys task))));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  match !result with
  | Some r -> r
  | None -> failwith "bench scenario deadlocked"

let run_cluster ~hosts ?config f =
  let cluster = Kernel.create_cluster ~hosts ?config () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"bench-setup" (fun () ->
      result := Some (f cluster));
  Engine.run cluster.Kernel.c_engine;
  Array.iter note_registry cluster.Kernel.c_kernels;
  match !result with
  | Some r -> r
  | None -> failwith "bench cluster scenario deadlocked"

(* Simulated-time stopwatch around a thunk running in the current
   simulated thread. *)
let timed engine f =
  let t0 = Engine.now engine in
  let r = f () in
  (r, Engine.now engine -. t0)

(* Trace-derived stopwatch: wrap the thunk in a named span on the
   kernel's trace and report the span's duration. Numerically equal to
   [timed] (tracing charges no simulated time) but the measurement now
   lives in the trace buffer, linked to every fault/IPC span the phase
   caused — E10 and E13 reduce their tables from exactly these spans. *)
let spanned kernel label f =
  let tr = Kernel.trace kernel in
  let was = Trace.enabled tr in
  Trace.set_enabled tr true;
  let span = Trace.span_open tr ~subsystem:"bench" ~label in
  let r = f () in
  Trace.span_close tr ~subsystem:"bench" ~label span;
  Trace.set_enabled tr was;
  match Trace.find_span tr span with
  | Some sp -> (r, sp.Trace.sp_end -. sp.Trace.sp_start)
  | None -> failwith ("bench span evicted from trace buffer: " ^ label)

let ok_exn what = function
  | Ok v -> v
  | Error _ -> failwith ("unexpected failure: " ^ what)

let us v = Printf.sprintf "%.1f" v
let us0 v = Printf.sprintf "%.0f" v
let ratio a b = if b = 0.0 then "-" else Printf.sprintf "%.2fx" (a /. b)

(* Cumulative IPC counters of a host's kernel node. Every task on a
   host shares the kernel's node, so this aggregates all send/receive
   activity of that host since boot. *)
let ipc_counters kernel =
  Metrics.values (Kernel.kctx kernel).Kctx.node.Transport.node_stats.Transport.s_group

(* Pointwise sum of several counter lists (e.g. the hosts of a
   cluster). All lists carry the same keys in the same order. *)
let sum_counters = function
  | [] -> []
  | first :: _ as lists ->
    List.map
      (fun (key, _) ->
        (key, List.fold_left (fun acc l -> acc + List.assoc key l) 0 lists))
      first

type experiment = {
  id : string;  (** e.g. "E4" *)
  title : string;
  paper_claim : string;
  run : unit -> Table.t list * (string * float) list;
      (** one execution: the tables it prints and the flat metrics
          [--json] writes and the gates read *)
}
