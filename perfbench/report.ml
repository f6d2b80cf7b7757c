(* Reduction of one run into metrics. Simulated figures repeat exactly
   for a given seed; host figures (set-up, CPU, allocation) vary from
   run to run and are reported as medians over repetitions by [Bench]. *)

module Metrics = Mach_util.Metrics

type rep = {
  setup_s : float;  (** host CPU s before the measured phase *)
  host_cpu_s : float;
  alloc_mwords : float;
  sim_elapsed_s : float;
  op_p50_us : float;
  op_p99_us : float;
  planned : int;
  completed : int;
  failed : int;  (** failed ops plus planned ops that never completed *)
  io_ops : int;
  aborts : string list;  (** exceptions that ended an episode early *)
  notes : string list;
  sim : (string * float) list;
      (** every simulated figure of the run: equal across repetitions and
          between traced and untraced runs, or the simulator is at fault *)
  layer : (string * float) list;  (** per-layer metrics *)
  trace_lost : int;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Units follow the metric names' suffixes. *)
let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_us" then "us"
  else if ends "_ratio" then "ratio"
  else if ends "_pct" then "%"
  else if ends ".mb" then "MB"
  else if ends "_avg" then "threads"
  else if String.starts_with ~prefix:"ipc.bytes_" name then "B"
  else if String.starts_with ~prefix:"vm.pages_per_" name then "pages"
  else if ends "_per_100_ops" then "per100"
  else "count"

(* The calls the workloads time, and the span kinds whose self time is
   reported (bench spans plus the kernel's own fault spans). *)
let call_kinds =
  [ "fs_read_file"; "fs_write_file"; "fs_map_file"; "read_bytes"; "write_bytes"; "touch"; "fork";
    "task_terminate"; "msg_rpc"; "map_ool"; "vm_allocate"; "vm_deallocate" ]

let span_kinds = "vm.fault" :: List.map (fun c -> "call." ^ c) call_kinds

(* Nearest-rank-interpolated percentile of a sample list; 0 when empty. *)
let percentile samples p =
  match samples with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let rank = p /. 100.0 *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Sum of "pager.<name>.<field>" over every pager of the run. *)
let pager_sum reg field =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix:"pager." k && Filename.extension k = "." ^ field then acc +. v else acc)
    0.0 reg

let layer_of (h : Harness.t) =
  let reg = h.Harness.reg in
  let g k = Metrics.get reg k in
  let extra k = match Hashtbl.find_opt h.Harness.extra k with Some r -> !r | None -> 0.0 in
  let reads, writes, bytes = h.Harness.disk in
  let sim_layer =
    [
      ("sched.switches", g "sched.switches");
      ("sched.enqueues", g "sched.enqueues");
      ("sched.preemptions", g "sched.preemptions");
      ("sched.steals", g "sched.steals");
      ("sched.handoff_claims", g "sched.handoff_claims");
      ("sched.util_pct", 100.0 *. ratio h.Harness.busy_us h.Harness.cpu_capacity_us);
      ("sched.runq_depth_avg", ratio (g "sched.queue_depth_sum") (g "sched.enqueues"));
      ("chaos.dropped", g "chaos.dropped");
      ("chaos.reordered", g "chaos.reordered");
      ("disk.reads", float_of_int reads);
      ("disk.writes", float_of_int writes);
      ("disk.mb", float_of_int bytes /. 1e6);
      ("net.messages", g "net.messages");
      ("net.mb", g "net.bytes_carried" /. 1e6);
      ("phys.free_frames_min", if h.Harness.free_min = max_int then 0.0 else float_of_int h.Harness.free_min);
      ("ipc.msgs_sent", g "ipc.msgs_sent");
      ("ipc.rpc_fastpath_ratio", ratio (g "ipc.rpc_fastpath") (g "ipc.msgs_sent"));
      ("ipc.handoffs", g "ipc.handoffs");
      ("ipc.bytes_copied", g "ipc.bytes_copied");
      ("ipc.bytes_mapped", g "ipc.bytes_mapped");
      ("ipc.lazy_copyout_faults", g "ipc.lazy_copyout_faults");
      ("chan.data_pkts", g "chan.data_pkts");
      ("chan.retransmits", g "chan.retransmits");
      ("chan.retransmit_ratio", ratio (g "chan.retransmits") (g "chan.data_pkts"));
      ("chan.dup_dropped", g "chan.dup_dropped");
      ("vm.faults", g "vm.faults");
      ("vm.fast_fault_ratio", ratio (g "vm.fast_faults") (g "vm.faults"));
      ("vm.hint_hit_ratio", ratio (g "vm.hint_hits") (g "vm.hint_hits" +. g "vm.hint_misses"));
      ("vm.slow_busy", g "vm.slow_busy");
      ("vm.slow_error", g "vm.slow_error");
      ("vm.zero_fill", g "vm.zero_fill");
      ("vm.cow_faults", g "vm.cow_faults");
      ("vm.cow_steal_ratio", ratio (g "vm.cow_steals") (g "vm.cow_faults"));
      ("vm.cow_batched", g "vm.cow_batched");
      ("vm.chain_depth_peak", extra "vm.chain_depth_peak");
      ("vm.collapses", g "vm.collapses");
      ("vm.pageins", g "vm.pageins");
      ("vm.pages_per_request", ratio (g "vm.pageins") (g "vm.data_requests"));
      ("vm.pageouts", g "vm.pageouts");
      ("vm.pages_per_data_write", ratio (g "vm.pageouts") (g "vm.data_writes"));
      ("vm.laundered", g "vm.laundered");
      ("vm.reactivations", g "vm.reactivations");
      ("pager.requests", pager_sum reg "requests");
      ("pager.pages_served", pager_sum reg "pages_served");
      ("pager.writes", pager_sum reg "writes");
      ("pager.dropped_replies", pager_sum reg "dropped_replies");
      ("pager.unavailable", pager_sum reg "unavailable");
      ("netmem.invalidations", extra "netmem.invalidations");
      ("netmem.grants", extra "netmem.grants");
      ("netmem.inval_per_100_ops", 100.0 *. ratio (extra "netmem.invalidations") (extra "netmem.accesses"));
    ]
  in
  let calls =
    List.concat_map
      (fun c ->
        let samples = match Hashtbl.find_opt h.Harness.calls c with Some l -> !l | None -> [] in
        [
          ("call." ^ c ^ ".p50_us", percentile samples 50.0);
          ("call." ^ c ^ ".p99_us", percentile samples 99.0);
          ("call." ^ c ^ ".count", float_of_int (List.length samples));
        ])
      call_kinds
  in
  sim_layer @ calls

(* Trace-derived layer figures, available from a traced run only. *)
let trace_layer (d : Harness.drain) =
  let faults = match Hashtbl.find_opt d.Harness.durations "vm.fault" with Some l -> !l | None -> [] in
  [ ("vm.fault_p50_us", percentile faults 50.0); ("vm.fault_p95_us", percentile faults 95.0) ]
  @ List.map
      (fun k -> ("span." ^ k ^ ".self_us", match Hashtbl.find_opt d.Harness.self_us k with Some r -> !r | None -> 0.0))
      span_kinds

let of_repetition (h : Harness.t) =
  let unfinished = max 0 (h.Harness.planned - h.Harness.completed) in
  let failed = h.Harness.failed + unfinished in
  let op_p50_us = percentile h.Harness.lat 50.0 and op_p99_us = percentile h.Harness.lat 99.0 in
  let layer = layer_of h in
  let sim =
    [
      ("sim_elapsed_us", h.Harness.sim_elapsed_us);
      ("sim_op_p50_us", op_p50_us);
      ("sim_op_p99_us", op_p99_us);
      ("ops_completed", float_of_int h.Harness.completed);
      ("ops_failed", float_of_int failed);
      ("io_ops", float_of_int h.Harness.io_ops);
    ]
    @ List.map (fun (k, v) -> ("reg." ^ k, v)) h.Harness.reg
    @ layer
  in
  {
    setup_s = h.Harness.setup_s;
    host_cpu_s = h.Harness.host_cpu_s;
    alloc_mwords = h.Harness.alloc_words /. 1e6;
    sim_elapsed_s = h.Harness.sim_elapsed_us /. 1e6;
    op_p50_us;
    op_p99_us;
    planned = h.Harness.planned;
    completed = h.Harness.completed;
    failed;
    io_ops = h.Harness.io_ops;
    aborts =
      List.rev h.Harness.aborts
      @ (if unfinished > 0 && h.Harness.aborts = [] then
           [ Printf.sprintf "%d workload ops still blocked when the engine went idle" unfinished ]
         else []);
    notes = List.rev h.Harness.notes;
    sim;
    layer = (if h.Harness.traced then layer @ trace_layer h.Harness.drain else layer);
    trace_lost = h.Harness.drain.Harness.lost;
  }
