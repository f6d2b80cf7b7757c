(* Shared machinery of the system benchmark: op accounting, bench spans
   around calls into the system, and the trace drain that turns spans
   into self times.

   [t] is one repetition of a workload: several episodes, each
   a fresh system built from its own seed. An episode has two phases.
   Set-up (boot, pagers, inputs) is timed on the host clock only. The
   measured phase runs from [start] to [finish], both called from a
   simulated thread; everything in between is charged to host CPU,
   host allocation and simulated time. A repetition sums its episodes'
   measured phases. *)

open Mach
module Metrics = Mach_util.Metrics

(* Host clocks. Process CPU time, not wall time: on a shared box wall
   time for the same run spreads far more. *)
let cpu_s () = Sys.time ()
let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* {2 Trace drain}

   The trace ring keeps the newest events only, so a long run is
   drained while it goes: every bench call checks how far the ring has
   advanced since the last drain and folds the new events into running
   per-span-kind totals before they can be overwritten. *)

type open_span = {
  o_key : string;
  o_start : float;
  o_parent : int;
  mutable o_kids : (float * float) list;  (* closed child intervals *)
}

type drain = {
  mutable tr : Trace.t option;  (* the current episode's trace *)
  mutable next_seq : int;  (* first event not yet folded in *)
  mutable lost : int;  (* events overwritten before they were drained *)
  opens : (int, open_span) Hashtbl.t;
  self_us : (string, float ref) Hashtbl.t;  (* span kind -> summed self time *)
  durations : (string, float list ref) Hashtbl.t;  (* span kind -> durations *)
}

(* Length of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  fst
    (List.fold_left
       (fun (total, last_end) (s, e) ->
         let s = Float.max s last_end and e = Float.min e hi in
         if e > s then (total +. (e -. s), e) else (total, last_end))
       (0.0, lo) (List.sort compare intervals))

let push tbl key v =
  match Hashtbl.find_opt tbl key with Some l -> l := v :: !l | None -> Hashtbl.replace tbl key (ref [ v ])

let fold_event d (ev : Trace.event) =
  match ev.Trace.ev_kind with
  | Trace.Open ->
    Hashtbl.replace d.opens ev.Trace.ev_span
      { o_key = ev.Trace.ev_sub ^ "." ^ ev.Trace.ev_label; o_start = ev.Trace.ev_time;
        o_parent = ev.Trace.ev_parent; o_kids = [] }
  | Trace.Close -> (
    match Hashtbl.find_opt d.opens ev.Trace.ev_span with
    | None -> ()
    | Some o ->
      Hashtbl.remove d.opens ev.Trace.ev_span;
      let lo = o.o_start and hi = ev.Trace.ev_time in
      let self = hi -. lo -. covered ~lo ~hi o.o_kids in
      (match Hashtbl.find_opt d.self_us o.o_key with
      | Some r -> r := !r +. self
      | None -> Hashtbl.replace d.self_us o.o_key (ref self));
      push d.durations o.o_key (hi -. lo);
      match Hashtbl.find_opt d.opens o.o_parent with
      | Some p -> p.o_kids <- (lo, hi) :: p.o_kids
      | None -> ())
  | Trace.Point -> ()

let drain_now d =
  Option.iter
    (fun tr ->
      List.iter
        (fun (ev : Trace.event) ->
          if ev.Trace.ev_seq >= d.next_seq then begin
            d.lost <- d.lost + (ev.Trace.ev_seq - d.next_seq);
            fold_event d ev;
            d.next_seq <- ev.Trace.ev_seq + 1
          end)
        (Trace.events tr))
    d.tr

let maybe_drain d =
  match d.tr with
  | Some tr when Trace.recorded tr - d.next_seq > Trace.capacity tr / 4 -> drain_now d
  | Some _ | None -> ()

(* {2 A repetition} *)

type t = {
  traced : bool;
  (* The current episode. *)
  mutable engine : Engine.t option;
  mutable kernels : Ktypes.kernel array;
  mutable disks : Disk.t list;  (* every disk of the episode, paging disks included *)
  mutable setup_t0 : float;  (* host CPU time when the episode's set-up began *)
  mutable measuring : bool;
  mutable host_m0 : float;
  mutable alloc0 : float;
  mutable sim_t0 : float;
  mutable reg0 : Metrics.snapshot array;
  mutable io0 : int;
  mutable disk0 : int * int * int;  (* reads, writes, bytes *)
  mutable busy0 : float;
  (* Totals over the repetition's measured phases. *)
  mutable setup_s : float;
  mutable host_cpu_s : float;
  mutable alloc_words : float;
  mutable sim_elapsed_us : float;
  mutable cpu_capacity_us : float;  (* processors x simulated elapsed *)
  mutable reg : Metrics.snapshot;  (* registry deltas, summed *)
  mutable io_ops : int;
  mutable disk : int * int * int;
  mutable busy_us : float;
  mutable free_min : int;
  extra : (string, float ref) Hashtbl.t;  (* workload-specific layer figures *)
  mutable lat : float list;  (* simulated µs per completed unit op *)
  calls : (string, float list ref) Hashtbl.t;  (* call kind -> simulated µs *)
  mutable planned : int;
  mutable completed : int;
  mutable failed : int;
  mutable notes : string list;  (* first failure messages, newest first *)
  mutable aborts : string list;
  drain : drain;
}

let create ~traced =
  {
    traced; engine = None; kernels = [||]; disks = []; setup_t0 = 0.0; measuring = false;
    host_m0 = 0.0; alloc0 = 0.0; sim_t0 = 0.0; reg0 = [||]; io0 = 0; disk0 = (0, 0, 0);
    busy0 = 0.0; setup_s = 0.0; host_cpu_s = 0.0; alloc_words = 0.0;
    sim_elapsed_us = 0.0; cpu_capacity_us = 0.0; reg = []; io_ops = 0; disk = (0, 0, 0);
    busy_us = 0.0; free_min = max_int; extra = Hashtbl.create 8; lat = []; calls = Hashtbl.create 16;
    planned = 0; completed = 0; failed = 0; notes = []; aborts = [];
    drain =
      { tr = None; next_seq = 0; lost = 0; opens = Hashtbl.create 64; self_us = Hashtbl.create 16;
        durations = Hashtbl.create 16 };
  }

(* Make a freshly booted system the repetition's current episode. *)
let attach h ~engine ~kernels ~disks =
  let paging = Array.to_list (Array.map (fun k -> k.Ktypes.k_paging_disk) kernels) in
  h.engine <- Some engine;
  h.kernels <- kernels;
  h.disks <- disks @ paging

let engine h = Option.get h.engine
let trace h = Kernel.trace h.kernels.(0)
let now h = Engine.now (engine h)
let snapshots h = Array.map (fun k -> Metrics.snapshot (Kernel.metrics k)) h.kernels
let disk_ops h = List.fold_left (fun a d -> a + Disk.ops d) 0 h.disks

let disk_totals h =
  List.fold_left
    (fun (r, w, b) d -> (r + Disk.reads d, w + Disk.writes d, b + Disk.bytes_read d + Disk.bytes_written d))
    (0, 0, 0) h.disks

let busy h = Array.fold_left (fun a k -> a +. Mach_sim.Sched.busy_us k.Ktypes.k_sched) 0.0 h.kernels
let cpus h = Array.fold_left (fun a k -> a + Mach_sim.Sched.cpu_count k.Ktypes.k_sched) 0 h.kernels

let note h msg = if List.length h.notes < 8 then h.notes <- msg :: h.notes

let fail h msg =
  h.failed <- h.failed + 1;
  note h msg

let update_extra h name f v =
  match Hashtbl.find_opt h.extra name with Some r -> r := f !r v | None -> Hashtbl.replace h.extra name (ref v)

let add_extra h name v = update_extra h name ( +. ) v

(* Begin the episode's measured phase; [planned] is the number of unit
   ops it will attempt, so ops an aborted run never finished count as
   failed. *)
let start h ~planned =
  h.planned <- h.planned + planned;
  h.reg0 <- snapshots h;
  h.io0 <- disk_ops h;
  h.disk0 <- disk_totals h;
  h.busy0 <- busy h;
  h.sim_t0 <- now h;
  if h.traced then begin
    let tr = trace h in
    Trace.set_enabled tr true;
    h.drain.tr <- Some tr;
    h.drain.next_seq <- Trace.recorded tr
  end;
  h.measuring <- true;
  h.setup_s <- h.setup_s +. (cpu_s () -. h.setup_t0);
  (* Start from a collected heap, so the phase does not pay for set-up's
     garbage. *)
  Gc.full_major ();
  h.alloc0 <- alloc_words ();
  h.host_m0 <- cpu_s ()

let finish h =
  if h.measuring then begin
    h.host_cpu_s <- h.host_cpu_s +. (cpu_s () -. h.host_m0);
    h.alloc_words <- h.alloc_words +. (alloc_words () -. h.alloc0);
    h.measuring <- false;
    let elapsed = now h -. h.sim_t0 in
    h.sim_elapsed_us <- h.sim_elapsed_us +. elapsed;
    h.cpu_capacity_us <- h.cpu_capacity_us +. (float_of_int (cpus h) *. elapsed);
    let after = snapshots h in
    let deltas = Array.to_list (Array.mapi (fun i after -> Metrics.delta ~before:h.reg0.(i) ~after) after) in
    (* A high-water mark, not a count: the repetition keeps the highest. *)
    Array.iter (fun s -> update_extra h "vm.chain_depth_peak" Float.max (Metrics.get s "vm.chain_depth_peak")) after;
    h.reg <- Metrics.merge (h.reg :: deltas);
    h.io_ops <- h.io_ops + (disk_ops h - h.io0);
    let r0, w0, b0 = h.disk0 and r1, w1, b1 = disk_totals h and r, w, b = h.disk in
    h.disk <- (r + r1 - r0, w + w1 - w0, b + b1 - b0);
    h.busy_us <- h.busy_us +. (busy h -. h.busy0);
    if h.traced then begin
      drain_now h.drain;
      Trace.set_enabled (trace h) false;
      h.drain.tr <- None
    end
  end

(* A timed call into the system, wrapped in a bench span: simulated
   µs land in [calls] under [name] ("fs_read_file", "msg_rpc", ...). *)
let call h name f =
  let tr = trace h in
  let t0 = now h in
  let sp = Trace.span_open tr ~subsystem:"call" ~label:name in
  let r = f () in
  Trace.span_close tr ~subsystem:"call" ~label:name sp;
  if h.measuring then begin
    push h.calls name (now h -. t0);
    maybe_drain h.drain
  end;
  r

(* One unit op: [f] returns [Ok ()] or a failure description. *)
let op h f =
  let t0 = now h in
  let r = f () in
  h.completed <- h.completed + 1;
  h.lat <- (now h -. t0) :: h.lat;
  Array.iter (fun k -> h.free_min <- min h.free_min (Kernel.free_frames k)) h.kernels;
  match r with Ok () -> () | Error msg -> fail h msg

(* Drive the episode's engine to quiescence and close its measured
   phase. An exception escaping a simulated thread aborts the episode;
   ops it never finished show as [completed] falling short of
   [planned]. *)
let run h =
  (match Engine.run (engine h) with
  | () -> ()
  | exception e -> h.aborts <- Printexc.to_string e :: h.aborts);
  finish h;
  h.engine <- None
