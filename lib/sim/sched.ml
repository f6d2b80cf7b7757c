(* Processor scheduler for the discrete-event engine.

   A [t] models the processors of one host. Simulated threads do not
   occupy a CPU while blocked on I/O or IPC; they occupy one only for
   the duration of a compute burst ([compute]). A burst:

   - acquires a processor: the thread's *home* CPU (soft affinity: the
     one it last ran on) if idle, else any idle CPU (a migration), else
     it enqueues on its home CPU's run queue and blocks;
   - runs in quantum-sized slices; at each slice boundary, if the run
     queue of its CPU is non-empty, the burst is preempted: it requeues
     itself at the tail and the head waiter is dispatched;
   - on completion, dispatches the next local waiter, or *steals* the
     oldest waiter from the longest other run queue, so no processor
     idles while any thread is runnable.

   Every dispatch off a run queue (and every preemption resume) charges
   [context_switch_us] to the incoming thread; taking an idle processor
   directly is free — the idle loop has nothing to save.

   Handoff scheduling (Mach's message/scheduling duality): a sender
   that just delivered to a blocked receiver may [donate] its processor.
   The CPU is held in reserve — invisible to other acquirers — for one
   context-switch-time window; the receiver claims it via
   [claim_handoff] + its next [compute], entering without a run-queue
   round trip and without a context-switch charge. An unclaimed
   reservation expires and the CPU is re-dispatched. *)

module Metrics = Mach_util.Metrics

type stats = {
  s_group : Metrics.group;
  s_switches : Metrics.counter;
  s_preemptions : Metrics.counter;
  s_migrations : Metrics.counter;
  s_steals : Metrics.counter;
  s_handoff_claims : Metrics.counter;
  s_handoff_expired : Metrics.counter;
  s_affinity_hits : Metrics.counter;
  s_direct_dispatches : Metrics.counter;
  s_enqueues : Metrics.counter;
  s_queue_depth_peak : Metrics.counter;
  s_queue_depth_sum : Metrics.counter;
  s_idle_with_waiter : Metrics.counter;
}

let create_stats () =
  let s_group = Metrics.group () in
  let c = Metrics.counter s_group in
  let s_switches = c "switches" in
  let s_preemptions = c "preemptions" in
  let s_migrations = c "migrations" in
  let s_steals = c "steals" in
  let s_handoff_claims = c "handoff_claims" in
  let s_handoff_expired = c "handoff_expired" in
  let s_affinity_hits = c "affinity_hits" in
  let s_direct_dispatches = c "direct_dispatches" in
  let s_enqueues = c "enqueues" in
  let s_queue_depth_peak = c "queue_depth_peak" in
  let s_queue_depth_sum = c "queue_depth_sum" in
  let s_idle_with_waiter = c "idle_with_waiter" in
  { s_group; s_switches; s_preemptions; s_migrations; s_steals; s_handoff_claims;
    s_handoff_expired; s_affinity_hits; s_direct_dispatches; s_enqueues; s_queue_depth_peak;
    s_queue_depth_sum; s_idle_with_waiter }

(* Threads are keyed by their engine id ({!Engine.self_id}); [-1]
   means "no thread" in every int field below. *)
let no_thread = -1

type reservation = { r_ticket : int; mutable r_for : int }

(* A thread parked on a run queue; its dispatcher stores the processor
   it hands over in [w_cpu] before unparking it. *)
type waiter = { w_id : int; w_fib : Engine.fiber; w_park : int; mutable w_cpu : cpu }

and cpu = {
  c_id : int;
  mutable c_running : int;
  mutable c_last : int;
  c_runq : waiter Queue.t;
  mutable c_reserved : reservation option;
}

type t = {
  eng : Engine.t;
  cpus : cpu array;
  busy : float array; (* per-CPU busy time, unboxed *)
  mutable affinity : int array; (* thread id -> last CPU, or -1 *)
  reservations : (int, cpu) Hashtbl.t; (* live handoff tickets *)
  pending_handoff : (int, cpu) Hashtbl.t; (* thread id -> claimed, not yet entered *)
  mutable next_ticket : int;
  quantum_us : float;
  context_switch_us : float;
  stats : stats;
  mutable trace : Trace.t option;
}

let create eng ~cpus ?(quantum_us = 10_000.0) ~context_switch_us () =
  if cpus < 1 then invalid_arg "Sched.create: need at least one cpu";
  if quantum_us <= 0.0 then invalid_arg "Sched.create: quantum must be positive";
  {
    eng;
    cpus =
      Array.init cpus (fun i ->
          {
            c_id = i;
            c_running = no_thread;
            c_last = no_thread;
            c_runq = Queue.create ();
            c_reserved = None;
          });
    busy = Array.make cpus 0.0;
    affinity = Array.make 64 (-1);
    reservations = Hashtbl.create 8;
    pending_handoff = Hashtbl.create 8;
    next_ticket = 0;
    quantum_us;
    context_switch_us;
    stats = create_stats ();
    trace = None;
  }

let cpu_count t = Array.length t.cpus
let stats t = t.stats
let set_trace t tr = t.trace <- tr

let home t id = if id >= 0 && id < Array.length t.affinity then t.affinity.(id) else -1

let set_home t id cpu =
  if id >= Array.length t.affinity then begin
    let bigger = Array.make (max (id + 1) (2 * Array.length t.affinity)) (-1) in
    Array.blit t.affinity 0 bigger 0 (Array.length t.affinity);
    t.affinity <- bigger
  end;
  t.affinity.(id) <- cpu

(* Which processor thread [id] currently occupies, or -1 — the trace's
   CPU-stamping hook. *)
let running_cpu t id =
  let n = Array.length t.cpus and i = ref 0 in
  while !i < n && t.cpus.(!i).c_running <> id do
    incr i
  done;
  if id <> no_thread && !i < n then !i else -1


let trace_point t label =
  match t.trace with
  | Some tr when Trace.enabled tr -> Trace.point tr ~subsystem:"sched" label
  | Some _ | None -> ()

(* Inlined, so the burst's float reaches the array unboxed. *)
let[@inline] add_busy t cpu us = t.busy.(cpu.c_id) <- t.busy.(cpu.c_id) +. us
let busy_us t = Array.fold_left ( +. ) 0.0 t.busy
let queued t = Array.fold_left (fun acc c -> acc + Queue.length c.c_runq) 0 t.cpus

let free c = c.c_running = no_thread && c.c_reserved = None

let first_free t =
  let n = Array.length t.cpus and i = ref 0 in
  while !i < n && not (free t.cpus.(!i)) do
    incr i
  done;
  if !i < n then !i else -1

let idle_cpus t = Array.fold_left (fun acc c -> if free c then acc + 1 else acc) 0 t.cpus

(* Oracle for the no-starvation invariant: once dispatch has run, a
   truly idle processor implies every run queue is empty (work stealing
   would otherwise have found it a thread). Violations are counted, not
   raised, so property tests can assert the counter stays zero. *)
let check_idle_invariant t =
  if first_free t >= 0 && queued t > 0 then
    Metrics.incr t.stats.s_idle_with_waiter

(* The CPU with the longest non-empty run queue (lowest id on ties), or
   -1 when every queue is empty. *)
let longest_runq t =
  let best = ref (-1) and best_len = ref 0 in
  for i = 0 to Array.length t.cpus - 1 do
    let len = Queue.length t.cpus.(i).c_runq in
    if len > !best_len then begin
      best := i;
      best_len := len
    end
  done;
  !best

(* Queue the calling thread [id] on [cpu]'s run queue, to park. *)
let enqueue cpu id =
  let fib = Engine.self () in
  let w = { w_id = id; w_fib = fib; w_park = Engine.ticket fib; w_cpu = cpu } in
  Queue.add w cpu.c_runq;
  w

let hand_over t cpu w =
  cpu.c_running <- w.w_id;
  Metrics.incr t.stats.s_switches;
  w.w_cpu <- cpu;
  Engine.unpark w.w_fib w.w_park

(* Give an idle CPU its next thread: local queue first, then steal the
   oldest waiter from the longest queue elsewhere. Both paths are run-
   queue dispatches and count a context switch (charged by the woken
   thread). Reserved CPUs are skipped — they are held for a handoff. *)
let dispatch t cpu =
  if cpu.c_reserved = None then begin
    if not (Queue.is_empty cpu.c_runq) then hand_over t cpu (Queue.take cpu.c_runq)
    else
      match longest_runq t with
      | -1 -> check_idle_invariant t
      | victim ->
        Metrics.incr t.stats.s_steals;
        Metrics.incr t.stats.s_migrations;
        hand_over t cpu (Queue.take t.cpus.(victim).c_runq)
  end

let note_affinity t cpu id =
  cpu.c_last <- id;
  set_home t id cpu.c_id

(* A finished burst releases its processor. *)
let release t cpu id =
  note_affinity t cpu id;
  cpu.c_running <- no_thread;
  dispatch t cpu

let take t cpu id =
  cpu.c_running <- id;
  Metrics.incr t.stats.s_direct_dispatches;
  if cpu.c_last = id then Metrics.incr t.stats.s_affinity_hits

let shortest_runq t =
  let best = ref t.cpus.(0) in
  Array.iter (fun c -> if Queue.length c.c_runq < Queue.length !best.c_runq then best := c) t.cpus;
  !best

let consume_reservation t cpu =
  (match cpu.c_reserved with
  | Some r -> Hashtbl.remove t.reservations r.r_ticket
  | None -> ());
  cpu.c_reserved <- None

(* A handoff claimed by [id] whose reservation is still live. *)
let claimed_handoff t id =
  if Hashtbl.length t.pending_handoff = 0 then None
  else
    match Hashtbl.find_opt t.pending_handoff id with
    | Some cpu when (match cpu.c_reserved with Some r -> r.r_for = id | None -> false) ->
      Hashtbl.remove t.pending_handoff id;
      consume_reservation t cpu;
      cpu.c_running <- id;
      Metrics.incr t.stats.s_handoff_claims;
      Some cpu
    | Some _ ->
      (* The reservation expired (or was re-issued) before we computed. *)
      Hashtbl.remove t.pending_handoff id;
      None
    | None -> None

(* The context-switch cost of entering via a run queue, charged to the
   incoming thread on its new processor. *)
let charge_switch t cpu =
  if t.context_switch_us > 0.0 then begin
    Engine.sleep t.context_switch_us;
    add_busy t cpu t.context_switch_us
  end

(* Take a processor for thread [id], tracing how it entered; a thread
   that waited on a run queue pays the switch into it. *)
let acquire t id =
  match claimed_handoff t id with
  | Some cpu ->
    trace_point t "enter_handoff";
    cpu
  | None -> (
    let home = home t id in
    if home >= 0 && free t.cpus.(home) then begin
      take t t.cpus.(home) id;
      trace_point t "enter_direct";
      t.cpus.(home)
    end
    else
      match first_free t with
      | -1 ->
        let target = if home >= 0 then t.cpus.(home) else shortest_runq t in
        Metrics.incr t.stats.s_enqueues;
        let depth = queued t + 1 in
        Metrics.add t.stats.s_queue_depth_sum depth;
        Metrics.raise_to t.stats.s_queue_depth_peak depth;
        let w = enqueue target id in
        Engine.park ();
        trace_point t "enter_queued";
        charge_switch t w.w_cpu;
        w.w_cpu
      | c ->
        take t t.cpus.(c) id;
        if home >= 0 then Metrics.incr t.stats.s_migrations;
        trace_point t "enter_direct";
        t.cpus.(c))

(* A burst runs in quantum-sized slices on [cpu]; at each slice boundary
   with local waiters it is preempted, requeues at the tail, and resumes
   (after a switch) on whichever processor dispatch hands it. A loop
   over local refs, so the remaining time is never boxed. *)
let compute t us =
  if us > 0.0 then begin
    let id = Engine.self_id () in
    if id < 0 then invalid_arg "Sched.compute: not inside a simulated thread";
    let cpu = ref (acquire t id) and remaining = ref us in
    while !remaining > 0.0 do
      let slice = if !remaining > t.quantum_us then t.quantum_us else !remaining in
      Engine.sleep slice;
      add_busy t !cpu slice;
      remaining := !remaining -. slice;
      if !remaining <= 0.0 then release t !cpu id
      else if Queue.length !cpu.c_runq > 0 then begin
        (* Quantum expired with local contention: preempt. Requeue at
           the tail first so the dispatch below picks the earlier
           waiter, then park; no event runs before the park, so whoever
           dispatch woke resumes only after it. *)
        Metrics.incr t.stats.s_preemptions;
        trace_point t "preempt";
        note_affinity t !cpu id;
        let w = enqueue !cpu id in
        !cpu.c_running <- no_thread;
        dispatch t !cpu;
        Engine.park ();
        charge_switch t w.w_cpu;
        cpu := w.w_cpu
      end
    done
  end

(* {2 Handoff} *)

(* How long a donated processor is held for its beneficiary. Holding it
   longer than a context switch would cost more than simply switching,
   so the reservation window is exactly one context-switch time. *)
let reserve_window t = t.context_switch_us

let donate t =
  match home t (Engine.self_id ()) with
  | -1 -> None
  | h ->
    let cpu = t.cpus.(h) in
    if not (free cpu) then None
    else begin
      let ticket = t.next_ticket in
      t.next_ticket <- ticket + 1;
      let r = { r_ticket = ticket; r_for = no_thread } in
      cpu.c_reserved <- Some r;
      Hashtbl.replace t.reservations ticket cpu;
      trace_point t "donate";
      Engine.schedule t.eng
        ~at:(Engine.now t.eng +. reserve_window t)
        (fun () ->
          match cpu.c_reserved with
          | Some r' when r'.r_ticket = ticket ->
            if r'.r_for <> no_thread then Hashtbl.remove t.pending_handoff r'.r_for;
            consume_reservation t cpu;
            Metrics.incr t.stats.s_handoff_expired;
            dispatch t cpu
          | _ -> ());
      Some ticket
    end

let claim_handoff t ~ticket ~id =
  match Hashtbl.find_opt t.reservations ticket with
  | None -> ()
  | Some cpu -> (
    match cpu.c_reserved with
    | Some r when r.r_ticket = ticket && r.r_for = no_thread ->
      r.r_for <- id;
      Hashtbl.replace t.pending_handoff id cpu
    | _ -> ())
