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

type reservation = { r_ticket : int; mutable r_for : string option }

type waiter = { w_name : string; w_wake : cpu -> unit }

and cpu = {
  c_id : int;
  mutable c_running : string option;
  mutable c_last : string;
  c_runq : waiter Queue.t;
  mutable c_reserved : reservation option;
  mutable c_busy_us : float;
}

type t = {
  eng : Engine.t;
  cpus : cpu array;
  affinity : (string, int) Hashtbl.t; (* thread name -> last CPU *)
  reservations : (int, cpu) Hashtbl.t; (* live handoff tickets *)
  pending_handoff : (string, cpu) Hashtbl.t; (* claimed, not yet entered *)
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
            c_running = None;
            c_last = "";
            c_runq = Queue.create ();
            c_reserved = None;
            c_busy_us = 0.0;
          });
    affinity = Hashtbl.create 64;
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

(* Which processor (if any) a named thread currently occupies — the
   trace's CPU-stamping hook. *)
let running_cpu t name =
  let found = ref None in
  Array.iter (fun c -> if !found = None && c.c_running = Some name then found := Some c.c_id) t.cpus;
  !found

let trace_point t label =
  match t.trace with
  | Some tr when Trace.enabled tr -> Trace.point tr ~subsystem:"sched" label
  | Some _ | None -> ()
let busy_us t = Array.fold_left (fun acc c -> acc +. c.c_busy_us) 0.0 t.cpus
let queued t = Array.fold_left (fun acc c -> acc + Queue.length c.c_runq) 0 t.cpus

let idle_cpus t =
  Array.fold_left
    (fun acc c -> if c.c_running = None && c.c_reserved = None then acc + 1 else acc)
    0 t.cpus

let free c = c.c_running = None && c.c_reserved = None

(* Oracle for the no-starvation invariant: once dispatch has run, a
   truly idle processor implies every run queue is empty (work stealing
   would otherwise have found it a thread). Violations are counted, not
   raised, so property tests can assert the counter stays zero. *)
let check_idle_invariant t =
  if Array.exists free t.cpus && queued t > 0 then
    Metrics.incr t.stats.s_idle_with_waiter

let longest_runq t =
  let best = ref None in
  Array.iter
    (fun c ->
      let len = Queue.length c.c_runq in
      if len > 0 then
        match !best with
        | Some b when Queue.length b.c_runq >= len -> ()
        | _ -> best := Some c)
    t.cpus;
  !best

(* Give an idle CPU its next thread: local queue first, then steal the
   oldest waiter from the longest queue elsewhere. Both paths are run-
   queue dispatches and count a context switch (charged by the woken
   thread). Reserved CPUs are skipped — they are held for a handoff. *)
let dispatch t cpu =
  if cpu.c_reserved = None then begin
    match Queue.take_opt cpu.c_runq with
    | Some w ->
      cpu.c_running <- Some w.w_name;
      Metrics.incr t.stats.s_switches;
      w.w_wake cpu
    | None -> (
      match longest_runq t with
      | Some victim ->
        let w = Queue.take victim.c_runq in
        cpu.c_running <- Some w.w_name;
        Metrics.incr t.stats.s_switches;
        Metrics.incr t.stats.s_steals;
        Metrics.incr t.stats.s_migrations;
        w.w_wake cpu
      | None -> check_idle_invariant t)
  end

let note_affinity t cpu name =
  cpu.c_last <- name;
  Hashtbl.replace t.affinity name cpu.c_id

(* A finished burst releases its processor. *)
let release t cpu name =
  note_affinity t cpu name;
  cpu.c_running <- None;
  dispatch t cpu

type entry = Entry_direct | Entry_queued | Entry_handoff

let take t cpu name =
  cpu.c_running <- Some name;
  Metrics.incr t.stats.s_direct_dispatches;
  if cpu.c_last = name then Metrics.incr t.stats.s_affinity_hits

let first_free t =
  let found = ref None in
  Array.iter (fun c -> if !found = None && free c then found := Some c) t.cpus;
  !found

let shortest_runq t =
  let best = ref t.cpus.(0) in
  Array.iter (fun c -> if Queue.length c.c_runq < Queue.length !best.c_runq then best := c) t.cpus;
  !best

let consume_reservation t cpu =
  (match cpu.c_reserved with
  | Some r -> Hashtbl.remove t.reservations r.r_ticket
  | None -> ());
  cpu.c_reserved <- None

let acquire t name =
  let claimed =
    match Hashtbl.find_opt t.pending_handoff name with
    | Some cpu
      when (match cpu.c_reserved with Some r -> r.r_for = Some name | None -> false) ->
      Hashtbl.remove t.pending_handoff name;
      consume_reservation t cpu;
      cpu.c_running <- Some name;
      Metrics.incr t.stats.s_handoff_claims;
      Some (cpu, Entry_handoff)
    | Some _ ->
      (* The reservation expired (or was re-issued) before we computed. *)
      Hashtbl.remove t.pending_handoff name;
      None
    | None -> None
  in
  match claimed with
  | Some r -> r
  | None -> (
    let home = Hashtbl.find_opt t.affinity name in
    match home with
    | Some h when free t.cpus.(h) ->
      take t t.cpus.(h) name;
      (t.cpus.(h), Entry_direct)
    | _ -> (
      match first_free t with
      | Some c ->
        take t c name;
        if home <> None then Metrics.incr t.stats.s_migrations;
        (c, Entry_direct)
      | None ->
        let target =
          match home with Some h -> t.cpus.(h) | None -> shortest_runq t
        in
        Metrics.incr t.stats.s_enqueues;
        let depth = queued t + 1 in
        Metrics.add t.stats.s_queue_depth_sum depth;
        Metrics.raise_to t.stats.s_queue_depth_peak depth;
        let cpu =
          Engine.suspend (fun _eng k -> Queue.add { w_name = name; w_wake = k } target.c_runq)
        in
        (cpu, Entry_queued)))

(* The context-switch cost of entering via a run queue, charged to the
   incoming thread on its new processor. *)
let charge_switch t cpu =
  if t.context_switch_us > 0.0 then begin
    Engine.sleep t.context_switch_us;
    cpu.c_busy_us <- cpu.c_busy_us +. t.context_switch_us
  end

let rec run_burst t cpu name remaining =
  let slice = if remaining > t.quantum_us then t.quantum_us else remaining in
  Engine.sleep slice;
  cpu.c_busy_us <- cpu.c_busy_us +. slice;
  let remaining = remaining -. slice in
  if remaining <= 0.0 then release t cpu name
  else if Queue.length cpu.c_runq > 0 then begin
    (* Quantum expired with local contention: preempt. Requeue at the
       tail first so the dispatch below picks the earlier waiter. *)
    Metrics.incr t.stats.s_preemptions;
    trace_point t "preempt";
    note_affinity t cpu name;
    let cpu' =
      Engine.suspend (fun _eng k ->
          Queue.add { w_name = name; w_wake = k } cpu.c_runq;
          cpu.c_running <- None;
          dispatch t cpu)
    in
    charge_switch t cpu';
    run_burst t cpu' name remaining
  end
  else run_burst t cpu name remaining

let compute t us =
  if us > 0.0 then begin
    let name = Engine.self_name () in
    let cpu, entry = acquire t name in
    trace_point t
      (match entry with
      | Entry_direct -> "enter_direct"
      | Entry_queued -> "enter_queued"
      | Entry_handoff -> "enter_handoff");
    (match entry with
    | Entry_queued -> charge_switch t cpu
    | Entry_direct | Entry_handoff -> ());
    run_burst t cpu name us
  end

(* {2 Handoff} *)

(* How long a donated processor is held for its beneficiary. Holding it
   longer than a context switch would cost more than simply switching,
   so the reservation window is exactly one context-switch time. *)
let reserve_window t = t.context_switch_us

let donate t =
  let donor = Engine.self_name () in
  match Hashtbl.find_opt t.affinity donor with
  | None -> None
  | Some h ->
    let cpu = t.cpus.(h) in
    if not (free cpu) then None
    else begin
      let ticket = t.next_ticket in
      t.next_ticket <- ticket + 1;
      let r = { r_ticket = ticket; r_for = None } in
      cpu.c_reserved <- Some r;
      Hashtbl.replace t.reservations ticket cpu;
      trace_point t "donate";
      Engine.schedule t.eng
        ~at:(Engine.now t.eng +. reserve_window t)
        (fun () ->
          match cpu.c_reserved with
          | Some r' when r'.r_ticket = ticket ->
            (match r'.r_for with
            | Some name -> Hashtbl.remove t.pending_handoff name
            | None -> ());
            consume_reservation t cpu;
            Metrics.incr t.stats.s_handoff_expired;
            dispatch t cpu
          | _ -> ());
      Some ticket
    end

let claim_handoff t ~ticket ~name =
  match Hashtbl.find_opt t.reservations ticket with
  | None -> ()
  | Some cpu -> (
    match cpu.c_reserved with
    | Some r when r.r_ticket = ticket && r.r_for = None ->
      r.r_for <- Some name;
      Hashtbl.replace t.pending_handoff name cpu
    | _ -> ())
