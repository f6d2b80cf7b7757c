(** Processor scheduler: per-CPU run queues over the discrete-event
    engine.

    One [t] models the processors of one simulated host. A thread
    occupies a processor only while inside {!compute}; the burst is
    sliced into quanta and preempted at slice boundaries when the run
    queue is contended. Placement is soft-affine (a thread prefers the
    processor it last ran on), idle processors are taken directly, and
    a processor going idle steals the oldest waiter from the longest
    run queue — so no processor idles while a thread is runnable.

    Run-queue dispatches (including preemption resumes) charge the
    configured context-switch time to the incoming thread; acquiring an
    idle processor is free.

    Handoff scheduling: {!donate} reserves the caller's processor for a
    blocked-receiver IPC beneficiary; {!claim_handoff} (from the
    receive path) binds the reservation to the woken thread, whose next
    {!compute} then enters with no run-queue round trip and no
    context-switch charge. Unclaimed reservations expire after one
    context-switch window and the processor is re-dispatched. *)

type t

module Metrics = Mach_util.Metrics

(** The scheduler's counters, one group per host (keys ["sched.*"]). *)
type stats = {
  s_group : Metrics.group;
  s_switches : Metrics.counter;  (** run-queue dispatches (each charged context-switch time) *)
  s_preemptions : Metrics.counter;  (** quantum expiries that yielded the processor *)
  s_migrations : Metrics.counter;  (** bursts begun on a different CPU than the thread's last *)
  s_steals : Metrics.counter;  (** idle CPUs that took a waiter from another run queue *)
  s_handoff_claims : Metrics.counter;  (** bursts entered on a donated processor, charge-free *)
  s_handoff_expired : Metrics.counter;  (** donations the beneficiary never claimed *)
  s_affinity_hits : Metrics.counter;  (** direct acquires of the thread's previous CPU *)
  s_direct_dispatches : Metrics.counter;  (** acquires that found an idle CPU (no queueing) *)
  s_enqueues : Metrics.counter;  (** acquires that had to wait on a run queue *)
  s_queue_depth_peak : Metrics.counter;  (** max total queued threads at any enqueue *)
  s_queue_depth_sum : Metrics.counter;  (** summed depth at enqueue (avg = sum/enqueues) *)
  s_idle_with_waiter : Metrics.counter;  (** invariant oracle; stays 0 unless stealing is broken *)
}

val create :
  Engine.t -> cpus:int -> ?quantum_us:float -> context_switch_us:float -> unit -> t
(** [quantum_us] defaults to 10ms of simulated time. *)

val compute : t -> float -> unit
(** Occupy one processor for the given number of simulated
    microseconds (plus any queueing delay and context-switch charges).
    Must be called from inside a simulated thread; bursts of zero or
    negative length return immediately. *)

val donate : t -> int option
(** Reserve the calling thread's processor (the one it last ran on) for
    a handoff, if it is currently idle. Returns a ticket for
    {!claim_handoff}, or [None] if the processor is busy. *)

val claim_handoff : t -> ticket:int -> id:int -> unit
(** Bind a live reservation to thread [id] ({!Engine.self_id}); its
    next {!compute} enters on the donated processor without queueing or
    switch charge. Expired or unknown tickets are ignored. *)

val cpu_count : t -> int
val stats : t -> stats

val set_trace : t -> Trace.t option -> unit
(** Wire the host's trace: acquire entries ([enter_direct] /
    [enter_queued] / [enter_handoff]), preemptions and donations emit
    "sched" points attributed to the computing fiber's current span. *)

val running_cpu : t -> int -> int
(** The processor thread [id] ({!Engine.self_id}) currently occupies,
    or [-1] when it is not running — the trace's CPU-stamping hook. *)

val busy_us : t -> float
(** Total processor-busy time accumulated across all CPUs (compute
    slices plus charged context switches). Utilisation over a window of
    elapsed time [e] on [n] CPUs is [busy_us / (n * e)]. *)

val queued : t -> int
(** Threads currently waiting on run queues. *)

val idle_cpus : t -> int
