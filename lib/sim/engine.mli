(** Deterministic discrete-event simulation engine.

    Simulated threads are OCaml-5 effect-based coroutines: a thread is an
    ordinary function that may call the blocking operations of this module
    ({!sleep}) and of the synchronisation modules ({!Ivar}, {!Mailbox},
    {!Semaphore}, {!Waitq}). Blocking parks the coroutine until a
    wake-up event resumes it; the engine runs ready events in (time,
    sequence) order, so a run is fully deterministic.

    Simulated time is in microseconds (float). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in microseconds. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] schedules a new simulated thread to start at the current
    time. May be called from inside or outside a running thread. An
    uncaught exception in [f] aborts the whole run ({!run} re-raises). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Low-level: run a callback (not a coroutine — it must not block) at the
    given absolute time. *)

val schedule_arg : t -> at:float -> arg:int -> (unit -> unit) -> unit
(** {!schedule} with an int payload that the callback reads back with
    {!event_arg}: one callback allocated once can serve many events and
    still tell them apart (e.g. a timer that checks a generation). *)

val event_arg : t -> int
(** The [arg] of the event being run now ([0] for events scheduled
    without one). Only meaningful inside a {!schedule_arg} callback. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty or simulated time would exceed
    [until]. Returns normally on quiescence; re-raises the first exception
    escaping a thread. *)

val live : t -> int
(** Number of spawned threads that have not yet finished. If [run]
    returned and [live t > 0], those threads are blocked forever —
    a deadlock or a wait on an external wake-up that never came. *)

val blocked_names : t -> string list
(** Names of currently-blocked threads — parked in {!sleep} or any
    synchronisation wait (diagnostic, sorted). *)

val self_id : unit -> int
(** Id of the calling simulated thread: unique per engine, dense from
    0 in spawn order. [-1] outside a simulated thread (e.g. in a
    {!schedule} timer callback). Reads the engine's record of the
    fiber it is resuming; allocates nothing. *)

val self_name : unit -> string
(** Name of the calling simulated thread. Raises [Invalid_argument]
    outside one. *)

val self_name_opt : unit -> string option
(** Like {!self_name}, but [None] when called outside a simulated
    thread (e.g. from a {!schedule} timer callback) instead of
    raising. *)

val sleep : float -> unit
(** Block the calling thread for the given number of simulated
    microseconds. Must be called from inside a thread. *)

val yield : unit -> unit
(** Re-schedule the calling thread at the current time, letting other
    ready threads run first. *)

(** {2 Internal plumbing for synchronisation primitives}

    A primitive blocks a thread by recording {!self} and its {!ticket}
    in a waiter record of its own, then calling {!park} (or
    {!park_timeout}). Whoever wakes it stores what it hands over (a
    value, a flag, a processor) in that record and calls {!unpark}; the
    woken thread reads the record after [park] returns. No closure is
    allocated per wait, not even for a timeout's timer: a wait costs
    the parked continuation plus whatever the primitive keeps per
    waiter.

    Each park ends exactly once, by an {!unpark} or by its timeout.
    Ending it moves the fiber's ticket on, so a waiter left behind in a
    queue by a timeout is stale: {!waiting} tells a waker to skip it,
    and {!unpark} with it raises instead of cutting short whatever the
    fiber does next. *)

type fiber
(** A simulated thread, as seen by the primitive that parks it. *)

val self : unit -> fiber
(** The calling simulated thread. Raises [Invalid_argument] outside
    one. *)

val no_fiber : fiber
(** A fiber that never runs or parks: filler for the empty slots of a
    primitive's arrays. *)

val ticket : fiber -> int
(** The number of the fiber's next park — or its current one, while it
    is parked. *)

val waiting : fiber -> int -> bool
(** [waiting fiber ticket]: the park [ticket] names has not ended yet. *)

val park : unit -> unit
(** Block the calling thread until some event calls {!unpark} on it. *)

val park_timeout : float -> bool
(** [park_timeout d] is {!park} with a timer [d] microseconds ahead,
    scheduled just before the thread parks. [true] if an {!unpark}
    ended the park, [false] if the timer did; the timer does nothing
    once an unpark has. *)

val unpark : fiber -> int -> unit
(** [unpark fiber ticket] ends the park [ticket] names and schedules
    the fiber to resume at the current simulated time, behind every
    event already due at that instant. Raises [Invalid_argument] if
    that park has already ended (check {!waiting} first where a
    timeout may have won) or if the fiber is not parked. *)
