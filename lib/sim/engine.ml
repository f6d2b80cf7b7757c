(* Binary min-heap on (time, seq) in four parallel arrays — unboxed
   times, seqs, int args and actions — so that a push or pop allocates
   nothing. seq breaks ties: same-time events run in insertion order and
   runs are deterministic. Keys are unique, so any correct heap pops the
   same sequence. [arg] is an int payload for the action: [pop] leaves
   the popped event's in [h.arg], so one closure shared by many events
   (a fiber's timer) can tell them apart. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable args : int array;
    mutable actions : (unit -> unit) array;
    mutable size : int;
    mutable arg : int; (* arg of the event [pop] returned last *)
  }

  let nop () = ()

  let create () =
    { times = Array.make 64 0.0; seqs = Array.make 64 0; args = Array.make 64 0;
      actions = Array.make 64 nop; size = 0; arg = 0 }

  let grow h =
    let n = 2 * Array.length h.times in
    let times = Array.make n 0.0 and seqs = Array.make n 0 and args = Array.make n 0 in
    let actions = Array.make n nop in
    Array.blit h.times 0 times 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.args 0 args 0 h.size;
    Array.blit h.actions 0 actions 0 h.size;
    h.times <- times;
    h.seqs <- seqs;
    h.args <- args;
    h.actions <- actions

  (* The helpers below are inlined so that times stay unboxed floats:
     a call would box each one it is passed or returns. *)
  let[@inline] move h ~src ~dst =
    h.times.(dst) <- h.times.(src);
    h.seqs.(dst) <- h.seqs.(src);
    h.args.(dst) <- h.args.(src);
    h.actions.(dst) <- h.actions.(src)

  let[@inline] place h i time seq arg action =
    h.times.(i) <- time;
    h.seqs.(i) <- seq;
    h.args.(i) <- arg;
    h.actions.(i) <- action

  (* Does slot [i] order before the key (time, seq)? Keys are unique,
     so [not (before ...)] means the key orders before slot [i]. *)
  let[@inline] before h i time seq =
    let ti = h.times.(i) in
    ti < time || (ti = time && h.seqs.(i) < seq)

  let[@inline] is_empty h = h.size = 0

  (* Time of the earliest event; the heap must not be empty. *)
  let[@inline] min_time h = h.times.(0)

  (* Sift a hole up from the new last slot, then fill it. *)
  let[@inline] push h time seq arg action =
    if h.size = Array.length h.times then grow h;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && not (before h ((!i - 1) / 2) time seq) do
      let p = (!i - 1) / 2 in
      move h ~src:p ~dst:!i;
      i := p
    done;
    place h !i time seq arg action

  (* Remove and return the earliest action, leaving its arg in [h.arg];
     the heap must not be empty. The last slot's event sifts down from
     the root as a hole. *)
  let pop h =
    let top = h.actions.(0) in
    h.arg <- h.args.(0);
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let time = h.times.(n) and seq = h.seqs.(n) and arg = h.args.(n) in
      let action = h.actions.(n) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c = if r < n && before h r h.times.(l) h.seqs.(l) then r else l in
          if before h c time seq then begin
            move h ~src:c ~dst:!i;
            i := c
          end
          else sifting := false
        end
      done;
      place h !i time seq arg action
    end;
    h.actions.(n) <- nop;
    top
end

(* All-float record: both fields are stored unboxed, so advancing the
   clock allocates nothing. [wake_us] carries a sleep's deadline from
   [sleep] to its effect handler. *)
type clock = { mutable now_us : float; mutable wake_us : float }

type t = {
  clock : clock;
  mutable seq : int;
  heap : Heap.t;
  mutable live : int;
  fibers : (int, fiber) Hashtbl.t; (* id -> fiber, from spawn to exit *)
  mutable next_id : int;
  mutable anon_count : int; (* per-engine, so names are deterministic *)
  mutable failure : exn option;
}

(* One record per simulated thread. [f_wake] and [f_timer] are
   allocated once at spawn: [f_wake] resumes the continuation parked in
   [f_parked], so neither a sleep nor an unpark schedules a closure of
   its own, and [f_timer] ends a timed park. [f_ticket] numbers the
   thread's parks: it moves on when a park ends, so a waiter still
   holding the old number is stale. A timer event carries the ticket of
   the park it was set for as its heap arg. [f_timed_out] tells
   [park_timeout] that its timer, not an unpark, ended the park. *)
and fiber = {
  f_id : int;
  f_name : string;
  f_eng : t;
  mutable f_blocked : bool;
  mutable f_parked : (unit, unit) Effect.Deep.continuation option;
  mutable f_wake : unit -> unit;
  mutable f_timer : unit -> unit;
  mutable f_ticket : int;
  mutable f_timed_out : bool;
}

type _ Effect.t += Sleep : unit Effect.t | Park : unit Effect.t

let create () =
  { clock = { now_us = 0.0; wake_us = 0.0 }; seq = 0; heap = Heap.create (); live = 0;
    fibers = Hashtbl.create 64; next_id = 0; anon_count = 0; failure = None }

(* The fiber the engine is currently resuming; [no_fiber] while a timer
   callback runs or outside [run]. *)
let no_fiber =
  { f_id = -1; f_name = ""; f_eng = create (); f_blocked = false; f_parked = None;
    f_wake = Heap.nop; f_timer = Heap.nop; f_ticket = 0; f_timed_out = false }

let current = ref no_fiber

let now t = t.clock.now_us

(* Inlined, so that [at] reaches the heap's float array unboxed. *)
let[@inline] push t at arg action =
  let at = if at < t.clock.now_us then t.clock.now_us else at in
  t.seq <- t.seq + 1;
  Heap.push t.heap at t.seq arg action

let[@inline] schedule t ~at action = push t at 0 action
let[@inline] schedule_arg t ~at ~arg action = push t at arg action
let event_arg t = t.heap.Heap.arg

(* Continue [k] as the current fiber. A fiber's own exceptions end in
   its [exnc]; one escaping here came from a handler, and must not
   leave [current] naming a fiber that is no longer running. *)
let resume fib k v =
  let prev = !current in
  current := fib;
  match Effect.Deep.continue k v with
  | () -> current := prev
  | exception e ->
    current := prev;
    raise e

let wake fib () =
  match fib.f_parked with
  | Some k ->
    fib.f_parked <- None;
    fib.f_blocked <- false;
    resume fib k ()
  | None -> ()

(* The two handlers are shared by every fiber: each reads the blocking
   fiber from [current] (and a sleep's deadline from the clock), so
   performing [Sleep] or [Park] allocates no handler closure. *)
let on_sleep =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let fib = !current in
      let t = fib.f_eng in
      fib.f_blocked <- true;
      fib.f_parked <- Some k;
      push t t.clock.wake_us 0 fib.f_wake)

(* End the current park: the wake event takes the (time, seq) slot a
   resume would have, the current instant behind everything already
   scheduled for it. *)
let end_park fib =
  let t = fib.f_eng in
  fib.f_ticket <- fib.f_ticket + 1;
  fib.f_blocked <- false;
  push t t.clock.now_us 0 fib.f_wake

(* A fiber's timer: its event's arg is the ticket of the park it was
   set for, so it does nothing once an unpark has ended that park. *)
let timer fib () =
  if fib.f_ticket = fib.f_eng.heap.Heap.arg then begin
    fib.f_timed_out <- true;
    end_park fib
  end

let on_park =
  Some
    (fun (k : (unit, unit) Effect.Deep.continuation) ->
      let fib = !current in
      fib.f_blocked <- true;
      fib.f_parked <- Some k)

let spawn t ?name f =
  let name =
    match name with
    | Some n -> n
    | None ->
      t.anon_count <- t.anon_count + 1;
      Printf.sprintf "thread-%d" t.anon_count
  in
  t.live <- t.live + 1;
  let id = t.next_id in
  t.next_id <- id + 1;
  let fib =
    { f_id = id; f_name = name; f_eng = t; f_blocked = false; f_parked = None;
      f_wake = Heap.nop; f_timer = Heap.nop; f_ticket = 0; f_timed_out = false }
  in
  fib.f_wake <- wake fib;
  fib.f_timer <- timer fib;
  Hashtbl.replace t.fibers id fib;
  let start () =
    let open Effect.Deep in
    match_with f ()
      {
        retc =
          (fun () ->
            Hashtbl.remove t.fibers id;
            t.live <- t.live - 1);
        exnc =
          (fun e ->
            Hashtbl.remove t.fibers id;
            if t.failure = None then t.failure <- Some e);
        effc =
          (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
            match eff with
            | Sleep -> on_sleep
            | Park -> on_park
            | _ -> None);
      }
  in
  schedule t ~at:t.clock.now_us (fun () ->
      let prev = !current in
      current := fib;
      match start () with
      | () -> current := prev
      | exception e ->
        current := prev;
        raise e)

let run ?until t =
  let stop = ref false in
  while not !stop do
    (match t.failure with
    | Some e ->
      t.failure <- None;
      raise e
    | None -> ());
    if Heap.is_empty t.heap then stop := true
    else begin
      let time = Heap.min_time t.heap in
      match until with
      | Some limit when time > limit ->
        t.clock.now_us <- limit;
        stop := true
      | _ ->
        let action = Heap.pop t.heap in
        t.clock.now_us <- time;
        action ()
    end
  done;
  match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ()

let live t = t.live

let blocked_names t =
  Hashtbl.fold (fun _ fib acc -> if fib.f_blocked then fib.f_name :: acc else acc) t.fibers []
  |> List.sort_uniq String.compare

let self_id () = !current.f_id

let self_name () =
  let fib = !current in
  if fib == no_fiber then invalid_arg "Engine.self_name: not inside a simulated thread";
  fib.f_name

let self_name_opt () =
  let fib = !current in
  if fib == no_fiber then None else Some fib.f_name

(* Inlined, so a caller's computed delay is not boxed to pass it. *)
let[@inline] sleep delay =
  let t = !current.f_eng in
  t.clock.wake_us <- t.clock.now_us +. delay;
  Effect.perform Sleep

let yield () = sleep 0.0

let self () =
  let fib = !current in
  if fib == no_fiber then invalid_arg "Engine.self: not inside a simulated thread";
  fib

let ticket fib = fib.f_ticket
let waiting fib ticket = fib.f_ticket = ticket

let park () = Effect.perform Park

(* The timer is scheduled just before the park, and is a no-op if an
   unpark ended this park first. *)
let park_timeout timeout =
  let fib = self () in
  let t = fib.f_eng in
  push t (t.clock.now_us +. timeout) fib.f_ticket fib.f_timer;
  Effect.perform Park;
  if fib.f_timed_out then begin
    fib.f_timed_out <- false;
    false
  end
  else true

let unpark fib ticket =
  if fib.f_ticket <> ticket then invalid_arg "Engine.unpark: park already ended";
  if Option.is_none fib.f_parked then invalid_arg "Engine.unpark: fiber not parked";
  end_park fib
