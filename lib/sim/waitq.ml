(* A parked thread. A timed-out waiter stays queued until a signal
   reaches it; its park has ended by then, so the signal passes on. *)
type waiter = { fiber : Engine.fiber; ticket : int }
type t = { queue : waiter Queue.t }

let create () = { queue = Queue.create () }
let live w = Engine.waiting w.fiber w.ticket
let waiters t = Queue.fold (fun n w -> if live w then n + 1 else n) 0 t.queue

let enqueue t =
  let fiber = Engine.self () in
  Queue.add { fiber; ticket = Engine.ticket fiber } t.queue

let wait t =
  enqueue t;
  Engine.park ()

let wait_timeout t ~timeout =
  enqueue t;
  Engine.park_timeout timeout

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some w -> if live w then Engine.unpark w.fiber w.ticket else signal t

let broadcast t =
  let rec drain () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some w ->
      if live w then Engine.unpark w.fiber w.ticket;
      drain ()
  in
  drain ()
