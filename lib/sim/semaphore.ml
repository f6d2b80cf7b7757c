type waiter = { n : int; fiber : Engine.fiber; ticket : int }
type t = { mutable avail : int; waiting : waiter Queue.t }

let create permits =
  if permits < 0 then invalid_arg "Semaphore.create: negative permits";
  { avail = permits; waiting = Queue.create () }

let permits t = t.avail

(* FIFO grant: only the queue head may be served, preserving fairness for
   large requests. *)
let drain t =
  let continue_draining = ref true in
  while !continue_draining do
    match Queue.peek_opt t.waiting with
    | Some w when w.n <= t.avail ->
      ignore (Queue.take t.waiting);
      t.avail <- t.avail - w.n;
      Engine.unpark w.fiber w.ticket
    | Some _ | None -> continue_draining := false
  done

let acquire ?(n = 1) t =
  if Queue.is_empty t.waiting && t.avail >= n then t.avail <- t.avail - n
  else begin
    let fiber = Engine.self () in
    Queue.add { n; fiber; ticket = Engine.ticket fiber } t.waiting;
    Engine.park ()
  end

let try_acquire ?(n = 1) t =
  if Queue.is_empty t.waiting && t.avail >= n then begin
    t.avail <- t.avail - n;
    true
  end
  else false

let release ?(n = 1) t =
  t.avail <- t.avail + n;
  drain t

let with_permit t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e
