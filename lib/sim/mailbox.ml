(* A parked receiver or sender. A peer or a close stores [result] and
   unparks it: [Some v] or [None] for a receiver, whether its value was
   accepted for a sender. A timeout leaves the initial [None]/[false],
   and the waiter stays queued, stale, until a peer passes over it. *)
type 'a waiter = { fiber : Engine.fiber; ticket : int; mutable result : 'a }

type 'a t = {
  queue : 'a Queue.t;
  mutable cap : int option;
  receivers : 'a option waiter Queue.t; (* woken with Some v, or None on timeout/close *)
  senders : ('a * bool waiter) Queue.t; (* woken with true when the value was accepted *)
  mutable closed : bool;
}

exception Closed

let check_open t = if t.closed then raise Closed

let create ?capacity () =
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Mailbox.create: negative capacity"
  | _ -> ());
  { queue = Queue.create (); cap = capacity; receivers = Queue.create (); senders = Queue.create ();
    closed = false }

let waiter result =
  let fiber = Engine.self () in
  { fiber; ticket = Engine.ticket fiber; result }

let live w = Engine.waiting w.fiber w.ticket

let wake w result =
  w.result <- result;
  Engine.unpark w.fiber w.ticket

let capacity t = t.cap
let length t = Queue.length t.queue
let is_empty t = Queue.is_empty t.queue

let rec pop_live q =
  match Queue.take_opt q with
  | None -> None
  | Some ((_, w) as entry) -> if live w then Some entry else pop_live q

let rec pop_live_receiver q =
  match Queue.take_opt q with
  | None -> None
  | Some w -> if live w then Some w else pop_live_receiver q

let waiters t = Queue.fold (fun n w -> if live w then n + 1 else n) 0 t.receivers

let has_room t =
  match t.cap with None -> true | Some c -> Queue.length t.queue < c

(* After removing a message, a blocked sender may now fit. *)
let admit_blocked_sender t =
  if has_room t then
    match pop_live t.senders with
    | None -> ()
    | Some (v, w) ->
      Queue.add v t.queue;
      wake w true

let set_capacity t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Mailbox.set_capacity: negative capacity"
  | _ -> ());
  t.cap <- cap;
  (* A raised capacity may admit blocked senders. *)
  let continue_admitting = ref true in
  while !continue_admitting do
    if has_room t && not (Queue.is_empty t.senders) then begin
      match pop_live t.senders with
      | None -> continue_admitting := false
      | Some (v, w) ->
        Queue.add v t.queue;
        wake w true
    end
    else continue_admitting := false
  done

let deliver_direct t v =
  match pop_live_receiver t.receivers with
  | Some w ->
    wake w (Some v);
    true
  | None -> false

let send_timeout t v ~timeout =
  check_open t;
  if deliver_direct t v then true
  else if has_room t then begin
    Queue.add v t.queue;
    true
  end
  else if timeout <= 0.0 then false
  else begin
    let w = waiter false in
    Queue.add (v, w) t.senders;
    ignore (Engine.park_timeout timeout);
    if (not w.result) && t.closed then raise Closed;
    w.result
  end

let send t v =
  check_open t;
  if deliver_direct t v then ()
  else if has_room t then Queue.add v t.queue
  else begin
    let w = waiter false in
    Queue.add (v, w) t.senders;
    Engine.park ();
    if not w.result then begin
      (* Only a close can refuse an untimed send. *)
      assert t.closed;
      raise Closed
    end
  end

let try_recv t =
  check_open t;
  match Queue.take_opt t.queue with
  | Some v ->
    admit_blocked_sender t;
    Some v
  | None -> (
    (* A blocked sender's message can bypass an empty queue. *)
    match pop_live t.senders with
    | Some (v, w) ->
      wake w true;
      Some v
    | None -> None)

let recv t =
  match try_recv t with
  | Some v -> v
  | None -> (
    let w = waiter None in
    Queue.add w t.receivers;
    Engine.park ();
    match w.result with
    | Some v -> v
    | None ->
      assert t.closed;
      raise Closed)

let recv_timeout t ~timeout =
  match try_recv t with
  | Some v -> Some v
  | None ->
    if timeout <= 0.0 then None
    else begin
      let w = waiter None in
      Queue.add w t.receivers;
      ignore (Engine.park_timeout timeout);
      match w.result with
      | Some v -> Some v
      | None -> if t.closed then raise Closed else None
    end


let close ?(on_drop = ignore) t =
  if not t.closed then begin
    t.closed <- true;
    let dropped = Queue.create () in
    Queue.transfer t.queue dropped;
    Queue.iter (fun w -> if live w then wake w None) t.receivers;
    Queue.clear t.receivers;
    Queue.iter (fun (_, w) -> if live w then wake w false) t.senders;
    Queue.clear t.senders;
    Queue.iter on_drop dropped
  end

let is_closed t = t.closed
