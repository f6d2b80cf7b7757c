(* Waiters in FIFO order, in a ring of two parallel arrays: slot [i]
   holds a parked fiber and the ticket of its park. A timed-out waiter
   stays queued until a signal reaches it (its park has ended by then,
   so the signal passes on) or until a full ring drops it to make room.
   The capacity is 0 or a power of two; a queue that is never waited on
   allocates no array. *)
type t = {
  mutable fibers : Engine.fiber array;
  mutable tickets : int array;
  mutable head : int; (* slot of the oldest waiter *)
  mutable len : int;
}

let create () = { fibers = [||]; tickets = [||]; head = 0; len = 0 }
let[@inline] slot t k = (t.head + k) land (Array.length t.fibers - 1)
let[@inline] live t i = Engine.waiting t.fibers.(i) t.tickets.(i)

let waiters t =
  let n = ref 0 in
  for k = 0 to t.len - 1 do
    if live t (slot t k) then incr n
  done;
  !n

let grow t =
  let cap = max 4 (2 * Array.length t.fibers) in
  let fibers = Array.make cap Engine.no_fiber and tickets = Array.make cap 0 in
  for k = 0 to t.len - 1 do
    let i = slot t k in
    fibers.(k) <- t.fibers.(i);
    tickets.(k) <- t.tickets.(i)
  done;
  t.fibers <- fibers;
  t.tickets <- tickets;
  t.head <- 0

(* The ring is full: drop the waiters whose park has ended, keeping the
   rest in order, and grow only if every waiter is still live. *)
let make_room t =
  let kept = ref 0 in
  for k = 0 to t.len - 1 do
    let i = slot t k in
    if live t i then begin
      let j = slot t !kept in
      t.fibers.(j) <- t.fibers.(i);
      t.tickets.(j) <- t.tickets.(i);
      incr kept
    end
  done;
  for k = !kept to t.len - 1 do
    t.fibers.(slot t k) <- Engine.no_fiber
  done;
  t.len <- !kept;
  if !kept = Array.length t.fibers then grow t

let enqueue t =
  let fiber = Engine.self () in
  if t.len = Array.length t.fibers then make_room t;
  let i = slot t t.len in
  t.fibers.(i) <- fiber;
  t.tickets.(i) <- Engine.ticket fiber;
  t.len <- t.len + 1

let wait t =
  enqueue t;
  Engine.park ()

let wait_timeout t ~timeout =
  enqueue t;
  Engine.park_timeout timeout

(* Take the oldest waiter off the ring and wake it if it is live;
   [true] if it was. The ring must not be empty. *)
let take t =
  let i = t.head in
  let fiber = t.fibers.(i) and ticket = t.tickets.(i) in
  t.fibers.(i) <- Engine.no_fiber;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  Engine.waiting fiber ticket
  && begin
    Engine.unpark fiber ticket;
    true
  end

let signal t =
  while t.len > 0 && not (take t) do
    ()
  done

let broadcast t =
  while t.len > 0 do
    ignore (take t)
  done
