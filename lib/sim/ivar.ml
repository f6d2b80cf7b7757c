(* A reader parked on an empty cell; once woken by the fill it re-reads
   the cell. A timed-out reader stays listed until the fill, which
   passes over it. *)
type waiter = { fiber : Engine.fiber; ticket : int }
type 'a state = Empty of waiter list | Full of 'a
type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
    t.state <- Full v;
    List.iter
      (fun w -> if Engine.waiting w.fiber w.ticket then Engine.unpark w.fiber w.ticket)
      (List.rev waiters);
    true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"
let is_filled t = match t.state with Full _ -> true | Empty _ -> false
let peek t = match t.state with Full v -> Some v | Empty _ -> None

let enqueue t waiters =
  let fiber = Engine.self () in
  t.state <- Empty ({ fiber; ticket = Engine.ticket fiber } :: waiters)

let read t =
  match t.state with
  | Full v -> v
  | Empty waiters -> (
    enqueue t waiters;
    Engine.park ();
    match t.state with Full v -> v | Empty _ -> assert false)

(* The answer is which event ended the park — the fill or the expiry —
   not the cell's state when the reader resumes. *)
let read_timeout t ~timeout =
  match t.state with
  | Full v -> Some v
  | Empty waiters ->
    enqueue t waiters;
    if Engine.park_timeout timeout then peek t else None
