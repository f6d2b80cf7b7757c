(* Links are nodes themselves, [Nil] ending the list, so that moving a
   node allocates nothing. [Nil] never escapes: [node] builds only
   [Node]s, [pop_front] answers an empty list with [None] and
   [front_value] raises on one. *)
type 'a node =
  | Nil
  | Node of {
      value : 'a;
      mutable prev : 'a node;
      mutable next : 'a node;
      mutable owner : int; (* id of the owning list, or -1 when detached *)
    }

type 'a t = { mutable head : 'a node; mutable tail : 'a node; mutable len : int; id : int }

let next_id = ref 0

let create () =
  incr next_id;
  { head = Nil; tail = Nil; len = 0; id = !next_id }

let node value = Node { value; prev = Nil; next = Nil; owner = -1 }
let value = function Node n -> n.value | Nil -> invalid_arg "Dlist.value: Nil"
let length t = t.len
let is_empty t = t.len = 0
let owner = function Node n -> n.owner | Nil -> -1
let attached n = owner n >= 0

let set_prev n p = match n with Node r -> r.prev <- p | Nil -> ()
let set_next n s = match n with Node r -> r.next <- s | Nil -> ()

let push_back t n =
  match n with
  | Nil -> invalid_arg "Dlist.push_back: Nil"
  | Node r ->
    if r.owner >= 0 then invalid_arg "Dlist.push_back: node already attached";
    r.owner <- t.id;
    r.prev <- t.tail;
    r.next <- Nil;
    (match t.tail with Nil -> t.head <- n | tl -> set_next tl n);
    t.tail <- n;
    t.len <- t.len + 1

let push_front t n =
  match n with
  | Nil -> invalid_arg "Dlist.push_front: Nil"
  | Node r ->
    if r.owner >= 0 then invalid_arg "Dlist.push_front: node already attached";
    r.owner <- t.id;
    r.next <- t.head;
    r.prev <- Nil;
    (match t.head with Nil -> t.tail <- n | hd -> set_prev hd n);
    t.head <- n;
    t.len <- t.len + 1

let unlink t = function
  | Nil -> ()
  | Node r ->
    (match r.prev with Nil -> t.head <- r.next | p -> set_next p r.next);
    (match r.next with Nil -> t.tail <- r.prev | s -> set_prev s r.prev);
    r.prev <- Nil;
    r.next <- Nil;
    r.owner <- -1;
    t.len <- t.len - 1

let pop_front t =
  match t.head with
  | Nil -> None
  | n ->
    unlink t n;
    Some n

let front_value t =
  match t.head with Node n -> n.value | Nil -> invalid_arg "Dlist.front_value: empty list"

let remove t n =
  if owner n <> t.id then invalid_arg "Dlist.remove: node not on this list";
  unlink t n

let iter f t =
  let rec go = function
    | Nil -> ()
    | Node n ->
      let next = n.next in
      f n.value;
      go next
  in
  go t.head

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc
