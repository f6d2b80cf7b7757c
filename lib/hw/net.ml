module Engine = Mach_sim.Engine
module Chaos = Mach_sim.Chaos
module Metrics = Mach_util.Metrics

type t = {
  engine : Engine.t;
  latency_us : float;
  us_per_byte : float;
  group : Metrics.group;
  messages : Metrics.counter;
  bytes : Metrics.counter;
  dropped : Metrics.counter;
  duplicated : Metrics.counter;
  retransmits : Metrics.counter;
  mutable chaos : Chaos.t option;
  links : (int, link) Hashtbl.t;
      (* per-(src,dst) link serialization, keyed [src lsl 32 lor dst]:
         transmissions queue FIFO, so a small message cannot overtake a
         large one sent earlier (the netmsg server serializes per
         connection) *)
}

(* All-float record, so the serializer's clock is stored unboxed and
   advancing it allocates nothing. *)
and link = { mutable busy_until : float }

let create engine ?(latency_us = 300.0) ?(us_per_byte = 0.8) () =
  let group = Metrics.group () in
  let c = Metrics.counter group in
  let messages = c "messages" in
  let bytes = c "bytes_carried" in
  let dropped = c "dropped" in
  let duplicated = c "duplicated" in
  let retransmits = c "retransmits" in
  {
    engine;
    latency_us;
    us_per_byte;
    group;
    messages;
    bytes;
    dropped;
    duplicated;
    retransmits;
    chaos = None;
    links = Hashtbl.create 16;
  }

let set_chaos t c = t.chaos <- c
let chaos t = t.chaos

let key src dst = (src lsl 32) lor dst

let link t ~src ~dst =
  match Hashtbl.find t.links (key src dst) with
  | l -> l
  | exception Not_found ->
    let l = { busy_until = 0.0 } in
    Hashtbl.replace t.links (key src dst) l;
    l

(* Absolute arrival time for a message sent now between two distinct
   hosts: transmission occupies the link serially, propagation latency
   pipelines. Inlined, so the times stay unboxed. *)
let[@inline] arrival_time t ~src ~dst ~bytes =
  let now = Engine.now t.engine in
  let l = link t ~src ~dst in
  let start = if now > l.busy_until then now else l.busy_until in
  let xmit_done = start +. (float_of_int bytes *. t.us_per_byte) in
  l.busy_until <- xmit_done;
  xmit_done +. t.latency_us

let[@inline] latency_us t = t.latency_us
let[@inline] us_per_byte t = t.us_per_byte

(* Queueing delay a message sent now would see before its own
   transmission starts: how far ahead of the clock the link's
   serializer already is. *)
let[@inline] backlog_us t ~src ~dst =
  if src = dst then 0.0
  else
    let ahead = (link t ~src ~dst).busy_until -. Engine.now t.engine in
    if ahead > 0.0 then ahead else 0.0

let transit_us t ~src ~dst ~bytes =
  if src = dst then 0.0 else t.latency_us +. (float_of_int bytes *. t.us_per_byte)

let count t ~src ~dst ~bytes =
  if src <> dst then begin
    Metrics.incr t.messages;
    Metrics.add t.bytes bytes
  end

let deliver t ~src ~dst ~bytes callback =
  count t ~src ~dst ~bytes;
  if src = dst then callback ()
  else begin
    (* The wire is occupied whether or not the message survives: compute
       the arrival first so drops still serialize behind earlier traffic. *)
    let at = arrival_time t ~src ~dst ~bytes in
    match t.chaos with
    | None -> Engine.schedule t.engine ~at callback
    | Some c -> (
      match Chaos.judge c ~src ~dst with
      | Chaos.Dropped _ -> Metrics.incr t.dropped
      | Chaos.Deliver { copies; extra_delay_us } ->
        Engine.schedule t.engine ~at:(at +. extra_delay_us) callback;
        (* A duplicate takes another trip down the wire: it lands one
           full transit later than the original. *)
        for _ = 2 to copies do
          Metrics.incr t.duplicated;
          Engine.schedule t.engine
            ~at:(at +. extra_delay_us +. transit_us t ~src ~dst ~bytes)
            callback
        done)
  end

let transit t ~src ~dst ~bytes =
  count t ~src ~dst ~bytes;
  if src <> dst then begin
    let at = arrival_time t ~src ~dst ~bytes in
    let delay = at -. Engine.now t.engine in
    if delay > 0.0 then Engine.sleep delay
  end

let note_retransmit t = Metrics.incr t.retransmits
let messages t = Metrics.value t.messages
let bytes_carried t = Metrics.value t.bytes
let dropped t = Metrics.value t.dropped
let duplicated t = Metrics.value t.duplicated
let retransmits t = Metrics.value t.retransmits
let stats t = t.group
