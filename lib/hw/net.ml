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
  channels : (int * int, float ref) Hashtbl.t;
      (* per-(src,dst) link serialization: transmissions queue FIFO, so a
         small message cannot overtake a large one sent earlier (the
         netmsg server serializes per connection) *)
}

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
    channels = Hashtbl.create 16;
  }

let set_chaos t c = t.chaos <- c
let chaos t = t.chaos

let channel t ~src ~dst =
  match Hashtbl.find_opt t.channels (src, dst) with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.channels (src, dst) r;
    r

(* Absolute arrival time for a message sent now: transmission occupies
   the channel serially, propagation latency pipelines. *)
let arrival_time t ~src ~dst ~bytes =
  let now = Engine.now t.engine in
  if src = dst then now
  else begin
    let busy = channel t ~src ~dst in
    let xmit_done = Float.max now !busy +. (float_of_int bytes *. t.us_per_byte) in
    busy := xmit_done;
    xmit_done +. t.latency_us
  end

let latency_us t = t.latency_us
let us_per_byte t = t.us_per_byte

(* Queueing delay a message sent now would see before its own
   transmission starts: how far ahead of the clock the link's
   serializer already is. *)
let backlog_us t ~src ~dst =
  if src = dst then 0.0
  else
    match Hashtbl.find_opt t.channels (src, dst) with
    | None -> 0.0
    | Some busy -> Float.max 0.0 (!busy -. Engine.now t.engine)

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
