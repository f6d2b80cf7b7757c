module Engine = Mach_sim.Engine
module Mailbox = Mach_sim.Mailbox
module Net = Mach_hw.Net
module Metrics = Mach_util.Metrics

(* Remote deliveries for one destination host drain through a single
   daemon thread; a burst of sends queues work instead of forking a
   thread per message. The mailbox bounds in-flight work; past that,
   thunks spill to [overflow] (plain FIFO, no extra threads). Once
   anything has spilled, new work keeps spilling until the daemon has
   drained the overflow, preserving arrival order. The record outlives
   its daemon: an idle daemon exits (so the engine can quiesce) and the
   next delivery respawns one on the same record. *)
type delivery = {
  d_name : string;
  dq : (unit -> unit) Mailbox.t;
  overflow : (unit -> unit) Queue.t;
  mutable d_running : bool;
}

(* --- reliable channels ---------------------------------------------------

   When [reliable] is on (chaos fabrics), every remote delivery rides a
   per-(src,dst) sequenced channel: packets carry (epoch, seq), the
   receiver holds out-of-order arrivals until the gap fills (FIFO
   resequencing), drops anything it has already seen (dedup), and acks
   cumulatively. The sender retransmits everything unacked (go-back-N)
   under exponential backoff; [retry_budget] consecutive silent rounds
   declare the channel down, after which sends fail fast until a
   heal/restart resets the link with a higher epoch. *)

let seq_header_bytes = 16
let ack_bytes = 16
let default_retry_budget = 10

(* Channels are keyed by one int, [src lsl 32 lor dst] (host ids are
   small and non-negative), so a lookup allocates no tuple. *)
let chan_key src dst = (src lsl 32) lor dst

let nop () = ()

(* Acks are cumulative, so the unacked packets are always exactly the
   seqs [tx_base, tx_next): the send window is a ring indexed by
   [seq land (capacity - 1)], and retransmitting it is a walk from
   [tx_base] up, in seq order. *)
type chan_tx = {
  tx_src : int;
  tx_dst : int;
  mutable tx_epoch : int;
  mutable tx_next : int;
  mutable tx_base : int;  (* every seq below this is acked or shed *)
  mutable win_bytes : int array;  (* payload bytes, excluding the sequence header *)
  mutable win_thunks : (unit -> unit) array;
  mutable tx_strikes : int;
  mutable tx_timer_gen : int;  (* bumping this orphans any armed timer *)
  mutable tx_timer : unit -> unit;
      (* the channel's one retransmit timer; its event's arg is the
         generation it was armed for *)
  mutable tx_down : bool;
}

type chan_rx = {
  rx_src : int;
  rx_dst : int;
  mutable rx_epoch : int;
  mutable rx_next : int;
  rx_hold : (int, unit -> unit) Hashtbl.t;
}

type chan_stats = {
  c_group : Metrics.group;
  c_data_pkts : Metrics.counter;
  c_acks : Metrics.counter;
  c_retransmits : Metrics.counter;
  c_dup_dropped : Metrics.counter;
  c_resequenced : Metrics.counter;
  c_aborts : Metrics.counter;
  c_resets : Metrics.counter;
  c_stale_epoch : Metrics.counter;
}

let create_chan_stats () =
  let c_group = Metrics.group () in
  let c = Metrics.counter c_group in
  let c_data_pkts = c "data_pkts" in
  let c_acks = c "acks" in
  let c_retransmits = c "retransmits" in
  let c_dup_dropped = c "dup_dropped" in
  let c_resequenced = c "resequenced" in
  let c_aborts = c "aborts" in
  let c_resets = c "resets" in
  let c_stale_epoch = c "stale_epoch" in
  { c_group; c_data_pkts; c_acks; c_retransmits; c_dup_dropped; c_resequenced; c_aborts;
    c_resets; c_stale_epoch }

type t = {
  engine : Mach_sim.Engine.t;
  net : Net.t;
  mutable next_id : int;
  deliveries : (int, delivery) Hashtbl.t;
  mutable reliable : bool;
  mutable retry_budget : int;
  txs : (int, chan_tx) Hashtbl.t; (* keyed by [chan_key] *)
  rxs : (int, chan_rx) Hashtbl.t;
  cstats : chan_stats;
  ports : (int, (unit -> int) * (unit -> unit)) Hashtbl.t;
      (* port id -> (home getter, destroyer): lets a host crash find and
         kill every port homed there without knowing message types *)
}

let delivery_queue_bound = 256

let create engine net =
  {
    engine;
    net;
    next_id = 1;
    deliveries = Hashtbl.create 8;
    reliable = false;
    retry_budget = default_retry_budget;
    txs = Hashtbl.create 8;
    rxs = Hashtbl.create 8;
    cstats = create_chan_stats ();
    ports = Hashtbl.create 64;
  }

let engine t = t.engine
let net t = t.net

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let spawn_daemon t d =
  d.d_running <- true;
  Engine.spawn t.engine ~name:d.d_name (fun () ->
      let rec loop () =
        match Mailbox.try_recv d.dq with
        | Some thunk ->
          thunk ();
          loop ()
        | None ->
          if not (Queue.is_empty d.overflow) then begin
            let thunk = Queue.pop d.overflow in
            thunk ();
            loop ()
          end
          else
            (* Idle: exit so the engine can quiesce; the next delivery
               respawns us. No blocking point separates the emptiness
               check from the flag, so no thunk can slip in between. *)
            d.d_running <- false
      in
      loop ())

let deliver_to t ~dst thunk =
  let d =
    match Hashtbl.find t.deliveries dst with
    | d -> d
    | exception Not_found ->
      let d =
        { d_name = Printf.sprintf "net-delivery-h%d" dst;
          dq = Mailbox.create ~capacity:delivery_queue_bound (); overflow = Queue.create ();
          d_running = false }
      in
      Hashtbl.replace t.deliveries dst d;
      d
  in
  (* An idle daemon left both queues empty, so this send fits. *)
  if Queue.is_empty d.overflow && Mailbox.send_timeout d.dq thunk ~timeout:0.0 then ()
  else Queue.push thunk d.overflow;
  if not d.d_running then spawn_daemon t d

let delivery_backlog t ~dst =
  match Hashtbl.find_opt t.deliveries dst with
  | None -> 0
  | Some d -> Mailbox.length d.dq + Queue.length d.overflow

(* --- channel plumbing ---------------------------------------------------- *)

let set_reliable t b = t.reliable <- b
let reliable t = t.reliable
let set_retry_budget t n = t.retry_budget <- max 1 n

let window_capacity = 16

let unacked_in chan = chan.tx_next - chan.tx_base

(* Largest payload still in flight, for the retransmission timeout. *)
let window_max_bytes chan =
  let mask = Array.length chan.win_bytes - 1 and m = ref 0 in
  for seq = chan.tx_base to chan.tx_next - 1 do
    m := max !m chan.win_bytes.(seq land mask)
  done;
  !m

(* Forget the packets below [upto]: their slots stop holding thunks. *)
let shed chan ~upto =
  let mask = Array.length chan.win_thunks - 1 in
  for seq = chan.tx_base to upto - 1 do
    chan.win_thunks.(seq land mask) <- nop
  done;
  chan.tx_base <- upto

let window_push chan bytes thunk =
  let cap = Array.length chan.win_bytes in
  if unacked_in chan = cap then begin
    let bytes' = Array.make (2 * cap) 0 and thunks' = Array.make (2 * cap) nop in
    for seq = chan.tx_base to chan.tx_next - 1 do
      bytes'.(seq land ((2 * cap) - 1)) <- chan.win_bytes.(seq land (cap - 1));
      thunks'.(seq land ((2 * cap) - 1)) <- chan.win_thunks.(seq land (cap - 1))
    done;
    chan.win_bytes <- bytes';
    chan.win_thunks <- thunks'
  end;
  let slot = chan.tx_next land (Array.length chan.win_bytes - 1) in
  chan.win_bytes.(slot) <- bytes;
  chan.win_thunks.(slot) <- thunk;
  chan.tx_next <- chan.tx_next + 1

let rx_chan t ~src ~dst =
  match Hashtbl.find t.rxs (chan_key src dst) with
  | c -> c
  | exception Not_found ->
    let c = { rx_src = src; rx_dst = dst; rx_epoch = 0; rx_next = 1; rx_hold = Hashtbl.create 16 } in
    Hashtbl.replace t.rxs (chan_key src dst) c;
    c

(* Retransmission timeout: current link queueing both ways, plus a
   round trip with slack for the largest packet still in flight,
   doubled per silent round, capped. The backlog term matters: the
   wire serializes per link, so under sustained traffic an ack is
   delayed by every transmission queued ahead of it — a timeout blind
   to that reads congestion as loss and the retransmissions feed the
   very queue that is delaying the acks. Inlined, so the float is not
   boxed on its way to the timer. *)
let[@inline] rto t chan =
  let base =
    Net.backlog_us t.net ~src:chan.tx_src ~dst:chan.tx_dst
    +. Net.backlog_us t.net ~src:chan.tx_dst ~dst:chan.tx_src
    +. (4.0 *. Net.latency_us t.net)
    +. (2.0 *. Net.us_per_byte t.net *. float_of_int (window_max_bytes chan + seq_header_bytes))
    +. 500.0
  in
  let scale = float_of_int (1 lsl min chan.tx_strikes 4) in
  base *. scale

let rec handle_ack t chan ~epoch ~cum =
  if epoch <> chan.tx_epoch then Metrics.incr t.cstats.c_stale_epoch
  else if cum >= chan.tx_base then begin
    (* Acks are cumulative and name only seqs this epoch has sent, so
       an ack at or above [tx_base] is progress: it covers the packets
       from [tx_base] to [cum]. *)
    shed chan ~upto:(min cum (chan.tx_next - 1) + 1);
    chan.tx_strikes <- 0;
    (* The watchdog measures silence since the peer's last progress,
       not time since the window opened: restart it for the packets
       still outstanding (their deadline was set for an older,
       shorter queue), or disarm it when the window drained. *)
    if unacked_in chan = 0 then chan.tx_timer_gen <- chan.tx_timer_gen + 1
    else arm_timer t chan
  end

and rx_ingest t tx ~epoch ~seq thunk =
  let src = tx.tx_src and dst = tx.tx_dst in
  let chan = rx_chan t ~src ~dst in
  if epoch < chan.rx_epoch then Metrics.incr t.cstats.c_stale_epoch
  else begin
    if epoch > chan.rx_epoch then begin
      (* Peer reset the link (heal, restart): adopt the new epoch and
         forget everything buffered from the old one. *)
      if chan.rx_epoch > 0 then Metrics.incr t.cstats.c_resets;
      chan.rx_epoch <- epoch;
      chan.rx_next <- 1;
      Hashtbl.reset chan.rx_hold
    end;
    if seq = chan.rx_next && Hashtbl.length chan.rx_hold = 0 then begin
      (* In order with nothing held: deliver straight through. *)
      chan.rx_next <- seq + 1;
      deliver_to t ~dst thunk
    end
    else if seq < chan.rx_next || Hashtbl.mem chan.rx_hold seq then
      Metrics.incr t.cstats.c_dup_dropped
    else begin
      if seq <> chan.rx_next then Metrics.incr t.cstats.c_resequenced;
      Hashtbl.replace chan.rx_hold seq thunk;
      let continue = ref true in
      while !continue do
        match Hashtbl.find chan.rx_hold chan.rx_next with
        | exception Not_found -> continue := false
        | th ->
          Hashtbl.remove chan.rx_hold chan.rx_next;
          chan.rx_next <- chan.rx_next + 1;
          deliver_to t ~dst th
      done
    end;
    (* Always ack, even for duplicates: a lost ack is indistinguishable
       from a lost packet, and the re-ack is what stops the retransmit. *)
    Metrics.incr t.cstats.c_acks;
    let cum = chan.rx_next - 1 in
    Net.deliver t.net ~src:dst ~dst:src ~bytes:ack_bytes (fun () -> handle_ack t tx ~epoch ~cum)
  end

and transmit t chan seq =
  let epoch = chan.tx_epoch in
  let slot = seq land (Array.length chan.win_bytes - 1) in
  let thunk = chan.win_thunks.(slot) in
  Net.deliver t.net ~src:chan.tx_src ~dst:chan.tx_dst
    ~bytes:(chan.win_bytes.(slot) + seq_header_bytes)
    (fun () -> rx_ingest t chan ~epoch ~seq thunk)

and arm_timer t chan =
  chan.tx_timer_gen <- chan.tx_timer_gen + 1;
  Engine.schedule_arg t.engine
    ~at:(Engine.now t.engine +. rto t chan)
    ~arg:chan.tx_timer_gen chan.tx_timer

(* The channel's timer: a no-op unless it is the one armed last. *)
and on_timer t chan () =
  if Engine.event_arg t.engine = chan.tx_timer_gen && (not chan.tx_down) && unacked_in chan > 0
  then begin
    chan.tx_strikes <- chan.tx_strikes + 1;
    if chan.tx_strikes > t.retry_budget then begin
      (* Watchdog: the peer has been silent through the whole retry
         budget — declare the channel down and shed its queue.
         Subsequent sends fail fast with [`Unreachable]. *)
      chan.tx_down <- true;
      shed chan ~upto:chan.tx_next;
      Metrics.incr t.cstats.c_aborts
    end
    else begin
      for seq = chan.tx_base to chan.tx_next - 1 do
        Metrics.incr t.cstats.c_retransmits;
        Net.note_retransmit t.net;
        transmit t chan seq
      done;
      arm_timer t chan
    end
  end

let tx_chan t ~src ~dst =
  match Hashtbl.find t.txs (chan_key src dst) with
  | c -> c
  | exception Not_found ->
    let c =
      {
        tx_src = src;
        tx_dst = dst;
        tx_epoch = 1;
        tx_next = 1;
        tx_base = 1;
        win_bytes = Array.make window_capacity 0;
        win_thunks = Array.make window_capacity nop;
        tx_strikes = 0;
        tx_timer_gen = 0;
        tx_timer = nop;
        tx_down = false;
      }
    in
    c.tx_timer <- on_timer t c;
    Hashtbl.replace t.txs (chan_key src dst) c;
    c

let remote_deliver t ~src ~dst ~bytes thunk =
  if (not t.reliable) || src = dst then begin
    Net.deliver t.net ~src ~dst ~bytes (fun () -> deliver_to t ~dst thunk);
    Ok ()
  end
  else begin
    let chan = tx_chan t ~src ~dst in
    if chan.tx_down then Error `Unreachable
    else begin
      let seq = chan.tx_next in
      window_push chan bytes thunk;
      Metrics.incr t.cstats.c_data_pkts;
      transmit t chan seq;
      if unacked_in chan = 1 then arm_timer t chan;
      Ok ()
    end
  end

let find_tx t ~src ~dst =
  match Hashtbl.find t.txs (chan_key src dst) with c -> Some c | exception Not_found -> None

let chan_down t ~src ~dst =
  match find_tx t ~src ~dst with Some c -> c.tx_down | None -> false

let unacked t ~src ~dst = match find_tx t ~src ~dst with Some c -> unacked_in c | None -> 0

let reset_tx t chan =
  chan.tx_epoch <- chan.tx_epoch + 1;
  shed chan ~upto:chan.tx_next;
  chan.tx_next <- 1;
  chan.tx_base <- 1;
  chan.tx_strikes <- 0;
  chan.tx_timer_gen <- chan.tx_timer_gen + 1;
  chan.tx_down <- false;
  Metrics.incr t.cstats.c_resets

(* Heal semantics: a direction that survived the partition (watchdog
   never tripped) still holds its unacked packets — leave it alone and
   let the next retransmit round carry them across. Only a downed
   direction needs the epoch-bump reset. *)
let reset_link t a b =
  List.iter
    (fun (src, dst) ->
      match find_tx t ~src ~dst with
      | Some chan when chan.tx_down -> reset_tx t chan
      | Some _ | None -> ())
    [ (a, b); (b, a) ]

(* --- port registry & host failure --------------------------------------- *)

let register_port t ~id ~home ~destroy = Hashtbl.replace t.ports id (home, destroy)
let forget_port t ~id = Hashtbl.remove t.ports id

let reset_host_chans t ~host =
  Hashtbl.iter (fun _ chan -> if chan.tx_src = host || chan.tx_dst = host then reset_tx t chan)
    t.txs;
  let stale =
    Hashtbl.fold (fun key c acc ->
        if c.rx_src = host || c.rx_dst = host then key :: acc else acc)
      t.rxs []
  in
  List.iter
    (fun key ->
      let c = Hashtbl.find t.rxs key in
      (* The crashed side lost its receive state; the surviving side
         will adopt the peer's next epoch on first contact. *)
      Hashtbl.reset c.rx_hold;
      Hashtbl.remove t.rxs key)
    stale

let crash_host t ~host =
  (* Snapshot first: destroying a port runs death hooks that may create
     or destroy further ports. May block (death hooks charge compute),
     so only call from a simulated thread. *)
  let victims =
    Hashtbl.fold (fun id (home, destroy) acc ->
        if home () = host then (id, destroy) :: acc else acc)
      t.ports []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (id, destroy) ->
      Hashtbl.remove t.ports id;
      destroy ())
    victims;
  reset_host_chans t ~host;
  List.length victims

let restart_host t ~host = reset_host_chans t ~host

(* --- accounting ---------------------------------------------------------- *)

let chan_stats t = t.cstats.c_group
