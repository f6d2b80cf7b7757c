module Rng = Mach_util.Rng
module Metrics = Mach_util.Metrics

type plan = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter_us : float;
}

let perfect = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter_us = 0.0 }

type stats = {
  s_group : Metrics.group;
  s_dropped : Metrics.counter;
  s_duplicated : Metrics.counter;
  s_reordered : Metrics.counter;
  s_partition_drops : Metrics.counter;
  s_crash_drops : Metrics.counter;
  s_partitions : Metrics.counter;
  s_heals : Metrics.counter;
  s_crashes : Metrics.counter;
  s_restarts : Metrics.counter;
}

let create_stats () =
  let s_group = Metrics.group () in
  let c = Metrics.counter s_group in
  let s_dropped = c "dropped" in
  let s_duplicated = c "duplicated" in
  let s_reordered = c "reordered" in
  let s_partition_drops = c "partition_drops" in
  let s_crash_drops = c "crash_drops" in
  let s_partitions = c "partitions" in
  let s_heals = c "heals" in
  let s_crashes = c "crashes" in
  let s_restarts = c "restarts" in
  { s_group; s_dropped; s_duplicated; s_reordered; s_partition_drops; s_crash_drops;
    s_partitions; s_heals; s_crashes; s_restarts }

(* Links are keyed by one int, [src lsl 32 lor dst], so a lookup
   allocates no tuple. *)
type t = {
  rng : Rng.t;
  plans : (int, plan) Hashtbl.t; (* directed: [key src dst] *)
  mutable default_plan : plan;
  partitions : (int, unit) Hashtbl.t; (* undirected: [key (min a b) (max a b)] *)
  crashed : (int, unit) Hashtbl.t;
  stats : stats;
  mutable trace : Trace.t option;
  mutable on_crash : (int -> unit) list;
  mutable on_restart : (int -> unit) list;
  mutable on_heal : (int -> int -> unit) list;
}

let create ?(seed = 0x43484F53) () =
  {
    rng = Rng.create seed;
    plans = Hashtbl.create 16;
    default_plan = perfect;
    partitions = Hashtbl.create 8;
    crashed = Hashtbl.create 4;
    stats = create_stats ();
    trace = None;
    on_crash = [];
    on_restart = [];
    on_heal = [];
  }

let set_trace t tr = t.trace <- tr
let stats t = t.stats

(* Labels are formatted only when a trace is listening: every fault
   site checks [tracing] first, so an untraced run builds no string. *)
let tracing t = match t.trace with Some tr -> Trace.enabled tr | None -> false
let point t label =
  match t.trace with Some tr -> Trace.point tr ~subsystem:"chaos" label | None -> ()

let key a b =
  if a < 0 || b < 0 || a >= 1 lsl 30 || b >= 1 lsl 30 then invalid_arg "Chaos: host id out of range";
  (a lsl 32) lor b

let set_plan t ~src ~dst plan = Hashtbl.replace t.plans (key src dst) plan

let set_plan_between t a b plan =
  set_plan t ~src:a ~dst:b plan;
  set_plan t ~src:b ~dst:a plan

let set_default_plan t plan = t.default_plan <- plan

(* The empty-table checks keep the common fault-free link to two loads. *)
let plan_for t ~src ~dst =
  if Hashtbl.length t.plans = 0 then t.default_plan
  else match Hashtbl.find t.plans (key src dst) with p -> p | exception Not_found -> t.default_plan

let link a b = if a <= b then key a b else key b a

let partition t a b =
  if not (Hashtbl.mem t.partitions (link a b)) then begin
    Hashtbl.replace t.partitions (link a b) ();
    Metrics.incr t.stats.s_partitions;
    if tracing t then point t (Printf.sprintf "partition h%d|h%d" a b)
  end

let heal t a b =
  if Hashtbl.mem t.partitions (link a b) then begin
    Hashtbl.remove t.partitions (link a b);
    Metrics.incr t.stats.s_heals;
    if tracing t then point t (Printf.sprintf "heal h%d|h%d" a b);
    List.iter (fun f -> f a b) (List.rev t.on_heal)
  end

let partitioned t a b = Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (link a b)
let host_up t h = Hashtbl.length t.crashed = 0 || not (Hashtbl.mem t.crashed h)

let crash_host t h =
  if host_up t h then begin
    Hashtbl.replace t.crashed h ();
    Metrics.incr t.stats.s_crashes;
    if tracing t then point t (Printf.sprintf "crash h%d" h);
    List.iter (fun f -> f h) (List.rev t.on_crash)
  end

let restart_host t h =
  if not (host_up t h) then begin
    Hashtbl.remove t.crashed h;
    Metrics.incr t.stats.s_restarts;
    if tracing t then point t (Printf.sprintf "restart h%d" h);
    List.iter (fun f -> f h) (List.rev t.on_restart)
  end

let on_crash t f = t.on_crash <- f :: t.on_crash
let on_restart t f = t.on_restart <- f :: t.on_restart
let on_heal t f = t.on_heal <- f :: t.on_heal

type verdict =
  | Deliver of { copies : int; extra_delay_us : float }
  | Dropped of [ `Fault | `Partitioned | `Host_down ]

(* The verdict of every message that arrives once, on time: shared, so
   the common case allocates nothing. *)
let deliver_once = Deliver { copies = 1; extra_delay_us = 0.0 }

let link_point t what src dst =
  if tracing t then point t (Printf.sprintf "%s h%d->h%d" what src dst)

(* One verdict per fabric message. RNG draws happen in a fixed order
   (drop, duplicate, reorder) so a run is a pure function of the seed
   and the message sequence. *)
let judge t ~src ~dst =
  if not (host_up t src && host_up t dst) then begin
    Metrics.incr t.stats.s_crash_drops;
    link_point t "crash_drop" src dst;
    Dropped `Host_down
  end
  else if partitioned t src dst then begin
    Metrics.incr t.stats.s_partition_drops;
    link_point t "partition_drop" src dst;
    Dropped `Partitioned
  end
  else begin
    let plan = plan_for t ~src ~dst in
    if plan.drop > 0.0 && Rng.float t.rng 1.0 < plan.drop then begin
      Metrics.incr t.stats.s_dropped;
      link_point t "drop" src dst;
      Dropped `Fault
    end
    else begin
      let copies =
        if plan.duplicate > 0.0 && Rng.float t.rng 1.0 < plan.duplicate then begin
          Metrics.incr t.stats.s_duplicated;
          link_point t "duplicate" src dst;
          2
        end
        else 1
      in
      if plan.reorder > 0.0 && Rng.float t.rng 1.0 < plan.reorder then begin
        Metrics.incr t.stats.s_reordered;
        link_point t "reorder" src dst;
        (* Enough delay to let later traffic overtake this message. *)
        Deliver { copies; extra_delay_us = Rng.float t.rng (Float.max plan.jitter_us 1.0) }
      end
      else if copies = 1 then deliver_once
      else Deliver { copies; extra_delay_us = 0.0 }
    end
  end

(* Fault-plan grammar: "seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500"
   — every key optional, the resulting plan applies to every link. *)
let of_spec spec =
  let seed = ref 0x43484F53 in
  let plan = ref perfect in
  String.split_on_char ',' spec
  |> List.iter (fun kv ->
         match String.index_opt kv '=' with
         | None -> ()
         | Some i ->
           let k = String.trim (String.sub kv 0 i) in
           let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
           let f () = float_of_string v in
           (match k with
           | "seed" -> seed := int_of_string v
           | "drop" -> plan := { !plan with drop = f () }
           | "dup" | "duplicate" -> plan := { !plan with duplicate = f () }
           | "reorder" -> plan := { !plan with reorder = f () }
           | "jitter" | "jitter_us" -> plan := { !plan with jitter_us = f () }
           | _ -> invalid_arg ("Chaos.of_spec: unknown key " ^ k)));
  let t = create ~seed:!seed () in
  set_default_plan t !plan;
  t

let faults_injected t =
  let s = t.stats in
  List.fold_left (fun n c -> n + Metrics.value c) 0
    [ s.s_dropped; s.s_duplicated; s.s_reordered; s.s_partition_drops; s.s_crash_drops ]

