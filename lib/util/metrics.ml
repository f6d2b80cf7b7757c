(* One registry for every subsystem's statistics.

   Hot paths keep their cost profile: a subsystem's stats block is a
   record of counter handles, each declared into the block's group with
   its key string, so the key is written once and snapshots are derived
   from the group. An increment is one store on the handle; the
   registry never sits on that path. Groups need no registry to exist
   because some blocks (the network fabric, the chaos oracle) are
   created before any host boots. Metrics with no block to live in get
   a sampled [gauge] or a [histogram] (a [Stats.t] reduced to
   count/mean/percentiles at snapshot time).

   A snapshot is a flat, sorted [(key, value)] list with keys
   "subsystem.name", so one serializer covers every consumer: the
   vm_statistics-style syscall, the bench harness's --json writer, and
   the machsim CLI. Duplicate keys (two pagers registered under one
   name) sum. *)

type counter = { c_name : string; mutable c_value : int }
type group = { mutable g_counters : counter list (* reverse declaration order *) }

type entry =
  | Group of group
  | Gauge of (unit -> int)
  | Histogram of Stats.t

type registry = { mutable entries : (string * entry) list }
type snapshot = (string * float) list
type histogram = Stats.t

let create () = { entries = [] }
let register r k entry = r.entries <- (k, entry) :: r.entries
let key ~subsystem name = subsystem ^ "." ^ name
let group () = { g_counters = [] }

let counter g name =
  let c = { c_name = name; c_value = 0 } in
  g.g_counters <- c :: g.g_counters;
  c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let raise_to c v = if v > c.c_value then c.c_value <- v
let value c = c.c_value
let values g = List.rev_map (fun c -> (c.c_name, c.c_value)) g.g_counters
let attach r ~subsystem g = register r subsystem (Group g)
let gauge r ~subsystem name read = register r (key ~subsystem name) (Gauge read)

let histogram r ~subsystem name =
  let h = Stats.create () in
  register r (key ~subsystem name) (Histogram h);
  h

let observe = Stats.add
let get ?(default = 0.0) s k = Option.value (List.assoc_opt k s) ~default

let delta ~before ~after =
  List.map (fun (k, v) -> (k, v -. get before k)) after

let merge snapshots =
  let acc = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)))
    snapshots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pairs (k, entry) =
  match entry with
  | Group g ->
    List.map (fun c -> (key ~subsystem:k c.c_name, float_of_int c.c_value)) g.g_counters
  | Gauge read -> [ (k, float_of_int (read ())) ]
  | Histogram s ->
    (k ^ ".count", float_of_int (Stats.count s))
    ::
    (if Stats.count s = 0 then []
     else
       [
         (k ^ ".mean", Stats.mean s);
         (k ^ ".p50", Stats.percentile s 50.0);
         (k ^ ".p95", Stats.percentile s 95.0);
         (k ^ ".max", Stats.max s);
       ])

let snapshot r = merge [ List.concat_map pairs r.entries ]

(* Integers print without a fraction so counter values stay readable;
   everything else keeps three decimals (matching the bench harness's
   writer, whose gate parses one "key": number pair per line). *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let to_json ?(indent = 2) s =
  let pad = String.make indent ' ' in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{";
  let n = List.length s in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s%S: %s%s" pad k (json_number v) (if i = n - 1 then "" else ",")))
    s;
  Buffer.add_string buf "\n}";
  Buffer.contents buf
