(** Unified metrics registry: every subsystem's counters behind one
    snapshot/serialize surface.

    A subsystem declares each counter once: its stats block is a record
    of {!counter} handles, each created into the block's {!group} with
    its key string, and {!attach} registers the whole group, so
    snapshots are derived from the declarations. The registry is never
    on the increment path: {!incr}, {!add} and {!raise_to} are one store
    on the handle and allocate nothing. Metrics with no block to live
    in use a sampled {!gauge} or a {!histogram}.

    Keys are ["subsystem.name"]; a snapshot is flat and sorted, so one
    JSON serializer covers the syscall surface, the bench harness and
    the CLI. Attaching two groups under one subsystem (e.g. several
    pagers named alike) sums their values. *)

type registry
type snapshot = (string * float) list

type group
(** The counters of one stats block, in declaration order. A group
    needs no registry, so a block may exist before the host that
    reports it. *)

type counter
(** A monotone counter (or high-water mark): one mutable int. *)

type histogram
(** A sample accumulator; snapshots expand it into [.count], [.mean],
    [.p50], [.p95] and [.max] keys (the latter four only when
    non-empty). *)

val create : unit -> registry

val group : unit -> group
val counter : group -> string -> counter
(** [counter g name] declares a counter starting at 0 and appends it
    to [g]. *)

val incr : counter -> unit
val add : counter -> int -> unit

val raise_to : counter -> int -> unit
(** High-water mark: [raise_to c v] sets [c] to [max (value c) v]. *)

val value : counter -> int

val values : group -> (string * int) list
(** The group's counters and their values, in declaration order. *)

val attach : registry -> subsystem:string -> group -> unit
(** Register a group: its counters snapshot as ["subsystem.name"]. *)

val gauge : registry -> subsystem:string -> string -> (unit -> int) -> unit
(** A sampled value (queue depth, free frames): the closure runs at
    snapshot time, never on a hot path. *)

val histogram : registry -> subsystem:string -> string -> histogram
val observe : histogram -> float -> unit

val snapshot : registry -> snapshot
(** Flat, sorted; duplicate keys summed. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Pointwise [after - before] over [after]'s keys (missing [before]
    keys count as 0). Meaningful for monotone counters; histogram
    percentile keys subtract numerically like everything else. *)

val merge : snapshot list -> snapshot
(** Pointwise sum over the union of keys (e.g. the hosts of a
    cluster). *)

val get : ?default:float -> snapshot -> string -> float

val to_json : ?indent:int -> snapshot -> string
(** One ["key": number] pair per line, flat — the same shape the bench
    harness's gate line-parses. *)
