(** Simulated block storage device.

    A single request stream with a seek + per-byte transfer latency
    model; concurrent requests queue (FIFO). Operation and byte counters
    feed the §9 "number of I/O operations" measurements.

    The store is sparse: a block takes no host memory until its first
    write, and a never-written block reads as zeroes through {!read},
    {!read_into} and {!read_raw}. *)

type t

val create :
  Mach_sim.Engine.t ->
  name:string ->
  blocks:int ->
  block_size:int ->
  ?seek_us:float ->
  ?transfer_us_per_byte:float ->
  unit ->
  t
(** 1987-class defaults: 20 ms average seek, 1 µs/byte transfer
    (≈ 1 MB/s). *)

val name : t -> string
val blocks : t -> int
val block_size : t -> int

val reattach : t -> Mach_sim.Engine.t -> t
(** A view of the same platters on a new simulation engine — the
    crash-recovery story: the machine reboots, the disk contents
    persist. Stats start fresh; both views share the stored bytes. *)

val read : t -> block:int -> bytes
(** Blocking; charges simulated seek + transfer time. *)

val write : t -> block:int -> bytes -> unit
(** Blocking; data must be at most one block, shorter writes leave the
    block's tail unchanged. *)

val read_into : t -> block:int -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** {!read} without the intermediate copy: charges the same whole-block
    transfer, then copies [len] bytes of the block from [src_off] into
    [dst] at [dst_off]. Both ranges are checked before anything is
    charged. *)

val write_from : t -> block:int -> src:bytes -> src_off:int -> len:int -> unit
(** {!write} of the [len]-byte slice of [src] at [src_off], without
    copying it out first. *)

val read_raw : t -> block:int -> bytes
(** Instantaneous, no time charge and no counter update — for crash
    recovery inspection in tests. *)

val write_raw : t -> block:int -> bytes -> unit

val write_raw_from : t -> block:int -> dst_off:int -> src:bytes -> src_off:int -> len:int -> unit
(** Instantaneous in-place update of [len] bytes of the block at
    [dst_off] — metadata read-modify-write without copying the block. *)

(** {2 Statistics} *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
val ops : t -> int
val reset_stats : t -> unit
