(** Simulated physical memory: an array of page frames.

    Each frame carries the hardware reference and modify bits that the
    paper's resident-page structures collect from the machine-dependent
    layer (§5.3). The VM system treats frame numbers as opaque, and
    frame contents move only through the checked copies below: no
    frame's buffer escapes this module. *)

type t
type frame = int

val create : frames:int -> page_size:int -> t
(** All frames start free and zero-filled. [page_size] must be a power
    of two. *)

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int

val alloc : t -> frame option
(** Take a free frame (zeroed), or [None] when physical memory is
    exhausted. *)

val free : t -> frame -> unit
(** Return a frame; it is zeroed and its ref/mod bits cleared. Raises
    [Invalid_argument] if the frame is already free. *)

val blit_in : t -> frame -> src:bytes -> src_off:int -> dst_off:int -> len:int -> unit
(** Copy [len] bytes of [src] from [src_off] into the frame at
    [dst_off]. Raises [Invalid_argument] on an unallocated frame or a
    range outside either buffer. *)

val blit_out : t -> frame -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Copy [len] bytes of the frame from [src_off] into [dst] at
    [dst_off]; checked like {!blit_in}. *)

val fill : t -> frame -> char -> unit

val copy : t -> src:frame -> dst:frame -> unit
(** Copy a whole frame (used by copy-on-write resolution). *)

(** {2 Reference / modify bits (set by {!Pmap.access})} *)

val referenced : t -> frame -> bool
val modified : t -> frame -> bool
val set_referenced : t -> frame -> bool -> unit
val set_modified : t -> frame -> bool -> unit
