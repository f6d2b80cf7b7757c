(** A small on-disk filesystem: superblock, fixed inode table, block
    bitmap, data blocks with single-indirect addressing.

    This is the secondary-storage substrate shared by the Mach
    filesystem server (§4.1) and the traditional-UNIX baseline (§9), so
    both systems pay identical disk costs for identical data. Metadata
    is cached in memory after mount and written through; only data-block
    transfers and metadata write-through touch the simulated disk. *)

type t

exception Fs_error of string

val format : Mach_hw.Disk.t -> max_files:int -> t
(** Initialise an empty filesystem on the disk. The disk's block size
    is the filesystem block size. *)

val mount : Mach_hw.Disk.t -> t
(** Re-read the metadata of a previously formatted disk (crash-recovery
    entry point). *)

val disk : t -> Mach_hw.Disk.t
val block_size : t -> int
val max_file_size : t -> int

val exists : t -> string -> bool
val file_size : t -> string -> int option
val list_files : t -> string list

val create : t -> string -> unit
(** Create an empty file; no-op if it exists. Raises {!Fs_error} when
    the inode table is full or the name is too long (> 63 bytes). *)

val delete : t -> string -> unit

val read_file : t -> string -> bytes option
(** Whole-file read; charges disk time per data block. *)

val write_file : t -> string -> bytes -> unit
(** Whole-file (re)write, creating the file if needed. *)

val read_range : t -> string -> off:int -> len:int -> bytes option
(** Range read (short when crossing EOF). *)

val read_block_into :
  t -> string -> index:int -> src_off:int -> dst:bytes -> dst_off:int -> len:int -> bool
(** Copy [len] bytes of the [index]-th file block from [src_off] into
    [dst] at [dst_off], charging one whole-block disk read. A block
    inside the file that was never allocated reads as zeroes, uncharged.
    [false], with [dst] untouched, when the block lies wholly past EOF. *)

val write_block_from : t -> string -> index:int -> src:bytes -> src_off:int -> len:int -> unit
(** Write the [len]-byte slice of [src] at [src_off] (at most one
    block) as the [index]-th file block, creating the file and
    extending it if needed. *)

(** {2 Block-level access for external caching layers}

    The UNIX baseline's buffer cache sits between the file layer and
    the disk: it translates file blocks to disk blocks here and does
    its own {!Mach_hw.Disk} I/O. *)

val file_disk_block : t -> string -> index:int -> int
(** The disk block holding the [index]-th file block; 0 (the
    superblock, never a data block) if the file doesn't exist or the
    block was never allocated. Allocates nothing once the file's
    indirect block has been decoded. *)

val ensure_disk_block : t -> string -> index:int -> int
(** Allocate (if needed) and return the disk block for a file block,
    creating the file too. Charges metadata write-through. *)

val note_file_size : t -> string -> int -> unit
(** Grow the recorded size to at least the given value. *)
