module Engine = Mach_sim.Engine
module Semaphore = Mach_sim.Semaphore

(* The store is sparse: a block is [unwritten] (physically equal to
   [Bytes.empty]) until its first write allocates it, and reads as
   zeroes until then. Views made by [reattach] share the array, so a
   block allocated through one view is seen through every other. *)
let unwritten = Bytes.empty

type t = {
  engine : Engine.t;
  name : string;
  block_size : int;
  store : bytes array;
  seek_us : float;
  transfer_us_per_byte : float;
  arm : Semaphore.t; (* one transfer at a time; queued requests wait *)
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create engine ~name ~blocks ~block_size ?(seek_us = 20_000.0) ?(transfer_us_per_byte = 1.0) () =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Disk.create: bad geometry";
  {
    engine;
    name;
    block_size;
    store = Array.make blocks unwritten;
    seek_us;
    transfer_us_per_byte;
    arm = Semaphore.create 1;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let name t = t.name
let blocks t = Array.length t.store
let block_size t = t.block_size

let reattach t engine =
  {
    t with
    engine;
    arm = Semaphore.create 1;
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
  }

let check t block =
  if block < 0 || block >= Array.length t.store then
    invalid_arg (Printf.sprintf "Disk %s: block %d out of range" t.name block)

(* The block's bytes, allocating (zeroed) on first write. *)
let writable t block =
  let b = t.store.(block) in
  if b != unwritten then b
  else begin
    let b = Bytes.make t.block_size '\000' in
    t.store.(block) <- b;
    b
  end

(* Copy [len] bytes of a block from [src_off]; unwritten blocks read as
   zeroes. *)
let copy_out t block ~src_off ~dst ~dst_off ~len =
  let b = t.store.(block) in
  if b == unwritten then Bytes.fill dst dst_off len '\000'
  else Bytes.blit b src_off dst dst_off len

let transfer t nbytes =
  Semaphore.with_permit t.arm (fun () ->
      Engine.sleep (t.seek_us +. (float_of_int nbytes *. t.transfer_us_per_byte)))

let check_range t what ~block_off ~buf ~buf_off ~len =
  if len < 0 || block_off < 0 || block_off + len > t.block_size then
    invalid_arg (Printf.sprintf "Disk.%s: range outside the block" what);
  if buf_off < 0 || buf_off + len > Bytes.length buf then
    invalid_arg (Printf.sprintf "Disk.%s: range outside the buffer" what)

let read_into t ~block ~src_off ~dst ~dst_off ~len =
  check t block;
  check_range t "read_into" ~block_off:src_off ~buf:dst ~buf_off:dst_off ~len;
  transfer t t.block_size;
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + t.block_size;
  copy_out t block ~src_off ~dst ~dst_off ~len

let read t ~block =
  let out = Bytes.create t.block_size in
  read_into t ~block ~src_off:0 ~dst:out ~dst_off:0 ~len:t.block_size;
  out

let write_from t ~block ~src ~src_off ~len =
  check t block;
  check_range t "write_from" ~block_off:0 ~buf:src ~buf_off:src_off ~len;
  transfer t len;
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + len;
  Bytes.blit src src_off (writable t block) 0 len

let write t ~block data = write_from t ~block ~src:data ~src_off:0 ~len:(Bytes.length data)

let read_raw t ~block =
  check t block;
  let out = Bytes.create t.block_size in
  copy_out t block ~src_off:0 ~dst:out ~dst_off:0 ~len:t.block_size;
  out

let write_raw_from t ~block ~dst_off ~src ~src_off ~len =
  check t block;
  check_range t "write_raw" ~block_off:dst_off ~buf:src ~buf_off:src_off ~len;
  Bytes.blit src src_off (writable t block) dst_off len

let write_raw t ~block data =
  write_raw_from t ~block ~dst_off:0 ~src:data ~src_off:0 ~len:(Bytes.length data)

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let ops t = t.reads + t.writes

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.bytes_read <- 0;
  t.bytes_written <- 0
