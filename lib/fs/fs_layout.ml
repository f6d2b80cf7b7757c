module Disk = Mach_hw.Disk
module Codec = Mach_util.Codec

exception Fs_error of string

let magic = 0x4D46_5331 (* "MFS1" *)
let name_max = 63
let direct_blocks = 20

type inode = {
  mutable used : bool;
  mutable name : string;
  mutable size : int;
  direct : int array;  (* data block numbers; 0 = unallocated *)
  mutable indirect : int;  (* block holding further pointers; 0 = none *)
  mutable ptrs : int array;
      (* [indirect] decoded, cached like the inode table itself; [||]
         until first used *)
}

type t = {
  disk : Disk.t;
  bs : int;
  inodes : inode array;
  itable_start : int;
  itable_blocks : int;
  mutable bitmap : Bytes.t;  (* one byte per data block: 0 free, 1 used *)
  bitmap_start : int;
  bitmap_blocks : int;
  data_start : int;
  by_name : (string, int) Hashtbl.t;
  ptrs_per_block : int;
}

let inode_size = 256
let disk t = t.disk
let block_size t = t.bs
let max_file_size t = (direct_blocks + t.ptrs_per_block) * t.bs

let encode_inode ino =
  let e = Codec.Enc.create () in
  Codec.Enc.bool e ino.used;
  Codec.Enc.string e ino.name;
  Codec.Enc.int e ino.size;
  Array.iter (fun b -> Codec.Enc.u32 e b) ino.direct;
  Codec.Enc.u32 e ino.indirect;
  let b = Codec.Enc.to_bytes e in
  if Bytes.length b > inode_size then raise (Fs_error "inode overflow");
  let out = Bytes.make inode_size '\000' in
  Bytes.blit b 0 out 0 (Bytes.length b);
  out

let decode_inode b =
  let d = Codec.Dec.of_bytes b in
  let used = Codec.Dec.bool d in
  let name = Codec.Dec.string d in
  let size = Codec.Dec.int d in
  let direct = Array.init direct_blocks (fun _ -> Codec.Dec.u32 d) in
  let indirect = Codec.Dec.u32 d in
  { used; name; size; direct; indirect; ptrs = [||] }

let geometry disk ~max_files =
  let bs = Disk.block_size disk in
  let inodes_per_block = bs / inode_size in
  let itable_blocks = (max_files + inodes_per_block - 1) / inodes_per_block in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  (* One byte per data block; sized for the remaining disk. *)
  let remaining = Disk.blocks disk - bitmap_start in
  let bitmap_blocks = max 1 (remaining / (bs + 1)) in
  let data_start = bitmap_start + bitmap_blocks in
  (bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start)

(* Superblock/metadata initialisation happens at boot, outside measured
   workloads, so it uses raw (uncharged) writes. *)
let flush_superblock t =
  let e = Codec.Enc.create () in
  Codec.Enc.u32 e magic;
  Codec.Enc.int e (Array.length t.inodes);
  Codec.Enc.int e t.itable_blocks;
  Codec.Enc.int e t.bitmap_blocks;
  Disk.write_raw t.disk ~block:0 (Codec.Enc.to_bytes e)

(* Metadata write-through is uncharged (modelled as asynchronous,
   batched metadata I/O): both the Mach server and the UNIX baseline
   use this layer, so experiments compare data movement, not inode
   bookkeeping. *)
let flush_inode t idx =
  let bs = t.bs in
  let inodes_per_block = bs / inode_size in
  let block = t.itable_start + (idx / inodes_per_block) in
  let slot = idx mod inodes_per_block in
  (* Update the slot in place: the table is cached in memory, so the
     rest of the block needs no read. *)
  Disk.write_raw_from t.disk ~block ~dst_off:(slot * inode_size) ~src:(encode_inode t.inodes.(idx))
    ~src_off:0 ~len:inode_size

let flush_bitmap_byte t data_block =
  Disk.write_raw_from t.disk ~block:(t.bitmap_start + (data_block / t.bs))
    ~dst_off:(data_block mod t.bs) ~src:t.bitmap ~src_off:data_block ~len:1

let data_block_count t = t.bitmap_blocks * t.bs

let alloc_block t =
  let n = min (data_block_count t) (Disk.blocks t.disk - t.data_start) in
  let rec find i = if i >= n then raise (Fs_error "disk full") else if Bytes.get t.bitmap i = '\000' then i else find (i + 1) in
  let i = find 0 in
  Bytes.set t.bitmap i '\001';
  flush_bitmap_byte t i;
  t.data_start + i

let free_block t blk =
  let i = blk - t.data_start in
  if i >= 0 && i < Bytes.length t.bitmap then begin
    Bytes.set t.bitmap i '\000';
    flush_bitmap_byte t i
  end

let format disk ~max_files =
  let bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start =
    geometry disk ~max_files
  in
  let inodes_per_block = bs / inode_size in
  let t =
    {
      disk;
      bs;
      inodes =
        Array.init (itable_blocks * inodes_per_block) (fun _ ->
            {
              used = false;
              name = "";
              size = 0;
              direct = Array.make direct_blocks 0;
              indirect = 0;
              ptrs = [||];
            });
      itable_start;
      itable_blocks;
      bitmap = Bytes.make (bitmap_blocks * bs) '\000';
      bitmap_start;
      bitmap_blocks;
      data_start;
      by_name = Hashtbl.create 64;
      ptrs_per_block = bs / 4;
    }
  in
  flush_superblock t;
  for b = 0 to itable_blocks - 1 do
    Disk.write_raw t.disk ~block:(itable_start + b) (Bytes.make bs '\000')
  done;
  for b = 0 to bitmap_blocks - 1 do
    Disk.write_raw t.disk ~block:(bitmap_start + b) (Bytes.make bs '\000')
  done;
  t

let mount disk =
  let sb = Disk.read_raw disk ~block:0 in
  let d = Codec.Dec.of_bytes sb in
  if Codec.Dec.u32 d <> magic then raise (Fs_error "bad magic: not a filesystem");
  let n_inodes = Codec.Dec.int d in
  let itable_blocks = Codec.Dec.int d in
  let bitmap_blocks = Codec.Dec.int d in
  let bs = Disk.block_size disk in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  let data_start = bitmap_start + bitmap_blocks in
  let inodes =
    Array.init n_inodes (fun idx ->
        let inodes_per_block = bs / inode_size in
        let raw = Disk.read_raw disk ~block:(itable_start + (idx / inodes_per_block)) in
        let slot = idx mod inodes_per_block in
        decode_inode (Bytes.sub raw (slot * inode_size) inode_size))
  in
  let bitmap = Bytes.create (bitmap_blocks * bs) in
  for b = 0 to bitmap_blocks - 1 do
    Bytes.blit (Disk.read_raw disk ~block:(bitmap_start + b)) 0 bitmap (b * bs) bs
  done;
  let t =
    {
      disk;
      bs;
      inodes;
      itable_start;
      itable_blocks;
      bitmap;
      bitmap_start;
      bitmap_blocks;
      data_start;
      by_name = Hashtbl.create 64;
      ptrs_per_block = bs / 4;
    }
  in
  Array.iteri (fun idx ino -> if ino.used then Hashtbl.replace t.by_name ino.name idx) t.inodes;
  t

let lookup t name = Hashtbl.find_opt t.by_name name
let exists t name = Hashtbl.mem t.by_name name

let file_size t name =
  match lookup t name with Some idx -> Some t.inodes.(idx).size | None -> None

let list_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.by_name [] |> List.sort String.compare

let create t name =
  if String.length name > name_max then raise (Fs_error "name too long");
  if not (exists t name) then begin
    let rec find i =
      if i >= Array.length t.inodes then raise (Fs_error "inode table full")
      else if not t.inodes.(i).used then i
      else find (i + 1)
    in
    let idx = find 0 in
    let ino = t.inodes.(idx) in
    ino.used <- true;
    ino.name <- name;
    ino.size <- 0;
    Array.fill ino.direct 0 direct_blocks 0;
    ino.indirect <- 0;
    ino.ptrs <- [||];
    Hashtbl.replace t.by_name name idx;
    flush_inode t idx
  end

(* The decoded indirect block, read (uncharged, like the rest of the
   metadata) on first use and kept with the inode after that. Without an
   indirect block the pointers start from zero: nothing half-built by a
   failed allocation survives. *)
let indirect_ptrs t ino =
  if ino.indirect = 0 then ino.ptrs <- Array.make t.ptrs_per_block 0
  else if Array.length ino.ptrs = 0 then begin
    let raw = Disk.read_raw t.disk ~block:ino.indirect in
    ino.ptrs <-
      Array.init t.ptrs_per_block (fun i ->
          Bytes.get_uint16_le raw (4 * i) lor (Bytes.get_uint16_le raw ((4 * i) + 2) lsl 16))
  end;
  ino.ptrs

let write_indirect t ino =
  if ino.indirect = 0 then ino.indirect <- alloc_block t;
  let raw = Bytes.make t.bs '\000' in
  Array.iteri
    (fun i p ->
      Bytes.set_uint16_le raw (4 * i) (p land 0xffff);
      Bytes.set_uint16_le raw ((4 * i) + 2) ((p lsr 16) land 0xffff))
    ino.ptrs;
  Disk.write t.disk ~block:ino.indirect raw

(* The disk block holding file block [index], or 0. *)
let block_of t ino index =
  if index < direct_blocks then ino.direct.(index)
  else
    let i = index - direct_blocks in
    if i >= t.ptrs_per_block then raise (Fs_error "file too large")
    else if ino.indirect = 0 then 0
    else (indirect_ptrs t ino).(i)

let ensure_block t idx ino index =
  let existing = block_of t ino index in
  if existing <> 0 then existing
  else begin
    let blk = alloc_block t in
    if index < direct_blocks then ino.direct.(index) <- blk
    else begin
      (indirect_ptrs t ino).(index - direct_blocks) <- blk;
      write_indirect t ino
    end;
    flush_inode t idx;
    blk
  end

(* Free every block from file block [keep] on and clear its pointer, in
   the cached copy and on disk; an indirect block left without pointers
   is freed too. *)
let free_blocks_from t ino ~keep =
  for i = keep to direct_blocks - 1 do
    if ino.direct.(i) <> 0 then begin
      free_block t ino.direct.(i);
      ino.direct.(i) <- 0
    end
  done;
  if ino.indirect <> 0 then begin
    let ptrs = indirect_ptrs t ino in
    let cleared = ref false in
    for i = max 0 (keep - direct_blocks) to t.ptrs_per_block - 1 do
      if ptrs.(i) <> 0 then begin
        free_block t ptrs.(i);
        ptrs.(i) <- 0;
        cleared := true
      end
    done;
    if keep <= direct_blocks then begin
      free_block t ino.indirect;
      ino.indirect <- 0;
      ino.ptrs <- [||]
    end
    else if !cleared then write_indirect t ino
  end

let file_disk_block t name ~index =
  match Hashtbl.find t.by_name name with
  | idx -> block_of t t.inodes.(idx) index
  | exception Not_found -> 0

let ensure_disk_block t name ~index =
  create t name;
  match lookup t name with
  | None -> assert false
  | Some idx -> ensure_block t idx t.inodes.(idx) index

let note_file_size t name size =
  match lookup t name with
  | None -> ()
  | Some idx ->
    let ino = t.inodes.(idx) in
    if size > ino.size then begin
      ino.size <- size;
      flush_inode t idx
    end

let read_block_into t name ~index ~src_off ~dst ~dst_off ~len =
  match Hashtbl.find t.by_name name with
  | exception Not_found -> false
  | idx ->
    let ino = t.inodes.(idx) in
    if index < 0 || index * t.bs >= ino.size then false
    else begin
      (match block_of t ino index with
      | 0 -> Bytes.fill dst dst_off len '\000'
      | blk -> Disk.read_into t.disk ~block:blk ~src_off ~dst ~dst_off ~len);
      true
    end

let write_block_from t name ~index ~src ~src_off ~len =
  create t name;
  let idx = Hashtbl.find t.by_name name in
  let ino = t.inodes.(idx) in
  let blk = ensure_block t idx ino index in
  Disk.write_from t.disk ~block:blk ~src ~src_off ~len;
  let upto = (index * t.bs) + len in
  if upto > ino.size then begin
    ino.size <- upto;
    flush_inode t idx
  end

let read_file t name =
  match lookup t name with
  | None -> None
  | Some idx ->
    let ino = t.inodes.(idx) in
    let out = Bytes.make ino.size '\000' in
    let nblocks = (ino.size + t.bs - 1) / t.bs in
    for i = 0 to nblocks - 1 do
      let blk = block_of t ino i in
      if blk <> 0 then
        Disk.read_into t.disk ~block:blk ~src_off:0 ~dst:out ~dst_off:(i * t.bs)
          ~len:(min t.bs (ino.size - (i * t.bs)))
    done;
    Some out

let rec delete t name =
  match lookup t name with
  | None -> ()
  | Some idx ->
    let ino = t.inodes.(idx) in
    (* Free from the allocation pointers, not the recorded size: a
       failed whole-file write rolls back before the size is set. *)
    free_blocks_from t ino ~keep:0;
    ino.used <- false;
    ino.name <- "";
    ino.size <- 0;
    Hashtbl.remove t.by_name name;
    flush_inode t idx

and write_file t name data =
  (* Whole-file semantics: a failed write (disk full) must not leave
     half the disk consumed — the partial file is deleted and its
     blocks freed before the error propagates. *)
  try write_file_unchecked t name data
  with Fs_error _ as e ->
    delete t name;
    raise e

and write_file_unchecked t name data =
  create t name;
  match lookup t name with
  | None -> assert false
  | Some idx ->
    let ino = t.inodes.(idx) in
    let old_blocks = (ino.size + t.bs - 1) / t.bs in
    let new_blocks = (Bytes.length data + t.bs - 1) / t.bs in
    if new_blocks < old_blocks then free_blocks_from t ino ~keep:new_blocks;
    for i = 0 to new_blocks - 1 do
      let blk = ensure_block t idx ino i in
      Disk.write_from t.disk ~block:blk ~src:data ~src_off:(i * t.bs)
        ~len:(min t.bs (Bytes.length data - (i * t.bs)))
    done;
    ino.size <- Bytes.length data;
    flush_inode t idx

let read_range t name ~off ~len =
  match lookup t name with
  | None -> None
  | Some idx ->
    let ino = t.inodes.(idx) in
    if off >= ino.size then Some Bytes.empty
    else begin
      let len = min len (ino.size - off) in
      let out = Bytes.make len '\000' in
      let first = off / t.bs in
      let last = (off + len - 1) / t.bs in
      for i = first to last do
        let blk = block_of t ino i in
        let src_lo = max off (i * t.bs) in
        let src_hi = min (off + len) ((i + 1) * t.bs) in
        if blk <> 0 then
          Disk.read_into t.disk ~block:blk ~src_off:(src_lo - (i * t.bs)) ~dst:out
            ~dst_off:(src_lo - off) ~len:(src_hi - src_lo)
      done;
      Some out
    end
