(* compile: the §9 build on the Mach mapped-file path.

   One host (the default uniprocessor), one disk formatted by the §4.1
   minimal filesystem, a synthetic project from [Compile_sim.generate].
   One cold build is followed by warm rebuilds; each build ends with a
   link step that maps an image larger than physical memory and
   dirties every page, so the pageout laundry writes it back through
   the filesystem while the next build reads its sources.

   The build runs through this file's own file-ops record rather than
   [Compile_sim.mach_ops], which turns a failed read into 0 bytes and
   a failed write into a no-op: here every returned error is a failed
   op, every read is compared with what was written, and every object
   file is read back at the end. *)

open Mach
module Rng = Mach_util.Rng
module Compile_sim = Mach_workloads.Compile_sim
module Minimal_fs = Mach_pagers.Minimal_fs
module Client = Minimal_fs.Client

let page = 4096
let sources = 64
let builds = 3
let frames = 1024
let image = "a.out"
let image_pages = frames (* all of physical memory: larger than what is free *)

let fs_error what name e = Format.asprintf "%s %s: %a" what name Client.pp_error e

(* Map [name], touch every byte and compare with [want]. *)
let read_checked h task ~server name want =
  match Harness.call h "fs_read_file" (fun () -> Client.read_file task ~server name) with
  | Error e -> Error (fs_error "fs_read_file" name e)
  | Ok (_, 0) -> if Bytes.length want = 0 then Ok 0 else Error (name ^ ": read back empty")
  | Ok (addr, size) ->
    let got = Harness.call h "read_bytes" (fun () -> Syscalls.read_bytes task ~addr ~len:size ()) in
    Harness.call h "vm_deallocate" (fun () -> Syscalls.vm_deallocate task ~addr ~size);
    (match got with
    | Error e -> Error (Format.asprintf "touch %s: %a" name Access.pp_error e)
    | Ok b when Bytes.equal b want -> Ok size
    | Ok _ -> Error (name ^ ": contents differ from what was written"))

(* The measured build's file operations. [files] holds what each file
   should contain; a write is recorded there once it succeeded. *)
let file_ops h task ~server ~files =
  let read_file name =
    let size = ref 0 in
    Harness.op h (fun () ->
        match Hashtbl.find_opt files name with
        | None -> Error (name ^ ": read of a file never written")
        | Some want -> Result.map (fun n -> size := n) (read_checked h task ~server name want));
    !size
  in
  let write_file name data =
    Harness.op h (fun () ->
        match Harness.call h "fs_write_file" (fun () -> Client.write_file task ~server name data) with
        | Ok () ->
          Hashtbl.replace files name data;
          Ok ()
        | Error e -> Error (fs_error "fs_write_file" name e))
  in
  {
    Compile_sim.read_file;
    write_file;
    compute = (fun us -> Cpu.compute (Task.kernel task) us);
    io_ops = (fun () -> Harness.disk_ops h);
  }

(* The link step: map the image's memory object and dirty every page. *)
let link h task ~server =
  Harness.op h (fun () ->
      match Harness.call h "fs_map_file" (fun () -> Client.map_file task ~server image) with
      | Error e -> Error (fs_error "fs_map_file" image e)
      | Ok (addr, size) ->
        let rec dirty pg =
          if pg * page >= size then Ok ()
          else
            match
              Harness.call h "touch" (fun () -> Syscalls.touch task ~addr:(addr + (pg * page)) ~write:true ())
            with
            | Ok () -> dirty (pg + 1)
            | Error e -> Error (Format.asprintf "link: %a" Access.pp_error e)
        in
        let r = dirty 0 in
        Harness.call h "vm_deallocate" (fun () -> Syscalls.vm_deallocate task ~addr ~size);
        r)

let run h ~seed =
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  let sys = Kernel.create_system ~config () in
  let kernel = sys.Kernel.kernel in
  let disk = Disk.create sys.Kernel.engine ~name:"fs-disk" ~blocks:4096 ~block_size:page () in
  Harness.attach h ~engine:sys.Kernel.engine ~kernels:[| kernel |] ~disks:[ disk ];
  let rng = Rng.create seed in
  let proj =
    Compile_sim.generate rng ~sources ~source_bytes:(12 * 1024) ~headers:24 ~header_bytes:(16 * 1024)
      ~headers_per_source:8
  in
  let files = Hashtbl.create 256 in
  Engine.spawn sys.Kernel.engine ~name:"bench-setup" (fun () ->
      let fsrv = Minimal_fs.start kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let task = Task.create kernel ~name:"cc" () in
      ignore
        (Thread.spawn task ~name:"cc.main" (fun () ->
             let populate name data =
               match Client.write_file task ~server name data with
               | Ok () -> Hashtbl.replace files name data
               | Error e -> failwith (fs_error "populate" name e)
             in
             Compile_sim.populate
               { Compile_sim.read_file = (fun _ -> 0); write_file = populate;
                 compute = (fun _ -> ()); io_ops = (fun () -> 0) }
               rng proj;
             populate image (Bytes.make (image_pages * page) 'I');
             (* Per build: a read of each source and its headers and a
                write of its object, plus the link. *)
             let per_build = (sources * (2 + proj.Compile_sim.headers_per_source)) + 1 in
             Harness.start h ~planned:(builds * per_build);
             let ops = file_ops h task ~server ~files in
             for _ = 1 to builds do
               Compile_sim.build ops proj;
               link h task ~server
             done;
             Harness.finish h;
             (* Every object file reads back as last written. *)
             Hashtbl.iter
               (fun name want ->
                 if Filename.check_suffix name ".o" then
                   match read_checked h task ~server name want with
                   | Ok _ -> ()
                   | Error m -> Harness.fail h ("read-back " ^ m))
               (Hashtbl.copy files))));
  Harness.run h
