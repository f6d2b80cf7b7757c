(* netmem: §4.2 network shared memory on a lossy 3-host NORMA cluster.

   One Netmem region of 64 pages served from host 0; one client per
   host runs a hot/cold working set (25% of the pages take 80% of the
   accesses) with one write in ten. The fabric drops 1% of messages and
   reorders some, on a plan seeded from the benchmark seed and passed
   to [create_cluster ~chaos], so MACH_CHAOS cannot change the
   workload; remote delivery therefore runs over the reliable channels.

   A read is one [Syscalls.touch]; a write stores an 8-byte stamp at the
   start of the page, naming its host and sequence number. Once every
   client is done, a coherent read of each page must return the stamp
   of the write to that page that completed last. *)

open Mach
module Rng = Mach_util.Rng
module Netmem = Mach_pagers.Netmem
module Chaos = Mach_sim.Chaos
module Access_patterns = Mach_workloads.Access_patterns

let page = 4096
let hosts = 3
let pages = 64
let plan = { Chaos.drop = 0.01; duplicate = 0.0; reorder = 0.02; jitter_us = 500.0 }
let policy = Fault.Abort_after 10_000_000.0

(* The unit op is a step of this many accesses. A single touch is the
   wrong unit: most hit a resident page, so its median is the constant
   one-word access time on every seed and says nothing. *)
let step_accesses = 4

let stamp ~host ~seq = Int64.of_int ((host lsl 32) lor seq)

let run h ~seed ~accesses_per_host =
  let chaos = Chaos.create ~seed () in
  Chaos.set_default_plan chaos plan;
  let cluster = Kernel.create_cluster ~hosts ~chaos () in
  let engine = cluster.Kernel.c_engine in
  let kernels = cluster.Kernel.c_kernels in
  Harness.attach h ~engine ~kernels ~disks:[];
  (* Stamp of the last completed write to each page; 0 = never written. *)
  let last = Array.make pages 0L in
  Engine.spawn engine ~name:"bench-setup" (fun () ->
      let nm = Netmem.start kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      let root = Rng.create seed in
      let clients =
        Array.mapi
          (fun host k ->
            let task = Task.create k ~name:(Printf.sprintf "nm%d" host) () in
            let rng = Rng.split root in
            let accesses =
              Access_patterns.working_set ~pages ~ops:accesses_per_host ~write_ratio:0.1 ~hot_fraction:0.25
                ~hot_bias:0.8 rng
            in
            (host, task, rng, accesses))
          kernels
      in
      let remaining = ref hosts in
      let checker = Ivar.create () in
      let inv0 = Netmem.invalidations nm and grants0 = Netmem.grants nm in
      let steps_per_host = (accesses_per_host + step_accesses - 1) / step_accesses in
      Harness.start h ~planned:(hosts * steps_per_host);
      Array.iter
        (fun (host, task, rng, accesses) ->
          ignore
            (Thread.spawn task ~name:(Printf.sprintf "nm%d.main" host) (fun () ->
                 let addr =
                   Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                     ~memory_object:region ~offset:0 ()
                 in
                 let access seq { Access_patterns.ap_page; ap_write } =
                   let base = addr + (ap_page * page) in
                   let r =
                     if ap_write then begin
                       let v = stamp ~host ~seq in
                       let b = Bytes.create 8 in
                       Bytes.set_int64_le b 0 v;
                       let r =
                         Harness.call h "write_bytes" (fun () -> Syscalls.write_bytes task ~addr:base b ~policy ())
                       in
                       if Result.is_ok r then last.(ap_page) <- v;
                       r
                     end
                     else
                       Harness.call h "touch" (fun () ->
                           Syscalls.touch task ~addr:(base + Rng.int rng page) ~write:false ~policy ())
                   in
                   Result.map_error
                     (fun e -> Format.asprintf "host %d page %d: %a" host ap_page Access.pp_error e)
                     r
                 in
                 let accesses = Array.of_list accesses in
                 for step = 0 to steps_per_host - 1 do
                   let last_access = min (Array.length accesses) ((step + 1) * step_accesses) in
                   let rec go i =
                     if i >= last_access then Ok ()
                     else Result.bind (access (i + 1) accesses.(i)) (fun () -> go (i + 1))
                   in
                   Harness.op h (fun () -> go (step * step_accesses))
                 done;
                 decr remaining;
                 if !remaining = 0 then begin
                   Harness.add_extra h "netmem.invalidations" (float_of_int (Netmem.invalidations nm - inv0));
                   Harness.add_extra h "netmem.grants" (float_of_int (Netmem.grants nm - grants0));
                   Harness.add_extra h "netmem.accesses" (float_of_int (hosts * accesses_per_host));
                   Harness.finish h;
                   Ivar.fill checker (task, addr)
                 end)))
        clients;
      (* The coherent read-back, from whichever client finished last. *)
      let task, addr = Ivar.read checker in
      Array.iteri
        (fun pg want ->
          match Syscalls.read_bytes task ~addr:(addr + (pg * page)) ~len:8 ~policy () with
          | Ok b when Bytes.get_int64_le b 0 = want -> ()
          | Ok b ->
            Harness.fail h
              (Printf.sprintf "page %d reads %Lx, last completed write was %Lx" pg (Bytes.get_int64_le b 0) want)
          | Error e -> Harness.fail h (Format.asprintf "read-back page %d: %a" pg Access.pp_error e))
        last);
  Harness.run h
