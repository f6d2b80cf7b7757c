(* E6 — §4.2: consistent network shared memory. Efficiency "depends on
   the extent to which [algorithms] exhibit read/write locality":
   raising the write ratio multiplies invalidations and slows every
   access (the Li & Hudak curve). *)

open Mach
open Common
module Netmem = Mach_pagers.Netmem
module Access_patterns = Mach_workloads.Access_patterns

let page = 4096

let run_point ?(hosts = 2) ~pages ~ops_per_client ~write_ratio () =
  run_cluster ~hosts (fun cluster ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      let engine = cluster.Kernel.c_engine in
      let run_client host seed finished =
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "sm-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "sm-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let rng = Rng.create seed in
               let trace =
                 Access_patterns.working_set ~pages ~ops:ops_per_client ~write_ratio
                   ~hot_fraction:0.25 ~hot_bias:0.8 rng
               in
               List.iter
                 (fun { Access_patterns.ap_page; ap_write } ->
                   match
                     Syscalls.touch task
                       ~addr:(addr + (ap_page * page) + Rng.int rng page)
                       ~write:ap_write
                       ~policy:(Fault.Abort_after 10_000_000.0) ()
                   with
                   | Ok () -> ()
                   | Error _ -> failwith "E6 access failed")
                 trace;
               Ivar.fill finished ()))
      in
      let fins = List.init hosts (fun _ -> Ivar.create ()) in
      let t0 = Engine.now engine in
      List.iteri (fun h fin -> run_client h ((11 * h) + 11) fin) fins;
      List.iter Ivar.read fins;
      let elapsed = Engine.now engine -. t0 in
      (elapsed, Netmem.invalidations nm, Netmem.grants nm))

let ratios = [ 0.0; 0.02; 0.1; 0.3; 0.5 ]
let pages = 32
let ops_per_client = 400

(* Invalidations per 100 accesses, over all [hosts] clients. *)
let per_100 ~hosts inv = float_of_int inv /. float_of_int (hosts * ops_per_client) *. 100.0

let run () =
  let t =
    Table.create
      ~title:"E6: network shared memory, 2 hosts, 32 pages, hot/cold working set (Section 4.2)"
      ~columns:
        [ "write ratio"; "avg access us"; "invalidations"; "write grants"; "inval per 100 ops" ]
  in
  let by_ratio =
    List.concat_map
      (fun wr ->
        let elapsed, inv, grants = run_point ~pages ~ops_per_client ~write_ratio:wr () in
        let access_us = elapsed /. float_of_int (2 * ops_per_client) in
        Table.row t
          [
            Printf.sprintf "%.2f" wr;
            us access_us;
            string_of_int inv;
            string_of_int grants;
            Printf.sprintf "%.1f" (per_100 ~hosts:2 inv);
          ];
        let pct = Printf.sprintf "wr%.0f" (wr *. 100.0) in
        [
          ("access_us_" ^ pct, access_us);
          ("invalidations_" ^ pct, float_of_int inv);
          ("grants_" ^ pct, float_of_int grants);
          ("inval_per_100_ops_" ^ pct, per_100 ~hosts:2 inv);
        ])
      ratios
  in
  (* More sharers: every write has more copies to invalidate. *)
  let t2 =
    Table.create
      ~title:"E6b: same workload at write ratio 0.10, varying the number of sharing hosts"
      ~columns:[ "hosts"; "avg access us"; "invalidations"; "inval per 100 ops" ]
  in
  let by_hosts =
    List.concat_map
      (fun hosts ->
        let elapsed, inv, _grants =
          run_point ~hosts ~pages ~ops_per_client ~write_ratio:0.1 ()
        in
        let access_us = elapsed /. float_of_int (hosts * ops_per_client) in
        Table.row t2
          [
            string_of_int hosts;
            us access_us;
            string_of_int inv;
            Printf.sprintf "%.1f" (per_100 ~hosts inv);
          ];
        [
          (Printf.sprintf "access_us_hosts%d" hosts, access_us);
          (Printf.sprintf "inval_per_100_ops_hosts%d" hosts, per_100 ~hosts inv);
        ])
      [ 2; 3; 4 ]
  in
  ([ t; t2 ], by_ratio @ by_hosts)

let experiment =
  {
    id = "E6";
    title = "Network shared memory coherence";
    paper_claim =
      "Multiple readers share pages freely; a write invalidates all other cached copies before \
       being granted, so performance degrades as the write ratio rises — efficient exactly when \
       algorithms exhibit read/write locality (s4.2, after Li).";
    run;
  }
