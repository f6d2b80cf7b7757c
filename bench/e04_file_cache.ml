(* E4 — §9: "the bulk of physical memory as a cache of secondary
   storage" vs the traditional UNIX 10%-of-RAM buffer cache, measured
   on the compilation workload. The paper reports a cached compile
   running twice as fast as under SunOS and a 10x reduction in I/O
   operations for a large system compilation. *)

open Mach
open Common
module Compile_sim = Mach_workloads.Compile_sim
module Unix_fs = Mach_baseline.Unix_fs
module Minimal_fs = Mach_pagers.Minimal_fs

let page = 4096

let project ~sources =
  let rng = Rng.create 0x4D414348 in
  Compile_sim.generate rng ~sources ~source_bytes:(12 * 1024) ~headers:24
    ~header_bytes:(16 * 1024) ~headers_per_source:8

(* Both machines: 4 MB of physical memory, the same disk geometry. *)
let frames = 1024

(* One cold build, then one warm: a second warm build repeats the
   first exactly, since nothing the cache holds changes between them. *)
let cold_then_warm engine ops proj =
  let cold = Compile_sim.measure_build engine ops proj in
  let warm = Compile_sim.measure_build engine ops proj in
  [ cold; warm ]

let run_unix proj =
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"unix-disk" ~blocks:4096 ~block_size:page () in
  let results = ref [] in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      (* The classic configuration: buffer cache is 10% of memory. *)
      let ufs =
        Unix_fs.create sys.Kernel.kernel.Ktypes.k_params ~disk ~cache_buffers:(frames / 10)
          ~format:true
      in
      let ops = Compile_sim.unix_ops ufs in
      Compile_sim.populate ops (Rng.create 7) proj;
      Unix_fs.sync ufs;
      Disk.reset_stats disk;
      results := cold_then_warm sys.Kernel.engine ops proj);
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  !results

(* Pager protocol traffic during the measured builds: messages sent
   (data_requests), pages received (pageins) and the ratio — cluster-in
   should bring in clearly more than one page per request. *)
type pager_traffic = { pt_requests : int; pt_pageins : int }

let run_mach proj =
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  let sys = Kernel.create_system ~config () in
  let disk = Disk.create sys.Kernel.engine ~name:"mach-disk" ~blocks:4096 ~block_size:page () in
  let results = ref [] in
  let st = sys.Kernel.kernel.Ktypes.k_kctx.Kctx.stats in
  let base = ref (0, 0) in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"cc" () in
      ignore
        (Thread.spawn client ~name:"cc.main" (fun () ->
             let ops =
               Compile_sim.mach_ops client ~server:(Minimal_fs.service_port fsrv) ~disk
             in
             Compile_sim.populate ops (Rng.create 7) proj;
             Disk.reset_stats disk;
             base :=
               (Metrics.value st.Vm_types.s_data_requests, Metrics.value st.Vm_types.s_pageins);
             results := cold_then_warm sys.Kernel.engine ops proj)));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  let req0, in0 = !base in
  let traffic =
    {
      pt_requests = Metrics.value st.Vm_types.s_data_requests - req0;
      pt_pageins = Metrics.value st.Vm_types.s_pageins - in0;
    }
  in
  (!results, traffic)

(* Write-side traffic: the link/emit phase of the build — sequentially
   dirtying a mapped output image larger than memory — on a
   memory-constrained machine, so the pageout daemon must clean while
   the writer runs. Runs of adjacent dirty pages coalesce into single
   run-sized data_writes (the write-side mirror of cluster-in). *)
type write_traffic = { wt_writes : int; wt_pageouts : int; wt_laundered : int }

let run_writeback ~frames:wb_frames ~image_pages =
  let config = { Kernel.default_config with Kernel.phys_frames = wb_frames } in
  let sys = Kernel.create_system ~config () in
  let disk =
    Disk.create sys.Kernel.engine ~name:"mach-wb-disk" ~blocks:(4 * image_pages)
      ~block_size:page ()
  in
  let st = sys.Kernel.kernel.Ktypes.k_kctx.Kctx.stats in
  let base = ref (0, 0, 0) in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let client = Task.create sys.Kernel.kernel ~name:"ld" () in
      ignore
        (Thread.spawn client ~name:"ld.main" (fun () ->
             (match
                Minimal_fs.Client.write_file client ~server "image"
                  (Bytes.make (image_pages * page) '\000')
              with
             | Ok () | Error _ -> ());
             match Minimal_fs.Client.map_file client ~server "image" with
             | Error _ -> ()
             | Ok (addr, _size) ->
               base :=
                 ( Metrics.value st.Vm_types.s_data_writes,
                   Metrics.value st.Vm_types.s_pageouts,
                   Metrics.value st.Vm_types.s_laundered );
               for i = 0 to image_pages - 1 do
                 ignore (ok_exn "emit" (Syscalls.touch client ~addr:(addr + (i * page)) ~write:true ()))
               done)));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  let w0, p0, l0 = !base in
  {
    wt_writes = Metrics.value st.Vm_types.s_data_writes - w0;
    wt_pageouts = Metrics.value st.Vm_types.s_pageouts - p0;
    wt_laundered = Metrics.value st.Vm_types.s_laundered - l0;
  }

let run_body () =
  let proj = project ~sources:48 in
  let unix_runs = run_unix proj in
  let mach_runs, traffic = run_mach proj in
  let wtraffic = run_writeback ~frames:256 ~image_pages:512 in
  (proj, List.combine unix_runs mach_runs, traffic, wtraffic)

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let run () =
  let proj, rows, traffic, wtraffic = run_body () in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E4: compilation on a %d KB project, 4 MB memory (Section 9: ~2x elapsed, ~10x fewer \
            I/Os when cached)"
           (Compile_sim.project_bytes proj / 1024))
      ~columns:
        [
          "build";
          "UNIX elapsed s";
          "Mach elapsed s";
          "speedup";
          "UNIX disk ops";
          "Mach disk ops";
          "I/O ratio";
        ]
  in
  List.iteri
    (fun i (u, m) ->
      let open Compile_sim in
      Table.row t
        [
          (if i = 0 then "1 (cold)" else Printf.sprintf "%d (warm)" (i + 1));
          Printf.sprintf "%.2f" (u.elapsed_us /. 1e6);
          Printf.sprintf "%.2f" (m.elapsed_us /. 1e6);
          ratio u.elapsed_us m.elapsed_us;
          string_of_int u.disk_ops;
          string_of_int m.disk_ops;
          (if m.disk_ops = 0 then Printf.sprintf "%dx / 0" u.disk_ops
           else Printf.sprintf "%.1fx" (float_of_int u.disk_ops /. float_of_int m.disk_ops));
        ])
    rows;
  let p =
    Table.create ~title:"E4: Mach pager traffic over the measured builds (cluster-in)"
      ~columns:[ "data_requests (messages)"; "pageins (pages)"; "pages per request" ]
  in
  Table.row p
    [
      string_of_int traffic.pt_requests;
      string_of_int traffic.pt_pageins;
      (if traffic.pt_requests = 0 then "-"
       else Printf.sprintf "%.2f" (per traffic.pt_pageins traffic.pt_requests));
    ];
  let w =
    Table.create
      ~title:
        "E4: Mach write traffic, emitting a 2 MB image through a 1 MB cache (laundered runs)"
      ~columns:
        [ "data_writes (messages)"; "pageouts (pages)"; "laundered"; "pages per data_write" ]
  in
  Table.row w
    [
      string_of_int wtraffic.wt_writes;
      string_of_int wtraffic.wt_pageouts;
      string_of_int wtraffic.wt_laundered;
      (if wtraffic.wt_writes = 0 then "-"
       else Printf.sprintf "%.2f" (per wtraffic.wt_pageouts wtraffic.wt_writes));
    ];
  (* The §9 headline as ratios (UNIX over Mach: > 1 means Mach wins). *)
  let speedup (u, m) = u.Compile_sim.elapsed_us /. m.Compile_sim.elapsed_us in
  let cold, warm = match rows with [ c; w ] -> (c, w) | _ -> assert false in
  ( [ t; p; w ],
    [
      ("cold_speedup", speedup cold);
      ("warm_speedup", speedup warm);
      ("warm_io_ratio", per (fst warm).Compile_sim.disk_ops (snd warm).Compile_sim.disk_ops);
      ("pages_per_request", per traffic.pt_pageins traffic.pt_requests);
      ("pages_per_data_write", per wtraffic.wt_pageouts wtraffic.wt_writes);
    ] )

let experiment =
  {
    id = "E4";
    title = "File cache (compilation)";
    paper_claim =
      "Compilation of a program cached in memory under Mach is twice as fast as under SunOS, \
       and a large system compilation does 10x fewer I/O operations, because Mach uses the bulk \
       of physical memory as a file cache instead of a fixed 10% buffer cache.";
    run;
  }
