(* Benchmark harness: reproduces every table/figure-level claim of the
   paper's evaluation (E1–E13, see DESIGN.md). Each experiment runs
   once; the tables it prints and the metrics [--json] writes come from
   that same run, so the gates (gate.ml) check the printed numbers.

   Usage:
     main.exe                 run every experiment, print its tables
     main.exe --only E4,E7    run selected experiments
     main.exe --list          list experiments
     main.exe --json out.json also write each experiment's metrics *)

module Table = Mach_util.Table

let experiments : Common.experiment list =
  [
    E01_ipc.experiment;
    E02_vm.experiment;
    E03_copy_map.experiment;
    E04_file_cache.experiment;
    E05_multiprocessor.experiment;
    E06_netmem.experiment;
    E07_migration.experiment;
    E08_camelot.experiment;
    E09_failures.experiment;
    E10_fault_breakdown.experiment;
    E11_fork_cow.experiment;
    E12_ablations.experiment;
    E13_duality.experiment;
  ]

let alloc_words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Run one experiment and print its tables. Returns its flat metrics:
   the experiment's own, then the shared registry-snapshot schema (each
   "subsystem.counter" of every kernel the run booted, prefixed
   "reg."), then the host words allocated by the run (ungated: it
   depends on the compiler). *)
let run_experiment (e : Common.experiment) =
  Printf.printf "\n### %s — %s\n" e.Common.id e.Common.title;
  Printf.printf "Paper: %s\n\n" e.Common.paper_claim;
  Common.reset_collected ();
  let words0 = alloc_words () in
  let tables, metrics = e.Common.run () in
  let alloc_mwords = (alloc_words () -. words0) /. 1e6 in
  List.iter Table.print tables;
  let reg = List.map (fun (k, v) -> ("reg." ^ k, v)) (Common.collected_registry ()) in
  (e.Common.id, metrics @ reg @ [ ("host.alloc_mwords", alloc_mwords) ])

(* One flat {metric: number} object per experiment. Hand-rolled writer —
   the values are plain floats and the format never nests deeper than
   two levels, so no JSON library is needed. *)
let write_json path results =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (id, kvs) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc "  %S: {" id;
      List.iteri
        (fun j (k, v) ->
          if j > 0 then output_string oc ",";
          Printf.fprintf oc "\n    %S: %.3f" k v)
        kvs;
      output_string oc "\n  }")
    results;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d experiments)\n" path (List.length results)

let main only list_only json_file =
  if list_only then begin
    List.iter
      (fun (e : Common.experiment) -> Printf.printf "%-4s %s\n" e.Common.id e.Common.title)
      experiments;
    0
  end
  else begin
    let selected =
      match only with
      | [] -> experiments
      | ids ->
        let wanted = List.map String.uppercase_ascii ids in
        List.filter (fun (e : Common.experiment) -> List.mem e.Common.id wanted) experiments
    in
    if selected = [] then begin
      prerr_endline "no matching experiments (try --list)";
      1
    end
    else begin
      Printf.printf "Mach duality reproduction — experiment harness\n";
      Printf.printf "==============================================\n";
      let results = List.map run_experiment selected in
      if json_file <> "" then write_json json_file results;
      0
    end
  end

open Cmdliner

let only =
  let doc = "Comma-separated experiment ids to run (e.g. E4,E7)." in
  Arg.(value & opt (list string) [] & info [ "only" ] ~doc ~docv:"IDS")

let list_only =
  let doc = "List experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let json_file =
  let doc =
    "Also write the metrics of this run to $(docv) (JSON, one object per experiment)."
  in
  Arg.(value & opt string "" & info [ "json" ] ~doc ~docv:"FILE")

let cmd =
  let doc = "Reproduce the evaluation of the Mach memory/communication duality paper" in
  Cmd.v (Cmd.info "mach-bench" ~doc) Term.(const main $ only $ list_only $ json_file)

let () = exit (Cmd.eval' cmd)
