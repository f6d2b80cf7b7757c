(* The system benchmark's entry point.

     bench.exe --workload <compile|smp_ipc|netmem> --seed N --seconds S --trace <0|1>

   Repeats the workload until [--seconds] of wall time are used (at
   least [min_reps] repetitions). Every repetition runs the same
   episodes, fresh systems built from the same seeds. Host figures are
   medians over repetitions; simulated figures must repeat exactly,
   which is checked.

   With [--trace 0] the last line holds the end-to-end metrics. With
   [--trace 1] untraced and traced repetitions alternate; the last line
   holds the per-layer metrics of the traced run, whose simulated
   figures must equal the untraced run's. Lines before the last are a
   human-readable summary. *)

let min_reps = 3

(* Each workload: episodes per repetition, and one episode of fixed
   length. Several short episodes with their own seeds, rather than one
   long one, keep the figures steady from seed to seed without running
   any one system longer: netmem's host cost per touch grows with run
   length (the reliable channels' work per message grows with their
   backlog), so its host_cpu_s compares only at this length. *)
let workloads =
  [
    ("compile", (6, fun h ~seed -> Wl_compile.run h ~seed));
    ("smp_ipc", (4, fun h ~seed -> Wl_smp_ipc.run h ~seed ~iters:128));
    ("netmem", (48, fun h ~seed -> Wl_netmem.run h ~seed ~accesses_per_host:1400));
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload <compile|smp_ipc|netmem> --seed N --seconds S --trace <0|1>";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := List.assoc_opt w workloads |> Option.map (fun f -> (w, f));
      if !workload = None then usage ();
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: n :: rest ->
      seconds := float_of_string_opt n;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := Some (t = "1");
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0.0 -> (w, s, secs, t)
  | _ -> usage ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One repetition: every episode, each seeded from [seed] and its
   index. *)
let one_rep (episodes, run) ~seed ~traced =
  let h = Harness.create ~traced in
  for e = 0 to episodes - 1 do
    Gc.full_major ();
    h.Harness.setup_t0 <- Harness.cpu_s ();
    run h ~seed:((seed lsl 8) lor e)
  done;
  Report.of_repetition h

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* JSON numbers: full precision, and never NaN or infinity. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metric (name, value, unit) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit

let () =
  let (name, run), seed, seconds, traced = parse_args () in
  let deadline = Unix.gettimeofday () +. seconds in
  let plain = ref [] and with_trace = ref [] in
  let problems = ref [] in
  let problem m = if not (List.mem m !problems) then problems := m :: !problems in
  (* The heap's high-water mark after one repetition: later ones reuse
     the same heap, so a maximum over more of them would only track how
     many fit in the time. *)
  let peak_heap_mb = ref 0.0 in
  while List.length !plain < min_reps || Unix.gettimeofday () < deadline do
    plain := one_rep run ~seed ~traced:false :: !plain;
    if !peak_heap_mb = 0.0 then peak_heap_mb := top_heap_mb ();
    if traced then with_trace := one_rep run ~seed ~traced:true :: !with_trace
  done;
  let reps = List.rev !plain and traced_reps = List.rev !with_trace in
  let first = List.hd reps in
  List.iter
    (fun (r : Report.rep) ->
      if r.Report.sim <> first.Report.sim then problem "simulated figures differ between repetitions of one seed")
    reps;
  List.iter
    (fun (r : Report.rep) ->
      if r.Report.sim <> first.Report.sim then problem "tracing changed the simulated figures";
      if r.Report.trace_lost > 0 then
        problem (Printf.sprintf "trace ring overwrote %d undrained events" r.Report.trace_lost))
    traced_reps;
  List.iter (fun m -> problem ("run aborted: " ^ m)) first.Report.aborts;
  List.iter (fun m -> problem ("failed op: " ^ m)) first.Report.notes;
  let all = reps @ traced_reps in
  let attempted = List.fold_left (fun a (r : Report.rep) -> a + r.Report.planned) 0 all in
  let failed = List.fold_left (fun a (r : Report.rep) -> a + r.Report.failed) 0 all in
  let med f = median (List.map f reps) in
  let cpu = med (fun r -> r.Report.host_cpu_s) in
  (* Host CPU time is printed but not gated: on a shared box the same
     repetition's user time drifts by a fifth from minute to minute, so
     it goes with the per-layer figures. Allocation is the gated host
     cost; it repeats to within a percent. *)
  let e2e =
    [
      ("setup_s", med (fun r -> r.Report.setup_s), "s");
      ("host_alloc_mwords", med (fun r -> r.Report.alloc_mwords), "Mwords");
      ("host_peak_heap_mb", !peak_heap_mb, "MB");
      ("sim_elapsed_s", first.Report.sim_elapsed_s, "s");
      ("sim_op_p50_us", first.Report.op_p50_us, "us");
      ("sim_op_p99_us", first.Report.op_p99_us, "us");
    ]
  in
  let fail_frac = Report.ratio (float_of_int first.Report.failed) (float_of_int first.Report.planned) in
  let layer =
    match traced_reps with
    | [] -> []
    | t :: _ ->
      let traced_cpu = median (List.map (fun r -> r.Report.host_cpu_s) traced_reps) in
      List.map (fun (k, v) -> (k, v, Report.unit_of k)) t.Report.layer
      @ [
          ("host_cpu_s", cpu, "s");
          ("op_fail_frac", fail_frac, "ratio");
          ("io_ops", float_of_int first.Report.io_ops, "count");
          ("trace.overhead_pct", 100.0 *. Report.ratio (traced_cpu -. cpu) cpu, "%");
          ("trace.dropped", float_of_int t.Report.trace_lost, "count");
        ]
  in
  Printf.printf "workload %s  seed %d  repetitions %d untraced, %d traced\n" name seed (List.length reps)
    (List.length traced_reps);
  Printf.printf "ops %d attempted, %d completed, %d failed per repetition\n" first.Report.planned
    first.Report.completed first.Report.failed;
  List.iter
    (fun (k, v, u) -> Printf.printf "  %-22s %14.6g %s\n" k v u)
    (e2e
    @ [ ("host_cpu_s", cpu, "s"); ("op_fail_frac", fail_frac, "ratio");
        ("io_ops", float_of_int first.Report.io_ops, "count") ]);
  List.iter (fun m -> Printf.printf "problem: %s\n" m) (List.rev !problems);
  let metrics = if traced then layer else e2e in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" (!problems = [])
    attempted failed
    (String.concat ", " (List.map metric metrics))
