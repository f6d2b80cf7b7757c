(* The bench suite's regression gate: every bound the harness enforces,
   in one table keyed by experiment.

   [gate_main.exe CURRENT BASELINE...] reads CURRENT, a [main.exe
   --json] run of the whole suite, and the committed BENCH_eNN.json
   baselines. Both come from the harness's flat writer: ["E3": {] opens
   an experiment's section and each ["key": number] line belongs to the
   open section. A rule reads keys of its own experiment only, so a key
   that several experiments emit (every [reg.*] key) resolves to the
   right run. A missing key or section fails its rule; any failure
   exits 1. The runs are deterministic: slack over a baseline only
   covers deliberate cost-model retuning. Every baseline key whose
   value moved, gated or not, is reported without failing. *)

let parse_lines lines =
  let sections = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i when i >= 2 && line.[0] = '"' && line.[i - 1] = '"' -> (
        let key = String.sub line 1 (i - 2) in
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        let v = match String.index_opt v ',' with Some j -> String.sub v 0 j | None -> v in
        match (v, float_of_string_opt v, !sections) with
        | "{", _, _ -> sections := (key, []) :: !sections
        | _, Some f, (id, kvs) :: rest -> sections := (id, (key, f) :: kvs) :: rest
        | _ -> ())
      | _ -> ())
    lines;
  List.rev_map (fun (id, kvs) -> (id, List.rev kvs)) !sections

let parse path =
  parse_lines (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all))

(* --- rules ---------------------------------------------------------------- *)

exception Missing of string

(* [cur k] is this run's value of [k] in the rule's experiment section,
   [base k] the committed baseline's. *)
type env = { cur : string -> float; base : string -> float }
type op = Ge | Le | Eq
type rule = { what : string; value : env -> float; op : op; bound : env -> float }

let rule what value op bound = { what; value; op; bound }
let key k e = e.cur k
let const x _ = x
let sum keys e = List.fold_left (fun acc k -> acc +. e.cur k) 0.0 keys
let diff a b e = e.cur a -. e.cur b
let ge k floor = rule k (key k) Ge (const floor)
let le k ceiling = rule k (key k) Le (const ceiling)
let eq k v = rule k (key k) Eq (const v)

(* Tolerated fraction of a recorded baseline. *)
let slack = 0.8
let at_least_baseline k = rule (k ^ " vs baseline") (key k) Ge (fun e -> slack *. e.base k)
let at_most_baseline k = rule (k ^ " vs baseline") (key k) Le (fun e -> e.base k /. slack)

(* The least of several values: a rule over it holds for each. *)
let min_of values e = List.fold_left (fun acc v -> Float.min acc (v e)) infinity values

let table : (string * rule list) list =
  [
    ( "E1",
      [
        (* A local RPC in the paper's 100-450 us range, every fast-path
           send met by a handoff receive, and an all-inline workload
           that maps nothing and never wakes spuriously. *)
        le "msg_rpc_us" 450.0;
        rule "counter_handoffs = counter_rpc_fastpath" (key "counter_handoffs") Eq
          (key "counter_rpc_fastpath");
        eq "counter_spurious_wakeups" 0.0;
        eq "counter_bytes_mapped" 0.0;
      ] );
    ( "E2",
      [
        (* Table 3-3: allocation is lazy, so a 64 KB allocate +
           deallocate costs less than copying one page in. *)
        rule "alloc_dealloc_us < write_us" (diff "write_us" "alloc_dealloc_us") Ge
          (const 0.001);
      ] );
    ( "E3",
      [
        (* A crossover exists (-1 means copy never lost) and mapping
           wins from 64 KB at the latest, copying zero bytes eagerly. *)
        rule "crossover_bytes (crossover exists)" (key "crossover_bytes") Ge (const 1.0);
        le "crossover_bytes" 65536.0;
        eq "map_send_bytes_copied_1048576" 0.0;
        at_least_baseline "copy_over_map_1048576";
        (* Clustered COW keeps a 1 MB mapped-in write below one
           fault+copy per page. *)
        at_most_baseline "map_write_us_1048576";
      ] );
    ( "E4",
      [
        (* Section 9: a cached compile ~2x faster than the buffer-cache
           baseline, with ~10x fewer I/O operations. *)
        ge "warm_speedup" 2.0;
        ge "warm_io_ratio" 10.0;
      ] );
    ( "E5",
      [
        ge "fault_storm_speedup_4" 1.5;
        at_least_baseline "fault_storm_speedup_max";
        ge "handoff_saving_us_per_rpc" 1.0;
        ge "pingpong_handoff_rate" 0.9;
      ] );
    ( "E6",
      [
        (* Section 4.2: read sharing invalidates nothing, and every
           rise in the write ratio costs more invalidations. *)
        eq "inval_per_100_ops_wr0" 0.0;
        rule "inval_per_100_ops rises strictly with the write ratio"
          (min_of
             [
               diff "inval_per_100_ops_wr2" "inval_per_100_ops_wr0";
               diff "inval_per_100_ops_wr10" "inval_per_100_ops_wr2";
               diff "inval_per_100_ops_wr30" "inval_per_100_ops_wr10";
               diff "inval_per_100_ops_wr50" "inval_per_100_ops_wr30";
             ])
          Ge (const 0.001);
      ] );
    ( "E7",
      [
        (* Section 8.2: copy-on-reference restarts the task sooner than
           eager copy, whatever fraction it then touches. *)
        rule "freeze_us: copy-on-reference < eager at every touched fraction"
          (min_of
             [
               diff "freeze_us_eager_10" "freeze_us_cor_10";
               diff "freeze_us_eager_50" "freeze_us_cor_50";
               diff "freeze_us_eager_100" "freeze_us_cor_100";
             ])
          Ge (const 0.001);
      ] );
    ( "E8",
      [
        (* Section 8.3: the log is forced before data pages, and crash
           recovery redoes the committed transaction and undoes the
           uncommitted one. *)
        eq "wal_violations" 0.0;
        eq "committed_survives" 1.0;
        eq "uncommitted_rolled_back" 1.0;
      ] );
    ( "E9",
      [
        (* The section 6 local defenses still hold. *)
        ge "pager_deaths" 1.0;
        ge "death_errors" 1.0;
        (* Zero permanently blocked threads across the chaos suite. *)
        eq "blocked_workers" 0.0;
        eq "sweep_failures" 0.0;
        eq "dup_failures" 0.0;
        eq "partition_failures" 0.0;
        eq "migration_failures" 0.0;
        eq "migration_coherent" 1.0;
        (* Faults were injected and the defenses engaged. *)
        ge "reg.chaos.dropped" 1.0;
        ge "dup_injected" 1.0;
        ge "dup_dropped" 1.0;
        ge "crash_pager_deaths" 1.0;
        eq "reg.chan.aborts" 0.0;
        (* Every wire-level fault is accounted for in chaos.*. *)
        rule "net.dropped = chaos drop + partition + crash" (key "reg.net.dropped") Eq
          (sum [ "reg.chaos.dropped"; "reg.chaos.partition_drops"; "reg.chaos.crash_drops" ]);
        rule "net.duplicated = chaos.duplicated" (key "reg.net.duplicated") Eq
          (key "reg.chaos.duplicated");
        rule "net.retransmits = chan.retransmits" (key "reg.net.retransmits") Eq
          (key "reg.chan.retransmits");
        (* Retransmission stays proportionate and the heal converges. *)
        rule "loss10_retransmits" (key "loss10_retransmits") Le (fun e ->
            Float.max 20.0 (4.0 *. e.base "loss10_retransmits"));
        rule "partition_convergence_us" (key "partition_convergence_us") Le (fun e ->
            Float.max 500_000.0 (3.0 *. e.base "partition_convergence_us"));
      ] );
    ( "E10",
      [
        (* Span ledger: balanced, and one span per fault. *)
        ge "spans_opened" 1.0;
        rule "spans_opened = spans_closed" (key "spans_opened") Eq (key "spans_closed");
        rule "faults all spanned" (key "faults") Eq (key "spans_opened");
        (* Each driven path resolved that way. COW faults cluster up to
           8 pages, so the rounds of child writes take at least
           rounds/8 spans. *)
        rule "via_zero_fill >= rounds" (key "via_zero_fill") Ge (key "rounds");
        rule "via_cow_copy >= rounds / 8" (key "via_cow_copy") Ge (fun e -> e.cur "rounds" /. 8.0);
        rule "cow pages all resolved (faults + batched)" (sum [ "via_cow_copy"; "cow_batched" ])
          Ge (key "rounds");
        rule "via_pager >= rounds" (key "via_pager") Ge (key "rounds");
        rule "via_fast >= rounds" (key "via_fast") Ge (key "rounds");
        ge "via_clean_hit" 1.0;
        (* An external-pager fault pays an IPC round trip on top. *)
        rule "ext_us > zf_us" (diff "ext_us" "zf_us") Ge (const 0.001);
        rule "ext_us > soft_us" (diff "ext_us" "soft_us") Ge (const 0.001);
        at_most_baseline "zf_us";
        at_most_baseline "soft_us";
        at_most_baseline "cow_us";
        at_most_baseline "ext_us";
        at_most_baseline "wb_us";
      ] );
    ( "E11",
      [
        (* Fork cost is flat in region size: one batched protect per
           entry. *)
        le "fork_flatness" 1.5;
        at_most_baseline "fork_us_4096";
        (* The generational workload steals instead of copying, and
           fork/exit generations accrete no shadow-chain depth. *)
        ge "cow_steals" 1.0;
        at_least_baseline "steal_rate";
        le "gen_depth_peak" 2.0;
        rule "collapses >= generations" (key "collapses") Ge (key "generations");
      ] );
    ( "E12",
      [
        (* A1: collapse keeps the chain flat; without it every fork
           generation leaves one more shadow. A2: pager_cache is what
           saves the re-reads. *)
        le "chain_depth_collapse" 1.0;
        rule "chain_depth_no_collapse = generations" (key "chain_depth_no_collapse") Eq
          (key "generations");
        rule "disk reads: pager_cache false > true"
          (diff "disk_reads_no_pager_cache" "disk_reads_pager_cache") Ge (const 1.0);
      ] );
    ( "E13",
      [
        (* Section 7: which mechanism is cheap depends on the machine. *)
        rule "UMA: shared memory beats messages (1 KB)"
          (diff "uma_messages_us_1024" "uma_shared_us_1024") Ge (const 0.001);
        rule "NORMA: messages beat shared memory (1 KB)"
          (diff "norma_shared_us_1024" "norma_messages_us_1024") Ge (const 0.001);
      ] );
  ]

(* --- evaluation ----------------------------------------------------------- *)

let lookup what sections id k =
  match List.assoc_opt id sections with
  | None -> raise (Missing (Printf.sprintf "no %s section %S" what id))
  | Some kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Missing (Printf.sprintf "missing %s key %S" what k)))

let holds op v b = match op with Ge -> v >= b | Le -> v <= b | Eq -> v = b
let op_string = function Ge -> ">=" | Le -> "<=" | Eq -> "="

let check id env r =
  match (r.value env, r.bound env) with
  | v, b when holds r.op v b ->
    Printf.printf "ok   %s %s: %.3f %s %.3f\n" id r.what v (op_string r.op) b;
    true
  | v, b ->
    Printf.eprintf "FAIL %s %s: %.3f not %s %.3f\n" id r.what v (op_string r.op) b;
    false
  | exception Missing why ->
    Printf.eprintf "FAIL %s %s: %s\n" id r.what why;
    false

(* Every baseline key whose current value differs from the committed
   one: (experiment, key, baseline, current), [None] if the run lacks
   it. *)
let drift ~current ~baselines =
  List.concat_map
    (fun (id, kvs) ->
      let cur = Option.value ~default:[] (List.assoc_opt id current) in
      List.filter_map
        (fun (k, b) ->
          match List.assoc_opt k cur with
          | Some v when v = b -> None
          | v -> Some (id, k, b, v))
        kvs)
    baselines

(* Check every rule and report drift; the exit code is 1 if any rule
   failed. *)
let run table ~current ~baselines =
  List.iter
    (fun (id, k, b, v) ->
      Printf.printf "drift %s %s: baseline %.3f, now %s\n" id k b
        (match v with Some v -> Printf.sprintf "%.3f" v | None -> "missing"))
    (drift ~current ~baselines);
  let results =
    List.concat_map
      (fun (id, rules) ->
        let env = { cur = lookup "current" current id; base = lookup "baseline" baselines id } in
        List.map (check id env) rules)
      table
  in
  match List.length (List.filter not results) with
  | 0 ->
    Printf.printf "all %d gates hold over %d experiments\n" (List.length results)
      (List.length table);
    0
  | failed ->
    Printf.eprintf "%d of %d gates failed\n" failed (List.length results);
    1

let main argv =
  match Array.to_list argv with
  | _ :: current :: baselines ->
    run table ~current:(parse current) ~baselines:(List.concat_map parse baselines)
  | _ ->
    prerr_endline "usage: gate_main CURRENT BASELINE...";
    2
