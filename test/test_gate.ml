(* The bench gate's evaluation: a key resolves within its own
   experiment's section, a missing key or section fails its rule, any
   violated bound turns the exit code to 1, and a baseline key that
   moved is reported without failing. *)

open Alcotest

(* Two experiments emitting the same keys, in the harness's writer
   format. *)
let suite =
  Gate.parse_lines
    (String.split_on_char '\n'
       {|{
  "E1": {
    "k": 1.000,
    "reg.x": 4.000
  },
  "E2": {
    "k": 5.000,
    "reg.x": 9.000
  }
}|})

let baselines = Gate.parse_lines [ {|  "E2": {|}; {|    "k": 6.000|}; "  }" ]
let gate table = Gate.run table ~current:suite ~baselines

let test_sections () =
  check (list (pair string (float 0.0))) "E2's own pairs" [ ("k", 5.0); ("reg.x", 9.0) ]
    (List.assoc "E2" suite);
  check int "E2.k = 5 clears a floor of 3" 0 (gate [ ("E2", [ Gate.ge "k" 3.0 ]) ]);
  check int "E1.k = 1 does not" 1 (gate [ ("E1", [ Gate.ge "k" 3.0 ]) ]);
  check int "identity over one section" 0
    (gate [ ("E2", [ Gate.rule "x - k" (Gate.diff "reg.x" "k") Gate.Eq (Gate.const 4.0) ]) ]);
  check int "baseline read from the same experiment" 0
    (gate [ ("E2", [ Gate.at_least_baseline "k" ]) ])

let test_missing () =
  check int "missing key" 1 (gate [ ("E1", [ Gate.eq "absent" 0.0 ]) ]);
  check int "missing section" 1 (gate [ ("E9", [ Gate.ge "k" 0.0 ]) ]);
  check int "missing baseline" 1 (gate [ ("E1", [ Gate.at_least_baseline "k" ]) ])

let test_drift () =
  (* E2.k is 6 in the baseline and 5 in the run; no rule reads it. *)
  check bool "the moved key is reported" true
    (Gate.drift ~current:suite ~baselines = [ ("E2", "k", 6.0, Some 5.0) ]);
  check int "drift alone exits 0" 0 (gate [ ("E1", [ Gate.le "k" 1.0 ]) ]);
  check int "no drift against itself" 0
    (List.length (Gate.drift ~current:suite ~baselines:suite))

let test_violated_bound () =
  check int "all bounds hold" 0
    (gate [ ("E1", [ Gate.le "k" 1.0; Gate.eq "reg.x" 4.0 ]); ("E2", [ Gate.ge "k" 5.0 ]) ]);
  check int "one violated floor among passing rules" 1
    (gate [ ("E1", [ Gate.le "k" 1.0 ]); ("E2", [ Gate.ge "k" 5.5; Gate.eq "reg.x" 9.0 ]) ]);
  check int "the suite table fails an empty run" 1
    (Gate.run Gate.table ~current:[] ~baselines:[]);
  check int "usage error without a run" 2 (Gate.main [| "gate_main" |])

let () =
  run "gate"
    [
      ( "gate",
        [
          test_case "keys resolve per experiment section" `Quick test_sections;
          test_case "a missing key fails" `Quick test_missing;
          test_case "a violated bound exits non-zero" `Quick test_violated_bound;
          test_case "baseline drift is reported, not failed" `Quick test_drift;
        ] );
    ]
