(* Tests for the harness layer: each adversary behaves as documented,
   scenarios validate their inputs, and reports render faithfully. *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology

let setting ~k ~tl ~tr =
  Core.Setting.make_exn ~k ~topology:Topology.Fully_connected
    ~auth:Core.Setting.Authenticated ~t_left:tl ~t_right:tr

let run ~byzantine ~seed s profile =
  H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed s profile)

(* --- individual adversaries ---------------------------------------------- *)

let test_silent_party_still_matched_by_others () =
  (* A silent byzantine party contributes the default list; honest parties
     still compute a full matching (its "partner" slot is filled). *)
  let k = 3 in
  let s = setting ~k ~tl:1 ~tr:0 in
  let profile = SM.Profile.random (Rng.make 1) k in
  let report = run ~byzantine:[ Party_id.left 0, H.Adversaries.silent ] ~seed:1 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok report);
  (* every honest right party is matched with someone *)
  List.iter
    (fun (p, d) ->
      if Side.equal (Party_id.side p) Side.Right then
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched _ -> ()
        | Core.Problem.Nobody | Core.Problem.No_output ->
          Alcotest.failf "%s unmatched" (Party_id.to_string p))
    report.H.Scenario.outcome.Core.Problem.decisions

let test_crash_adversary_partial_participation () =
  (* Crashing after the first round: the party's initial broadcast may be
     in flight but it stops responding; the run still satisfies bSM. *)
  let k = 3 in
  let s = setting ~k ~tl:0 ~tr:1 in
  let profile = SM.Profile.random (Rng.make 2) k in
  let crasher = Party_id.right 2 in
  let byzantine =
    [
      ( crasher,
        H.Adversaries.crash ~setting:s ~seed:9 ~input:(SM.Profile.prefs profile crasher)
          ~self:crasher ~round:1 );
    ]
  in
  let report = run ~byzantine ~seed:9 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok report)

let test_crash_round_zero_equals_silent () =
  (* crash ~round:0 must send nothing at all — same decisions as silent,
     given everything else equal. *)
  let k = 3 in
  let s = setting ~k ~tl:1 ~tr:0 in
  let profile = SM.Profile.random (Rng.make 3) k in
  let target = Party_id.left 1 in
  let with_strategy strategy =
    (run ~byzantine:[ target, strategy ] ~seed:4 s profile).H.Scenario.outcome
      .Core.Problem.decisions
  in
  let crashed =
    with_strategy
      (H.Adversaries.crash ~setting:s ~seed:4 ~input:(SM.Profile.prefs profile target)
         ~self:target ~round:0)
  in
  let silent = with_strategy H.Adversaries.silent in
  Alcotest.(check bool) "same decisions" true (crashed = silent)

let test_garble_after_keeps_early_rounds () =
  (* Garbling from a late round only: by then Dolev-Strong already
     delivered the list, so honest parties use the true preferences —
     outcome equals the fully-honest run. *)
  let k = 3 in
  let s = setting ~k ~tl:0 ~tr:1 in
  let profile = SM.Profile.random (Rng.make 5) k in
  let target = Party_id.right 0 in
  let byzantine =
    [
      ( target,
        H.Adversaries.garble_after ~setting:s ~seed:6
          ~input:(SM.Profile.prefs profile target) ~self:target ~from_round:50 );
    ]
  in
  let garbled = run ~byzantine ~seed:6 s profile in
  let honest = run ~byzantine:[] ~seed:6 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok garbled);
  let decisions_of (r : H.Scenario.report) =
    List.filter
      (fun (p, _) -> not (Party_id.equal p target))
      r.H.Scenario.outcome.Core.Problem.decisions
  in
  Alcotest.(check bool) "same matching as honest run" true
    (decisions_of garbled = decisions_of honest)

let test_random_coalition_respects_budget () =
  let k = 4 in
  let s = setting ~k ~tl:2 ~tr:3 in
  let rng = Rng.make 7 in
  let profile = SM.Profile.random rng k in
  for _ = 1 to 10 do
    let coalition = H.Adversaries.random_coalition rng ~setting:s ~seed:1 ~profile in
    let members = Party_set.of_list (List.map fst coalition) in
    Alcotest.(check int) "exactly tL lefts" 2 (Party_set.count_side Side.Left members);
    Alcotest.(check int) "exactly tR rights" 3 (Party_set.count_side Side.Right members);
    Alcotest.(check int) "no duplicates" 5 (Party_set.cardinal members)
  done

(* --- report rendering ------------------------------------------------------ *)

let test_report_rendering () =
  let k = 2 in
  let s = setting ~k ~tl:0 ~tr:0 in
  let profile = SM.Profile.worst_case k in
  let report = run ~byzantine:[] ~seed:1 s profile in
  let text = Format.asprintf "%a" H.Scenario.pp_report report in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions plan" true (contains "Dolev-Strong");
  Alcotest.(check bool) "mentions success" true (contains "no violations");
  Alcotest.(check bool) "lists a decision" true (contains "L0:")

let test_violations_render () =
  (* Fabricate an outcome with every violation type and check the
     pretty-printers name them. *)
  let profile = SM.Profile.worst_case 2 in
  let outcome =
    {
      Core.Problem.profile;
      byzantine = Party_set.empty;
      decisions =
        [
          Party_id.left 0, Core.Problem.No_output;
          Party_id.left 1, Core.Problem.Matched (Party_id.right 0);
          Party_id.right 0, Core.Problem.Matched (Party_id.left 0);
          Party_id.right 1, Core.Problem.Nobody;
        ];
    }
  in
  let violations = Core.Problem.check outcome in
  Alcotest.(check bool) "several violations" true (List.length violations >= 2);
  List.iter
    (fun v ->
      let text = Format.asprintf "%a" Core.Problem.pp_violation v in
      Alcotest.(check bool) "non-empty rendering" true (String.length text > 0))
    violations


(* --- bench records -------------------------------------------------------- *)

module BR = H.Bench_record

let record_t = Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (BR.to_line r)) ( = )

let lines rs = String.concat "\n" (List.map BR.to_line rs) ^ "\n"

let tricky =
  [
    {
      BR.suite = "chaos";
      row = "quote \" backslash \\ newline \n tab \t bell \007 end";
      exact =
        [
          "negative", BR.Int (-42);
          "min_int", BR.Int min_int;
          "label:Π_bSM ≠ \"x\"", BR.Str "Π_bSM → {R0} \001\031\127";
          "empty", BR.Str "";
        ];
      measured = [ "neg_ms", -1.5; "tiny", 1e-300; "third", 1. /. 3.; "big", 1.2345e21 ];
    };
    { BR.suite = "Π_bSM"; row = ""; exact = []; measured = [] };
    { BR.suite = "scale"; row = "k=1000 uniform"; exact = [ "k", BR.Int 1000 ]; measured = [ "jobs", 2. ] };
  ]

let test_record_round_trip () =
  Alcotest.(check (result (list record_t) string)) "of_string . to_line" (Ok tricky)
    (BR.of_string (lines tricky));
  let path = Filename.temp_file "bench_record" ".json" in
  BR.write ~path tricky;
  let back = BR.read path in
  Sys.remove path;
  Alcotest.(check (result (list record_t) string)) "read . write" (Ok tricky) back;
  Alcotest.(check (result (list record_t) string)) "blank lines skipped" (Ok tricky)
    (BR.of_string ("\n" ^ String.concat "\n\n" (List.map BR.to_line tricky)));
  Alcotest.(check bool) "non-finite measured values are left out" true
    (BR.of_string (BR.to_line { BR.suite = "s"; row = "r"; exact = []; measured = [ "nan", Float.nan; "ok", 1. ] })
    = Ok [ { BR.suite = "s"; row = "r"; exact = []; measured = [ "ok", 1. ] } ])

let is_error_at line = function
  | Error msg ->
    let prefix = Printf.sprintf "line %d:" line in
    String.length msg >= String.length prefix
    && String.sub msg 0 (String.length prefix) = prefix
  | Ok _ -> false

let test_record_malformed () =
  let good = BR.to_line (List.hd tricky) in
  (* Every truncation of a valid line is an error on that line — never an
     exception, never a silently shorter record. *)
  for len = 1 to String.length good - 1 do
    let r = BR.of_string (BR.to_line (List.nth tricky 2) ^ "\n" ^ String.sub good 0 len) in
    if String.trim (String.sub good 0 len) <> "" && not (is_error_at 2 r) then
      Alcotest.failf "truncation at %d not rejected on line 2" len
  done;
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" bad) true
        (is_error_at 1 (BR.of_string bad)))
    [
      "not json";
      "{}";
      "[]";
      {|{"row": "r", "suite": "s", "exact": {}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {"x": 1.5}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {"x": true}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {"x": null}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {"x": 99999999999999999999999}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {}, "measured": {"x": "1"}}|};
      {|{"suite": "s", "row": "r", "exact": {}, "measured": {"x": 1e999}}|};
      {|{"suite": "s", "row": "r", "exact": {"x": 1, "x": 2}, "measured": {}}|};
      {|{"suite": "s", "row": "r", "exact": {}, "measured": {}} trailing|};
      {|{"suite": "s", "row": "r", "exact": {}, "measured": {}, "extra": 1}|};
      {|{"suite": "s\q", "row": "r", "exact": {}, "measured": {}}|};
      {|{"suite": "s\ud800", "row": "r", "exact": {}, "measured": {}}|};
      {|{"suite": "s\u12", "row": "r", "exact": {}, "measured": {}}|};
      "{\"suite\": \"raw\001control\", \"row\": \"r\", \"exact\": {}, \"measured\": {}}";
    ];
  let line = BR.to_line (List.nth tricky 2) in
  Alcotest.(check bool) "a (suite, row) pair seen twice" true
    (is_error_at 2 (BR.of_string (line ^ "\n" ^ line)));
  Alcotest.(check bool) "unreadable file" true
    (Result.is_error (BR.read "/nonexistent/bench_record.json"))

let test_record_diff () =
  let row ?(suite = "scale") ?(exact = [ "proposals", BR.Int 10 ]) name measured =
    { BR.suite; row = name; exact; measured }
  in
  let fails ~old ~new_ =
    List.filter_map
      (fun f -> if f.BR.fails then Some (f.BR.f_row ^ " " ^ f.BR.f_field) else None)
      (BR.diff ~threshold:20. old new_)
  in
  Alcotest.(check (list string)) "identical runs" []
    (fails ~old:[ row "a" [ "gs_ms", 8. ] ] ~new_:[ row "a" [ "gs_ms", 8. ] ]);
  Alcotest.(check (list string)) "exact drift fails" [ "a proposals" ]
    (fails ~old:[ row "a" [] ] ~new_:[ row ~exact:[ "proposals", BR.Int 11 ] "a" [] ]);
  Alcotest.(check (list string)) "an exact field appearing fails" [ "a fingerprint" ]
    (fails ~old:[ row "a" [] ]
       ~new_:[ row ~exact:[ "proposals", BR.Int 10; "fingerprint", BR.Str "ab" ] "a" [] ]);
  Alcotest.(check (list string)) "an exact field disappearing fails" [ "a proposals" ]
    (fails ~old:[ row "a" [] ] ~new_:[ row ~exact:[] "a" [] ]);
  Alcotest.(check (list string)) "25% and 2 ms slower fails" [ "a gs_ms" ]
    (fails ~old:[ row "a" [ "gs_ms", 8. ] ] ~new_:[ row "a" [ "gs_ms", 10. ] ]);
  Alcotest.(check (list string)) "25% but 0.5 ms passes" []
    (fails ~old:[ row "a" [ "gs_ms", 2. ] ] ~new_:[ row "a" [ "gs_ms", 2.5 ] ]);
  Alcotest.(check (list string)) "2 ms but 10% passes" []
    (fails ~old:[ row "a" [ "gs_ms", 20. ] ] ~new_:[ row "a" [ "gs_ms", 22. ] ]);
  Alcotest.(check (list string)) "faster never fails" []
    (fails ~old:[ row "a" [ "gs_ms", 100. ] ] ~new_:[ row "a" [ "gs_ms", 10. ] ]);
  let old = [ row "a" []; row "gone" [ "gs_ms", 1. ] ] in
  let new_ = [ row "a" [ "gs_ms", 50. ]; row "fresh" [ "gs_ms", 1. ] ] in
  Alcotest.(check (list string)) "measured fields missing on one side are skipped; \
                                   one-sided rows do not fail" [] (fails ~old ~new_);
  let changes = List.map (fun f -> f.BR.f_row, f.BR.change) (BR.diff ~threshold:20. old new_) in
  Alcotest.(check bool) "one-sided rows are reported" true
    (changes = [ "fresh", BR.Only_new; "gone", BR.Only_old ]);
  Alcotest.(check (list string)) "rows match on (suite, row)" []
    (fails ~old:[ row ~suite:"plane" "a" []; row "a" [] ]
       ~new_:[ row "a" []; row ~suite:"plane" "a" [] ])

let () =
  Alcotest.run "harness"
    [
      ( "adversaries",
        [
          Alcotest.test_case "silent party still matched" `Quick
            test_silent_party_still_matched_by_others;
          Alcotest.test_case "crash mid-protocol" `Quick
            test_crash_adversary_partial_participation;
          Alcotest.test_case "crash at round 0 = silent" `Quick
            test_crash_round_zero_equals_silent;
          Alcotest.test_case "late garble is harmless" `Quick
            test_garble_after_keeps_early_rounds;
          Alcotest.test_case "random coalition budget" `Quick
            test_random_coalition_respects_budget;
        ] );
      ( "reports",
        [
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "violations render" `Quick test_violations_render;
        ] );
      ( "bench-record",
        [
          Alcotest.test_case "write/read round-trip" `Quick test_record_round_trip;
          Alcotest.test_case "malformed lines are errors" `Quick test_record_malformed;
          Alcotest.test_case "diff semantics" `Quick test_record_diff;
        ] );
    ]
