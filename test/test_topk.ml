(* Tests for the top-k library: preference model, active domains,
   and the three candidate-target algorithms (exactness, agreement,
   early termination, budgets). *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Pref = Topk.Preference
module AD = Topk.Active_domain
module Mj = Datagen.Mj

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

(* The Example 9 setting: drop φ11 and the team half of φ6, leaving
   te.team and te.arena null. *)
let example9_spec =
  let rs = Rules.Ruleset.remove (Rules.Ruleset.remove Mj.ruleset "phi11") "phi6#2" in
  Core.Specification.with_ruleset Mj.specification rs

let example9 () =
  let compiled = Core.Is_cr.compile example9_spec in
  match Core.Is_cr.run_compiled compiled with
  | Core.Is_cr.Church_rosser inst -> (compiled, Core.Instance.te inst)
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "Example 9 spec must be CR"

let team = Schema.index Mj.stat_schema "team"
let arena = Schema.index Mj.stat_schema "arena"

(* ------------------------------------------------------------------ *)
(* Preference                                                         *)
(* ------------------------------------------------------------------ *)

let test_pref_occurrences () =
  let p = Pref.of_occurrences Mj.stat in
  check (Alcotest.float 1e-9) "Chicago Bulls occurs twice" 2.0
    (Pref.weight p team (Value.String "Chicago Bulls"));
  check (Alcotest.float 1e-9) "unknown value gets default" 0.5
    (Pref.weight p team (Value.String "nowhere"));
  check (Alcotest.float 1e-9) "null scores zero in p(t)" 0.0
    (Pref.score p [| Value.Null |])

let test_pref_score_sums () =
  let p = Pref.of_table [ (0, Value.Int 1, 2.0); (1, Value.Int 2, 3.0) ] in
  check (Alcotest.float 1e-9) "sum" 5.0 (Pref.score p [| Value.Int 1; Value.Int 2 |]);
  check (Alcotest.float 1e-9) "missing defaults 0" 2.0
    (Pref.score p [| Value.Int 1; Value.Int 9 |])

let test_pref_override () =
  let p = Pref.override (Pref.uniform ()) [ (0, Value.Int 7, 10.0) ] in
  check (Alcotest.float 1e-9) "overridden" 10.0 (Pref.weight p 0 (Value.Int 7));
  check (Alcotest.float 1e-9) "fallback" 1.0 (Pref.weight p 0 (Value.Int 8))

(* ------------------------------------------------------------------ *)
(* Active domain                                                      *)
(* ------------------------------------------------------------------ *)

let test_active_domain_instance_values () =
  let values = AD.values ~include_default:false example9_spec team in
  let strings = List.map Value.to_string values in
  check
    Alcotest.(list string)
    "team domain in first-appearance order"
    [ "Chicago"; "Chicago Bulls"; "Birmingham Barons" ]
    strings

let test_active_domain_default () =
  let values = AD.values example9_spec team in
  match List.rev values with
  | last :: _ ->
      check Alcotest.bool "last is the default" true (AD.is_default last)
  | [] -> Alcotest.fail "non-empty"

let test_active_domain_master_contribution () =
  (* league is written by φ6#1 from nba.league: the master values
     join the domain. *)
  let league = Schema.index Mj.stat_schema "league" in
  let values = AD.values ~include_default:false Mj.specification league in
  check Alcotest.bool "contains master-only value? (NBA present twice is fine)"
    true
    (List.exists (fun v -> Value.equal v (Value.String "NBA")) values)

let test_active_domain_ranked () =
  let p = Pref.of_occurrences Mj.stat in
  let ranked = AD.ranked ~include_default:false example9_spec p arena in
  (match Array.to_list ranked with
  | (v, w) :: _ ->
      check value_testable "United Center first" (Value.String "United Center") v;
      check (Alcotest.float 1e-9) "weight 2" 2.0 w
  | [] -> Alcotest.fail "non-empty");
  (* weights are non-increasing *)
  let ws = Array.map snd ranked in
  Array.iteri (fun i w -> if i > 0 then assert (w <= ws.(i - 1))) ws

(* Numbers that agree in their first 12 significant digits are still
   different values: the domain and the occurrence counts must keep
   them apart, while an int and its equal float stay one value. *)
let test_numeric_keys_exact () =
  let schema = Schema.make "nums" [ "n"; "x" ] in
  let row n x = Relational.Tuple.make [| n; x |] in
  let entity =
    Relation.make schema
      [
        row (Value.Int 1234567890123) (Value.Float 1.0000000000001);
        row (Value.Int 1234567890124) (Value.Float 1.0000000000002);
        row (Value.Int 1234567890124) (Value.Int 3);
        row (Value.Float 1234567890124.) (Value.Float 3.);
      ]
  in
  let spec =
    Core.Specification.make_exn ~entity (Rules.Ruleset.make_exn ~schema [])
  in
  let domain a = AD.values ~include_default:false spec a in
  check (Alcotest.list value_testable) "both large ints, first-seen order"
    [ Value.Int 1234567890123; Value.Int 1234567890124 ]
    (domain 0);
  check (Alcotest.list value_testable) "both close floats, 3 once"
    [ Value.Float 1.0000000000001; Value.Float 1.0000000000002; Value.Int 3 ]
    (domain 1);
  let p = Pref.of_occurrences entity in
  check (Alcotest.float 1e-9) "1234567890123 counted alone" 1.0
    (Pref.weight p 0 (Value.Int 1234567890123));
  check (Alcotest.float 1e-9) "1234567890124 with its float twin" 3.0
    (Pref.weight p 0 (Value.Int 1234567890124));
  check (Alcotest.float 1e-9) "1.0000000000002 counted alone" 1.0
    (Pref.weight p 1 (Value.Float 1.0000000000002));
  check (Alcotest.float 1e-9) "Int 3 and Float 3. share a count" 2.0
    (Pref.weight p 1 (Value.Float 3.))

(* ------------------------------------------------------------------ *)
(* TopKCT                                                             *)
(* ------------------------------------------------------------------ *)

let test_topkct_example9 () =
  let compiled, te = example9 () in
  check value_testable "team null before top-k" Value.Null te.(team);
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct.run ~k:2 ~pref:p compiled te in
  (match r.targets with
  | best :: _ ->
      check value_testable "best team" (Value.String "Chicago Bulls") best.(team);
      check value_testable "best arena" (Value.String "United Center") best.(arena)
  | [] -> Alcotest.fail "no candidates");
  check Alcotest.int "found two" 2 (List.length r.targets);
  (* Early termination (Prop. 7): no exhaustive enumeration. *)
  check Alcotest.bool "early termination" true (r.stats.queue_pops <= 4)

let test_topkct_scores_nonincreasing () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct.run ~k:6 ~pref:p compiled te in
  let scores = List.map (Pref.score p) r.targets in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "emitted in score order" true (monotone scores)

let test_topkct_candidates_all_check () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct.run ~k:6 ~pref:p compiled te in
  List.iter
    (fun t ->
      check Alcotest.bool "candidate passes check" true (Core.Is_cr.check compiled t))
    r.targets

let test_topkct_preserves_non_null () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct.run ~k:4 ~pref:p compiled te in
  List.iter
    (fun t ->
      Array.iteri
        (fun a v ->
          if not (Value.is_null te.(a)) then
            check value_testable "non-null attrs preserved" te.(a) v)
        t)
    r.targets

let test_topkct_complete_te () =
  let compiled = Core.Is_cr.compile Mj.specification in
  let r =
    Topk.Private.Topk_ct.run ~k:3 ~pref:(Pref.of_occurrences Mj.stat) compiled
      Mj.expected_target
  in
  check Alcotest.int "complete te is its own candidate" 1 (List.length r.targets)

let test_topkct_k_validation () =
  let compiled, te = example9 () in
  Alcotest.check_raises "k < 1" (Invalid_argument "Topk_ct.run: k < 1") (fun () ->
      ignore (Topk.Private.Topk_ct.run ~k:0 ~pref:(Pref.uniform ()) compiled te))

let test_topkct_budget () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let budget = Robust.Budget.start (Robust.Budget.limits ~max_steps:1 ()) in
  let r = Topk.Private.Topk_ct.run ~budget ~k:10 ~pref:p compiled te in
  check Alcotest.bool "budget respected" true (r.stats.queue_pops <= 1);
  check Alcotest.bool "partial result" true (List.length r.targets <= 1)

(* A deadline with no step cap must stop both heap-driven algorithms.
   The fake clock advances 1 ms per read, so a 2.5 ms deadline trips
   on the third frontier pop, long before k = 10 targets or the end
   of the search. *)
let test_topk_deadline () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let trip_name = function
    | Some t -> Robust.Error.trip_to_string t
    | None -> "none"
  in
  List.iter
    (fun (algo, max_pops) ->
      let now = ref 0.0 in
      let clock () =
        now := !now +. 1.0;
        !now
      in
      let budget =
        Robust.Budget.start ~clock (Robust.Budget.limits ~deadline_ms:2.5 ())
      in
      let name = Topk.algo_name algo in
      match Topk.solve ~algo ?max_pops ~budget ~k:10 ~pref:p compiled te with
      | Ok o ->
          check Alcotest.string (name ^ " reports the deadline")
            (Robust.Error.trip_to_string Robust.Error.Deadline)
            (trip_name o.Topk.exhausted);
          check Alcotest.bool (name ^ " stops at the deadline") true
            (o.Topk.pulls <= 2)
      | Error e -> Alcotest.failf "%s: %s" name (Robust.Error.to_string e))
    [ (`Ct, None); (`Ct_h, None); (`Ct, Some 1_000); (`Ct_h, Some 1_000) ]

(* ------------------------------------------------------------------ *)
(* RankJoinCT / agreement                                             *)
(* ------------------------------------------------------------------ *)

(* A tie-free preference so that both exact algorithms must return
   identical lists. *)
let tie_free_pref =
  Pref.of_fun (fun a v ->
      float_of_int (Value.hash v mod 1000 + a) /. 7.0)

let test_exact_algorithms_agree () =
  let compiled, te = example9 () in
  for k = 1 to 6 do
    let a = Topk.Private.Topk_ct.run ~k ~pref:tie_free_pref compiled te in
    let b = Topk.Private.Rank_join_ct.run ~k ~pref:tie_free_pref compiled te in
    check Alcotest.int
      (Printf.sprintf "same count at k=%d" k)
      (List.length a.Topk.Private.Topk_ct.targets)
      (List.length b.Topk.Private.Rank_join_ct.targets);
    List.iter2
      (fun x y ->
        check Alcotest.bool "same tuple" true (Array.for_all2 Value.equal x y))
      a.Topk.Private.Topk_ct.targets b.Topk.Private.Rank_join_ct.targets
  done

let test_rankjoin_checks_all_combos () =
  let compiled, te = example9 () in
  let r = Topk.Private.Rank_join_ct.run ~k:2 ~pref:tie_free_pref compiled te in
  (* §6.1: every generated combination is checked. *)
  check Alcotest.int "checks = combos" r.stats.combos r.stats.checks

(* Regression: pulls (list accesses) and combos (join combinations)
   used to share the single [max_pulls] cap, conflating two units
   that diverge exponentially (one pull joins against a cross
   product of seen prefixes). Each cap must bound its own unit and
   name itself in the trip. *)
let test_rankjoin_pulls_vs_combos_trips () =
  let compiled, te = example9 () in
  let exhausted r =
    match r.Topk.Private.Rank_join_ct.status with
    | Topk.Private.Rank_join_ct.Search_exhausted t -> Robust.Error.trip_to_string t
    | Topk.Private.Rank_join_ct.Complete -> Alcotest.fail "cap must trip on this fixture"
  in
  (* A pulls cap with combos uncapped trips Steps. *)
  let p =
    Topk.Private.Rank_join_ct.run ~max_pulls:1 ~max_combos:max_int ~k:2
      ~pref:tie_free_pref compiled te
  in
  check Alcotest.string "pulls cap trips Steps" "max-steps" (exhausted p);
  check Alcotest.int "pull count capped" 1 p.stats.pulls;
  (* A combos cap alone trips Combos; pulls are not bounded by it. *)
  let c =
    Topk.Private.Rank_join_ct.run ~max_combos:1 ~k:2 ~pref:tie_free_pref compiled te
  in
  check Alcotest.string "combos cap trips Combos" "max-combos" (exhausted c);
  check Alcotest.bool "pulls ran past the combos cap" true (c.stats.pulls > 1);
  (* Only [max_pulls] given: the historical single cap — combos are
     bounded by the same value. *)
  let h =
    Topk.Private.Rank_join_ct.run ~max_pulls:3 ~k:2 ~pref:tie_free_pref compiled te
  in
  check Alcotest.bool "combos inherit the pulls cap" true (h.stats.combos <= 3)

(* ------------------------------------------------------------------ *)
(* TopKCTh                                                            *)
(* ------------------------------------------------------------------ *)

let test_topkcth_returns_candidates () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct_h.run ~k:3 ~pref:p compiled te in
  check Alcotest.bool "non-empty" true (r.targets <> []);
  List.iter
    (fun t ->
      check Alcotest.bool "verified candidate" true (Core.Is_cr.check compiled t))
    r.targets

let test_topkcth_top1_agrees () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let h = Topk.Private.Topk_ct_h.run ~k:1 ~pref:p compiled te in
  let e = Topk.Private.Topk_ct.run ~k:1 ~pref:p compiled te in
  match (h.targets, e.Topk.Private.Topk_ct.targets) with
  | [ a ], [ b ] ->
      (* the top candidate needs no repair here, so both agree *)
      check Alcotest.bool "same top candidate" true (Array.for_all2 Value.equal a b)
  | _ -> Alcotest.fail "both should find one candidate"

let test_topkcth_no_duplicates () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct_h.run ~k:6 ~pref:p compiled te in
  let keys =
    List.map
      (fun t -> String.concat "|" (Array.to_list (Array.map Value.to_string t)))
      r.targets
  in
  check Alcotest.int "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle cross-checks (Thm. 3 / §6 exactness)             *)
(* ------------------------------------------------------------------ *)

let test_oracle_agrees_with_topkct () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Topk.Candidate_oracle.enumerate ~pref:p compiled te in
  check Alcotest.bool "not truncated" false oracle.truncated;
  check Alcotest.bool "candidates exist" true (oracle.candidates <> []);
  let n = List.length oracle.candidates in
  (* TopKCT at k >= |candidates| must return exactly the oracle set. *)
  let r = Topk.Private.Topk_ct.run ~k:(n + 3) ~pref:p compiled te in
  check Alcotest.int "TopKCT finds all candidates" n (List.length r.targets);
  let key t = String.concat "|" (Array.to_list (Array.map Value.to_string t)) in
  let sort l = List.sort compare (List.map key l) in
  check Alcotest.(list string) "same candidate sets" (sort oracle.candidates)
    (sort r.targets);
  (* and the scores of the top-k prefix agree for every k *)
  for k = 1 to n do
    let topk = Topk.Private.Topk_ct.run ~k ~pref:p compiled te in
    let score_of l = List.map (Pref.score p) l in
    let rec take n = function
      | [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r
    in
    check Alcotest.(list (float 1e-9)) "prefix scores match oracle"
      (score_of (take k oracle.candidates))
      (score_of topk.Topk.Private.Topk_ct.targets)
  done

let test_oracle_topkcth_subset () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Topk.Candidate_oracle.enumerate ~pref:p compiled te in
  let key t = String.concat "|" (Array.to_list (Array.map Value.to_string t)) in
  let universe = List.map key oracle.candidates in
  let h = Topk.Private.Topk_ct_h.run ~k:8 ~pref:p compiled te in
  List.iter
    (fun t ->
      check Alcotest.bool "heuristic output is a candidate" true
        (List.mem (key t) universe))
    h.targets

let test_oracle_exists_and_count () =
  let compiled, te = example9 () in
  check Alcotest.bool "candidates exist" true
    (Topk.Candidate_oracle.exists_candidate compiled te);
  let n, truncated = Topk.Candidate_oracle.count compiled te in
  check Alcotest.bool "count positive, untruncated" true (n > 0 && not truncated);
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Topk.Candidate_oracle.enumerate ~pref:p compiled te in
  check Alcotest.int "count = enumerate length" (List.length oracle.candidates) n

let test_oracle_example7 () =
  (* Example 7: R = (A1..An), Ie = {(0,...,0), (1,...,1)}, empty Σ
     and Im ⇒ exactly 2^n candidate targets over instance values. *)
  let n = 4 in
  let schema7 = Schema.make "e7" (List.init n (fun i -> "a" ^ string_of_int i)) in
  let entity =
    Relation.make schema7
      [
        Relational.Tuple.make (Array.make n (Value.Int 0));
        Relational.Tuple.make (Array.make n (Value.Int 1));
      ]
  in
  let rs = Rules.Ruleset.make_exn ~schema:schema7 [] in
  let spec = Core.Specification.make_exn ~entity rs in
  let compiled = Core.Is_cr.compile spec in
  let te =
    match Core.Is_cr.run_compiled compiled with
    | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
    | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "CR expected"
  in
  check Alcotest.bool "te all null" true (Array.for_all Value.is_null te);
  let count, truncated =
    Topk.Candidate_oracle.count ~include_default:false compiled te
  in
  check Alcotest.bool "untruncated" false truncated;
  check Alcotest.int "2^n candidates" 16 count;
  (* TopKCT enumerates all of them when asked *)
  let r =
    Topk.Private.Topk_ct.run ~include_default:false ~k:40 ~pref:(Pref.uniform ()) compiled te
  in
  check Alcotest.int "TopKCT finds all 2^n" 16 (List.length r.targets)

(* A wide lattice under one flat score: 12 null attributes over
   {0, 1, 2, ⊥}, every value weighing 1, no rules. Every candidate
   ties, so the frontier's order is decided by the position tie-break
   alone, and its duplicate set must tell apart vectors that differ
   only past the tenth coordinate. Each popped candidate is emitted,
   so a candidate popped twice would show as a repeated target. *)
let wide_tied_fixture () =
  let n = 12 in
  let schema = Schema.make "wide" (List.init n (fun i -> "a" ^ string_of_int i)) in
  let entity =
    Relation.make schema
      (List.init 3 (fun v -> Relational.Tuple.make (Array.make n (Value.Int v))))
  in
  let spec =
    Core.Specification.make_exn ~entity (Rules.Ruleset.make_exn ~schema [])
  in
  (Core.Is_cr.compile spec, Array.make n Value.Null)

let render_wide t =
  String.concat ""
    (Array.to_list
       (Array.map
          (fun v -> if AD.is_default v then "x" else Value.to_string v)
          t))

let wide_tied_expected =
  [
    "000000000000"; "000000000001"; "000000000002"; "00000000000x";
    "000000000010"; "000000000011"; "000000000012"; "00000000001x";
    "000000000020"; "000000000021"; "000000000022"; "00000000002x";
    "0000000000x0"; "0000000000x1"; "0000000000x2"; "0000000000xx";
    "000000000100"; "000000000101"; "000000000102"; "00000000010x";
    "000000000110"; "000000000111"; "000000000112"; "00000000011x";
    "000000000120"; "000000000121"; "000000000122"; "00000000012x";
    "0000000001x0"; "0000000001x1";
  ]

let test_topkct_wide_tied_frontier () =
  let compiled, te = wide_tied_fixture () in
  let k = List.length wide_tied_expected in
  let r = Topk.Private.Topk_ct.run ~k ~pref:(Pref.uniform ()) compiled te in
  let got = List.map render_wide r.targets in
  check Alcotest.(list string) "pinned top-k order" wide_tied_expected got;
  check Alcotest.int "one pop per target" k r.stats.queue_pops;
  check Alcotest.int "no candidate popped twice" k
    (List.length (List.sort_uniq String.compare got))

let test_oracle_limit () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Topk.Candidate_oracle.enumerate ~limit:2 ~pref:p compiled te in
  check Alcotest.bool "truncated" true oracle.truncated;
  check Alcotest.bool "checked respects limit" true (oracle.checked <= 2)

(* ------------------------------------------------------------------ *)
(* Instance optimality accounting (Prop. 7)                           *)
(* ------------------------------------------------------------------ *)

let test_topkct_heap_pops_bounded () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = Topk.Private.Topk_ct.run ~k:2 ~pref:p compiled te in
  (* pops are per-need: at most (initial m) + one per expansion slot *)
  check Alcotest.bool "pop accounting sane" true
    (r.stats.heap_pops >= 2 && r.stats.heap_pops <= r.stats.enumerated + 2)

let () =
  Alcotest.run "topk"
    [
      ( "preference",
        [
          Alcotest.test_case "occurrences" `Quick test_pref_occurrences;
          Alcotest.test_case "score sums" `Quick test_pref_score_sums;
          Alcotest.test_case "override" `Quick test_pref_override;
          Alcotest.test_case "numeric keys are exact" `Quick test_numeric_keys_exact;
        ] );
      ( "active-domain",
        [
          Alcotest.test_case "instance values" `Quick test_active_domain_instance_values;
          Alcotest.test_case "default ⊥" `Quick test_active_domain_default;
          Alcotest.test_case "master contribution" `Quick
            test_active_domain_master_contribution;
          Alcotest.test_case "ranked" `Quick test_active_domain_ranked;
        ] );
      ( "topkct",
        [
          Alcotest.test_case "Example 9" `Quick test_topkct_example9;
          Alcotest.test_case "score order" `Quick test_topkct_scores_nonincreasing;
          Alcotest.test_case "all candidates check" `Quick
            test_topkct_candidates_all_check;
          Alcotest.test_case "non-null preserved" `Quick test_topkct_preserves_non_null;
          Alcotest.test_case "complete te" `Quick test_topkct_complete_te;
          Alcotest.test_case "k validation" `Quick test_topkct_k_validation;
          Alcotest.test_case "budget" `Quick test_topkct_budget;
          Alcotest.test_case "deadline" `Quick test_topk_deadline;
          Alcotest.test_case "heap pop accounting" `Quick test_topkct_heap_pops_bounded;
          Alcotest.test_case "wide tied frontier" `Quick test_topkct_wide_tied_frontier;
        ] );
      ( "rankjoin",
        [
          Alcotest.test_case "exact algorithms agree" `Quick test_exact_algorithms_agree;
          Alcotest.test_case "checks every combo" `Quick test_rankjoin_checks_all_combos;
          Alcotest.test_case "pulls and combos trip their own caps" `Quick
            test_rankjoin_pulls_vs_combos_trips;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "TopKCT exact vs oracle" `Quick
            test_oracle_agrees_with_topkct;
          Alcotest.test_case "TopKCTh subset of oracle" `Quick
            test_oracle_topkcth_subset;
          Alcotest.test_case "exists/count" `Quick test_oracle_exists_and_count;
          Alcotest.test_case "Example 7 (2^n candidates)" `Quick
            test_oracle_example7;
          Alcotest.test_case "limit" `Quick test_oracle_limit;
        ] );
      ( "topkcth",
        [
          Alcotest.test_case "returns verified candidates" `Quick
            test_topkcth_returns_candidates;
          Alcotest.test_case "top-1 agrees with exact" `Quick test_topkcth_top1_agrees;
          Alcotest.test_case "no duplicates" `Quick test_topkcth_no_duplicates;
        ] );
    ]
