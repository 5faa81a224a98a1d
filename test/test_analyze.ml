(* Tests for lib/analyze, the repo's own static-analysis pass: each
   seeded fixture bug class is caught (and its "good" twin is clean),
   the baseline machinery round-trips, and — the real gate — the
   shipped lib/ and bin/ trees produce zero findings. *)

(* cwd is test/ under `dune runtest` but the repo root under
   `dune exec test/test_analyze.exe` — accept both *)
let fixture name =
  let local = Filename.concat "fixtures/analyze" (name ^ ".ml") in
  if Sys.file_exists local then local else Filename.concat "test" local

let run_fixture name =
  (Analyze.run ~roots:[ fixture name ]).Analyze.findings

let rules fs =
  List.sort_uniq String.compare (List.map (fun f -> f.Analyze.Report.rule) fs)

let count_rule rule fs =
  List.length (List.filter (fun f -> f.Analyze.Report.rule = rule) fs)

let check_clean name =
  let fs = run_fixture name in
  Alcotest.(check (list string))
    (name ^ " is clean") [] (List.map Analyze.Report.key fs)

(* parsing must have worked: a clean run over a missing/broken file
   would pass every vacuous assertion *)
let check_parsed name =
  let fs = run_fixture name in
  Alcotest.(check int) (name ^ " parses") 0 (count_rule "parse-error" fs)

(* --- concurrency ------------------------------------------------------ *)

let test_guarded () =
  let fs = run_fixture "guarded_bad" in
  Alcotest.(check int) "guarded-by errors" 4 (count_rule "guarded-by" fs);
  Alcotest.(check int) "requires-lock errors" 1 (count_rule "requires-lock" fs);
  Alcotest.(check (list string))
    "no other rules" [ "guarded-by"; "requires-lock" ] (rules fs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        "severity error" true
        (f.Analyze.Report.severity = Check.Diag.Error))
    fs;
  check_parsed "guarded_good";
  check_clean "guarded_good"

let test_lockorder () =
  let fs = run_fixture "lockorder_bad" in
  Alcotest.(check int) "cycle reported once" 1 (count_rule "lock-order-cycle" fs);
  Alcotest.(check int) "reacquire reported" 1 (count_rule "lock-reacquire" fs);
  (* the cycle message names both locks and the transitive edge's witness *)
  let cycle =
    List.find (fun f -> f.Analyze.Report.rule = "lock-order-cycle") fs
  in
  let mem needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "names m1" true
    (mem "Lockorder_bad.m1" cycle.Analyze.Report.message);
  Alcotest.(check bool)
    "names m2" true
    (mem "Lockorder_bad.m2" cycle.Analyze.Report.message);
  Alcotest.(check bool)
    "transitive edge via inner" true
    (mem "via Lockorder_bad.inner" cycle.Analyze.Report.message);
  check_parsed "lockorder_good";
  check_clean "lockorder_good"

let test_shared () =
  let fs = run_fixture "shared_bad" in
  Alcotest.(check int)
    "unguarded globals" 3
    (count_rule "unguarded-global-mutable" fs);
  Alcotest.(check int) "guarded global access" 1 (count_rule "guarded-by" fs);
  check_parsed "shared_good";
  check_clean "shared_good"

(* --- determinism ------------------------------------------------------ *)

let test_hashtbl_order () =
  let fs = run_fixture "hashtbl_bad" in
  Alcotest.(check int) "order warning" 1 (count_rule "hashtbl-order" fs);
  Alcotest.(check int)
    "float reductions (order attribute does not bless them)" 2
    (count_rule "unordered-float-reduce" fs);
  check_parsed "hashtbl_good";
  check_clean "hashtbl_good"

let test_random () =
  let fs = run_fixture "random_bad" in
  Alcotest.(check int) "global stream" 1 (count_rule "random-global" fs);
  Alcotest.(check int) "self-init" 2 (count_rule "random-self-init" fs);
  check_parsed "random_good";
  check_clean "random_good"

(* --- hot paths -------------------------------------------------------- *)

let test_hot () =
  let fs = run_fixture "hot_bad" in
  Alcotest.(check int) "closure" 1 (count_rule "hot-closure" fs);
  Alcotest.(check int) "alloc call" 1 (count_rule "hot-alloc-call" fs);
  Alcotest.(check int) "partial apply" 1 (count_rule "hot-partial-apply" fs);
  Alcotest.(check int) "boxed allocs" 3 (count_rule "hot-boxed-alloc" fs);
  Alcotest.(check int) "printf" 1 (count_rule "hot-printf" fs);
  check_parsed "hot_good";
  check_clean "hot_good"

let test_hot_matrix () =
  let fs = run_fixture "matrix_bad" in
  (* make_matrix and the nested literal (reported once, not per row) *)
  Alcotest.(check int) "boxed matrices" 2 (count_rule "hot-boxed-matrix" fs);
  (* the per-call floatarray/bigarray scratch allocations *)
  Alcotest.(check int) "unboxed alloc calls" 2 (count_rule "hot-alloc-call" fs);
  Alcotest.(check (list string))
    "no other rules" [ "hot-alloc-call"; "hot-boxed-matrix" ] (rules fs);
  check_parsed "matrix_good";
  check_clean "matrix_good"

let test_hot_lookup () =
  let fs = run_fixture "lookup_bad" in
  (* Hashtbl.find_opt, List.assoc_opt, List.find_opt, Itbl.find_opt *)
  Alcotest.(check int) "option lookups" 4 (count_rule "hot-alloc-call" fs);
  Alcotest.(check (list string)) "no other rules" [ "hot-alloc-call" ] (rules fs);
  check_parsed "lookup_good";
  check_clean "lookup_good"

(* --- baseline --------------------------------------------------------- *)

let test_baseline () =
  let fs = run_fixture "guarded_bad" in
  Alcotest.(check bool) "has findings" true (fs <> []);
  (* baselining everything suppresses everything *)
  let entries = Analyze.Baseline.of_string (Analyze.Baseline.to_string fs) in
  let applied = Analyze.Baseline.apply entries fs in
  Alcotest.(check int) "all suppressed" 0
    (List.length applied.Analyze.Baseline.fresh);
  Alcotest.(check int) "suppressed count" (List.length fs)
    applied.Analyze.Baseline.suppressed;
  Alcotest.(check int) "no stale entries" 0
    (List.length applied.Analyze.Baseline.stale);
  (* a partial baseline lets the rest through and flags unused entries *)
  let path = fixture "guarded_bad" in
  let partial =
    Analyze.Baseline.of_string
      (Printf.sprintf
         "# comment\nguarded-by|%s|bump\nguarded-by|%s|no_such_symbol\n" path
         path)
  in
  let applied = Analyze.Baseline.apply partial fs in
  Alcotest.(check bool) "others still fresh" true
    (applied.Analyze.Baseline.fresh <> []);
  Alcotest.(check int) "stale entry reported" 1
    (List.length applied.Analyze.Baseline.stale);
  Alcotest.(check bool) "bump suppressed" true
    (List.for_all
       (fun f -> f.Analyze.Report.symbol <> "bump")
       applied.Analyze.Baseline.fresh)

let test_json () =
  let fs = run_fixture "random_bad" in
  let json = Analyze.Report.to_json ~baselined:0 ~files:1 fs in
  List.iter
    (fun needle ->
      let nl = String.length needle and hl = String.length json in
      let rec go i =
        i + nl <= hl && (String.sub json i nl = needle || go (i + 1))
      in
      Alcotest.(check bool) ("json contains " ^ needle) true (go 0))
    [
      {|"schema": "pbqp-analyze-v1"|};
      {|"rule":"random-global"|};
      {|"errors": 3|};
      {|"files": 1|};
    ]

(* --- the gate: the shipped tree is clean ------------------------------ *)

(* The test binary runs in _build/default/test; dune copies the whole
   source tree (dune-project included) into _build/default, so walking
   up to the first directory holding dune-project + lib finds the
   build-root copy of the repo. *)
let rec repo_root dir =
  if
    Sys.file_exists (Filename.concat dir "dune-project")
    && Sys.file_exists (Filename.concat dir "lib")
  then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else repo_root parent

let test_repo_clean () =
  match repo_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "could not locate the repo root from the test cwd"
  | Some root ->
      let roots =
        [ Filename.concat root "lib"; Filename.concat root "bin" ]
      in
      let result = Analyze.run ~roots in
      Alcotest.(check bool)
        "analyzed a real tree (>= 30 files)" true
        (result.Analyze.files >= 30);
      Alcotest.(check (list string))
        "zero findings on the shipped tree" []
        (List.map Analyze.Report.key result.Analyze.findings)

let () =
  Alcotest.run "analyze"
    [
      ( "concurrency",
        [
          Alcotest.test_case "guarded-by / requires-lock" `Quick test_guarded;
          Alcotest.test_case "lock-order cycle" `Quick test_lockorder;
          Alcotest.test_case "module-level mutables" `Quick test_shared;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "hashtbl order" `Quick test_hashtbl_order;
          Alcotest.test_case "random streams" `Quick test_random;
        ] );
      ( "hotpath",
        [
          Alcotest.test_case "allocation classes" `Quick test_hot;
          Alcotest.test_case "boxed matrices" `Quick test_hot_matrix;
          Alcotest.test_case "option lookups" `Quick test_hot_lookup;
        ] );
      ( "infra",
        [
          Alcotest.test_case "baseline round-trip" `Quick test_baseline;
          Alcotest.test_case "json shape" `Quick test_json;
          Alcotest.test_case "shipped tree is clean" `Quick test_repo_clean;
        ] );
    ]
