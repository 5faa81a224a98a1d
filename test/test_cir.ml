(* Tests for the compiler substrate: MiniC frontend, IR, liveness,
   register allocators, spill rewriting, and the VCPU simulator — with the
   central end-to-end property: every allocator's machine code reproduces
   the reference interpreter's output exactly. *)

open Testutil

(* ------------------------------------------------------------------ *)
(* Lexer / parser *)

let test_lexer () =
  let toks = Cir.Minic_lex.tokenize "int x = 42; // c\n x = x + 1.5;" in
  let kinds =
    List.map (fun t -> Cir.Minic_lex.token_to_string t.Cir.Minic_lex.tok) toks
  in
  Alcotest.(check (list string)) "tokens"
    [ "int"; "x"; "="; "42"; ";"; "x"; "="; "x"; "+"; "1.5"; ";"; "<eof>" ]
    kinds;
  (* line numbers advance past the comment's newline *)
  let last = List.nth toks (List.length toks - 2) in
  Alcotest.(check int) "line tracking" 2 last.Cir.Minic_lex.line

let test_lexer_comments_and_errors () =
  let toks = Cir.Minic_lex.tokenize "/* multi\nline */ 3" in
  Alcotest.(check int) "comment skipped" 2 (List.length toks);
  Alcotest.check_raises "bad char"
    (Invalid_argument "MiniC lexer: line 1: unexpected character '@'")
    (fun () -> ignore (Cir.Minic_lex.tokenize "@"))

let test_parse_precedence () =
  (* 2 + 3 * 4 == 14 must parse with * binding tighter *)
  let ir = Cir.Lower.compile "int main() { print(2 + 3 * 4); print((2 + 3) * 4); return 0; }" in
  let out = (Cir.Interp.run ir).Cir.Interp.output in
  Alcotest.(check (list string)) "precedence" [ "14"; "20" ] out

let test_parse_errors () =
  let expect s =
    match Cir.Minic_parse.parse s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected parse error: " ^ s)
  in
  expect "int main( { }";
  expect "int main() { int x = ; }";
  expect "int main() { if x { } }";
  expect "zork";
  expect "int a[0];"

let test_lower_type_errors () =
  let expect s =
    match Cir.Lower.compile s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected lowering error: " ^ s)
  in
  expect "int main() { return y; }";
  expect "int main() { float f; return f % 2; }";
  expect "void f() {} int main() { return f(); }";
  expect "int f(int x) { return x; } int main() { return f(1, 2); }";
  expect "float a[4]; int main() { return a[1.5]; }";
  expect "int main() { int x; int x; return 0; }"

(* ------------------------------------------------------------------ *)
(* Interpreter semantics *)

let run_src src = (Cir.Interp.run (Cir.Lower.compile src)).Cir.Interp.output

let test_interp_arith () =
  Alcotest.(check (list string)) "div truncation and mod"
    [ "-2"; "-1"; "2"; "1" ]
    (run_src
       "int main() { print(-7 / 3); print(-7 % 3); print(7 / 3); print(7 % 3); return 0; }")

let test_interp_float () =
  Alcotest.(check (list string)) "float ops" [ "3.500000"; "1" ]
    (run_src "int main() { print(1.0 + 2.5); print(2.5 > 1.0); return 0; }")

let test_interp_recursion_globals () =
  Alcotest.(check (list string)) "mutual state" [ "10" ]
    (run_src
       "int c = 0;\nvoid bump() { c = c + 1; }\nint main() { int i; for (i = 0; i < 10; i = i + 1) { bump(); } print(c); return 0; }")

let test_interp_break_continue () =
  Alcotest.(check (list string)) "break/continue" [ "18"; "5" ]
    (run_src
       "int main() { int i; int s = 0;\n\
        for (i = 0; i < 10; i = i + 1) {\n\
          if (i == 3) { continue; }\n\
          if (i == 7) { break; }\n\
          s = s + i; }\n\
        print(s);\n\
        int j = 0;\n\
        while (1) { j = j + 1; if (j >= 5) { break; } }\n\
        print(j); return 0; }");
  (match run_src "int main() { break; return 0; }" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "break outside loop must be rejected");
  match run_src "int main() { continue; return 0; }" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "continue outside loop must be rejected"

let test_interp_div_by_zero () =
  match run_src "int main() { int z = 0; print(1 / z); return 0; }" with
  | exception Cir.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division by zero"

let test_interp_oob () =
  match run_src "int a[3]; int main() { return a[5]; }" with
  | exception Cir.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected bounds error"

(* ------------------------------------------------------------------ *)
(* Liveness *)

let func_of src name =
  let ir = Cir.Lower.compile src in
  match Cir.Ir.find_func ir name with
  | Some f -> f
  | None -> Alcotest.fail ("no function " ^ name)

let test_liveness_interference_basic () =
  let f =
    func_of
      "int main() { int a = 1; int b = 2; int c = a + b; print(c); print(a); return 0; }"
      "main"
  in
  let live = Cir.Liveness.analyze f in
  (* a and b overlap; a survives past c's definition *)
  Alcotest.(check bool) "has interference" true
    (List.length live.Cir.Liveness.interference > 0);
  Alcotest.(check bool) "pressure sane" true (live.Cir.Liveness.max_pressure >= 2)

let test_liveness_loop_weights () =
  let f =
    func_of
      "int main() { int s = 0; int i; for (i = 0; i < 9; i = i + 1) { s = s + i; } print(s); return 0; }"
      "main"
  in
  let live = Cir.Liveness.analyze f in
  (* loop-carried vregs weigh more than the final print use *)
  let max_w = Array.fold_left Float.max 0.0 live.Cir.Liveness.weights in
  Alcotest.(check bool) "loop weight amplified" true (max_w >= 10.0)

let test_liveness_across_call () =
  let f =
    func_of
      "int g(int x) { return x + 1; }\nint main() { int a = 5; int b = g(1); print(a + b); return 0; }"
      "main"
  in
  let live = Cir.Liveness.analyze f in
  Alcotest.(check bool) "a lives across the call" true
    (not (Cir.Liveness.Iset.is_empty live.Cir.Liveness.across_call))

(* ------------------------------------------------------------------ *)
(* Allocators: validity and end-to-end equality *)

let all_kinds =
  [ Cir.Driver.Fast; Cir.Driver.Basic; Cir.Driver.Greedy; Cir.Driver.Pbqp ]

let test_allocators_valid_on_benchmarks () =
  List.iter
    (fun name ->
      let ir = Cir.Lower.compile (Cir.Programs.find name) in
      List.iter
        (fun (f : Cir.Ir.func) ->
          let live = Cir.Liveness.analyze f in
          List.iter
            (fun kind ->
              let alloc, _ = Cir.Driver.allocate kind live in
              match Cir.Regalloc.validate live alloc with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "%s/%s/%s: %s" name f.Cir.Ir.name
                    (Cir.Driver.alloc_kind_name kind)
                    e)
            all_kinds)
        ir.Cir.Ir.funcs)
    [ "Queens"; "Oscar"; "Quicksort"; "Nbody" ]

let test_end_to_end_output_equality () =
  List.iter
    (fun name ->
      let ir = Cir.Lower.compile (Cir.Programs.find name) in
      let expected = (Cir.Driver.reference ir).Cir.Interp.output in
      List.iter
        (fun kind ->
          let r = Cir.Driver.run kind ir in
          Alcotest.(check (list string))
            (Printf.sprintf "%s under %s" name (Cir.Driver.alloc_kind_name kind))
            expected r.Cir.Driver.outcome.Cir.Msim.output)
        all_kinds)
    [ "Fib"; "Gcd"; "Stats"; "Treesort"; "Hash" ]

let test_fast_spills_everything () =
  let f = func_of "int main() { int a = 1; print(a); return 0; }" "main" in
  let alloc = Cir.Regalloc.fast f in
  Alcotest.(check int) "all spilled" (Cir.Ir.nvregs f)
    (Cir.Regalloc.spill_count alloc)

let test_fast_is_slowest () =
  let ir = Cir.Lower.compile (Cir.Programs.find "Sieve") in
  let fast = (Cir.Driver.run Cir.Driver.Fast ir).Cir.Driver.outcome.Cir.Msim.cycles in
  List.iter
    (fun kind ->
      let c = (Cir.Driver.run kind ir).Cir.Driver.outcome.Cir.Msim.cycles in
      Alcotest.(check bool)
        (Cir.Driver.alloc_kind_name kind ^ " beats FAST")
        true (c < fast))
    [ Cir.Driver.Basic; Cir.Driver.Greedy; Cir.Driver.Pbqp ]

let prop_allocations_valid_random =
  (* random small programs assembled from benchmark pieces are heavy to
     generate; instead fuzz over the benchmark set x allocators *)
  qtest ~count:24 "every benchmark function gets a valid allocation"
    QCheck.(int_bound (List.length Cir.Programs.all - 1))
    (fun idx ->
      let _, src = List.nth Cir.Programs.all idx in
      let ir = Cir.Lower.compile src in
      List.for_all
        (fun (f : Cir.Ir.func) ->
          let live = Cir.Liveness.analyze f in
          List.for_all
            (fun kind ->
              let alloc, _ = Cir.Driver.allocate kind live in
              Cir.Regalloc.validate live alloc = Ok ())
            all_kinds)
        ir.Cir.Ir.funcs)

(* ------------------------------------------------------------------ *)
(* PBQP construction for the VCPU *)

let test_pbqp_build_structure () =
  let f =
    func_of
      "int main() { int a = 7; int b = a % 3; float x = 1.5; print(b); print(x); print(a); return 0; }"
      "main"
  in
  let live = Cir.Liveness.analyze f in
  let t = Cir.Alloc_pbqp.build live in
  let g = t.Cir.Alloc_pbqp.graph in
  Alcotest.(check int) "colors = regs + spill" Cir.Alloc_pbqp.num_colors
    (Pbqp.Graph.m g);
  (* every vertex can spill: the spill entry is finite *)
  List.iter
    (fun u ->
      Alcotest.(check bool) "spill entry finite" true
        (Pbqp.Cost.is_finite
           (Pbqp.Vec.get (Pbqp.Graph.cost g u) Cir.Alloc_pbqp.spill_color)))
    (Pbqp.Graph.vertices g)

let test_pbqp_scholz_allocator_reasonable () =
  let ir = Cir.Lower.compile (Cir.Programs.find "IntMM") in
  let r = Cir.Driver.run Cir.Driver.Pbqp ir in
  Alcotest.(check bool) "few spills" true (r.Cir.Driver.spills <= 6);
  Alcotest.(check bool) "finite cost" true
    (match r.Cir.Driver.pbqp_cost with
    | Some c -> Pbqp.Cost.is_finite c
    | None -> false)

let test_pbqp_rl_end_to_end () =
  let net =
    Nn.Pvnet.create ~rng:(rng 4)
      { (Nn.Pvnet.default_config ~m:Cir.Alloc_pbqp.num_colors) with
        trunk_width = 8; trunk_blocks = 1; gcn_layers = 1 }
  in
  let ir = Cir.Lower.compile (Cir.Programs.find "Gcd") in
  let expected = (Cir.Driver.reference ir).Cir.Interp.output in
  let r =
    Cir.Driver.run
      (Cir.Driver.Pbqp_rl (net, { Mcts.default_config with k = 12 }))
      ir
  in
  Alcotest.(check (list string)) "correct output" expected
    r.Cir.Driver.outcome.Cir.Msim.output;
  Alcotest.(check bool) "finite cost" true
    (match r.Cir.Driver.pbqp_cost with
    | Some c -> Pbqp.Cost.is_finite c
    | None -> false)

(* The PBQP-RL allocator searches on the trail: the anytime incumbent is
   a trail roll-out and MCTS blends trail roll-outs into its leaf values.
   The persistent oracle (graph copies at every move) must reach the same
   allocation and the same cost bits for every function. *)
let test_pbqp_rl_matches_oracle () =
  let net =
    Nn.Pvnet.create ~rng:(rng 4)
      { (Nn.Pvnet.default_config ~m:Cir.Alloc_pbqp.num_colors) with
        trunk_width = 8; trunk_blocks = 1; gcn_layers = 1 }
  in
  let mcts = { Mcts.default_config with k = 8 } in
  List.iter
    (fun name ->
      let ir = Cir.Lower.compile (Cir.Programs.find name) in
      List.iter
        (fun (f : Cir.Ir.func) ->
          let live = Cir.Liveness.analyze f in
          let alloc, c = Cir.Alloc_pbqp.solve_rl ~net ~mcts live in
          let alloc', c' = Oracle.solve_rl ~net ~mcts live in
          let msg = Printf.sprintf "%s/%s" name f.Cir.Ir.name in
          Alcotest.(check bool) (msg ^ ": allocation") true (alloc = alloc');
          Alcotest.(check int64) (msg ^ ": cost bits")
            (Int64.bits_of_float c') (Int64.bits_of_float c))
        ir.Cir.Ir.funcs)
    [ "Bubblesort"; "Queens"; "Quicksort"; "Knapsack" ]

(* ------------------------------------------------------------------ *)
(* Rewrite / simulator details *)

let test_spill_code_inserted () =
  let f = func_of "int main() { int a = 1; int b = 2; print(a + b); return 0; }" "main" in
  let alloc = Cir.Regalloc.fast f in
  let mf = Cir.Rewrite.rewrite_func f alloc in
  Alcotest.(check bool) "has slots" true (mf.Cir.Mach.nslots > 0);
  let has_spill_ops =
    Array.exists
      (fun b ->
        List.exists
          (function
            | Cir.Mach.MSpill_load _ | Cir.Mach.MSpill_store _ -> true
            | _ -> false)
          b.Cir.Mach.instrs)
      mf.Cir.Mach.blocks
  in
  Alcotest.(check bool) "spill ops present" true has_spill_ops

let test_caller_saved_clobber_is_adversarial () =
  (* run a program with calls under FAST (everything in memory): the
     clobbering must not affect correctness *)
  let ir =
    Cir.Lower.compile
      "int id(int x) { return x; }\nint main() { int a = 41; int b = id(1); print(a + b); return 0; }"
  in
  let expected = (Cir.Driver.reference ir).Cir.Interp.output in
  List.iter
    (fun kind ->
      let r = Cir.Driver.run kind ir in
      Alcotest.(check (list string)) "call-heavy program correct" expected
        r.Cir.Driver.outcome.Cir.Msim.output)
    all_kinds

let test_cycle_accounting_monotone () =
  (* more spills can never make the program faster on this cost model *)
  let ir = Cir.Lower.compile (Cir.Programs.find "Collatz") in
  let fast = Cir.Driver.run Cir.Driver.Fast ir in
  let pbqp = Cir.Driver.run Cir.Driver.Pbqp ir in
  Alcotest.(check bool) "spill count ordering" true
    (pbqp.Cir.Driver.spills <= fast.Cir.Driver.spills);
  Alcotest.(check bool) "cycle ordering" true
    (pbqp.Cir.Driver.outcome.Cir.Msim.cycles
    <= fast.Cir.Driver.outcome.Cir.Msim.cycles)

let test_rewrite_slots_only_in_calls () =
  (* MSlot operands are a call-argument addressing mode only *)
  List.iter
    (fun name ->
      let ir = Cir.Lower.compile (Cir.Programs.find name) in
      List.iter
        (fun (f : Cir.Ir.func) ->
          let mf = Cir.Rewrite.rewrite_func f (Cir.Regalloc.fast f) in
          Array.iter
            (fun (b : Cir.Mach.mblock) ->
              List.iter
                (fun instr ->
                  let check_val who = function
                    | Cir.Mach.MSlot _ when who <> `Call ->
                        Alcotest.failf "%s: slot operand outside a call" name
                    | _ -> ()
                  in
                  match instr with
                  | Cir.Mach.MCall (_, _, args) ->
                      List.iter (check_val `Call) args
                  | Cir.Mach.MBin (_, _, a, c) ->
                      check_val `Other a;
                      check_val `Other c
                  | Cir.Mach.MMov (_, a)
                  | Cir.Mach.MI2f (_, a)
                  | Cir.Mach.MF2i (_, a)
                  | Cir.Mach.MLoad (_, _, a)
                  | Cir.Mach.MPrint (_, a) ->
                      check_val `Other a
                  | Cir.Mach.MLoad_var _ -> ()
                  | Cir.Mach.MStore (_, a, c) ->
                      check_val `Other a;
                      check_val `Other c
                  | Cir.Mach.MStore_var (_, a) -> check_val `Other a
                  | Cir.Mach.MSpill_load _ | Cir.Mach.MSpill_store _ -> ())
                b.Cir.Mach.instrs)
            mf.Cir.Mach.blocks)
        ir.Cir.Ir.funcs)
    [ "Queens"; "Oscar" ]

(* ------------------------------------------------------------------ *)
(* Optimization passes *)

let instr_count (ir : Cir.Ir.program) =
  List.fold_left
    (fun acc (f : Cir.Ir.func) ->
      acc
      + Array.fold_left
          (fun a (b : Cir.Ir.block) -> a + List.length b.Cir.Ir.instrs)
          0 f.Cir.Ir.blocks)
    0 ir.Cir.Ir.funcs

let test_opt_folds_constants () =
  let ir = Cir.Lower.compile "int main() { int a = 2 + 3 * 4; print(a); return 0; }" in
  let before = instr_count ir in
  ignore (Cir.Opt.run ir);
  Alcotest.(check bool) "shrunk" true (instr_count ir < before);
  Alcotest.(check (list string)) "same output" [ "14" ]
    (Cir.Interp.run ir).Cir.Interp.output

let test_opt_kills_dead_code () =
  let ir =
    Cir.Lower.compile
      "int main() { int unused = 1 + 2; int x = 5; print(x); return 0; }"
  in
  ignore (Cir.Opt.run ir);
  Alcotest.(check (list string)) "output preserved" [ "5" ]
    (Cir.Interp.run ir).Cir.Interp.output

let test_opt_keeps_trapping_ops () =
  (* an unused division must survive DCE: it can trap *)
  let ir =
    Cir.Lower.compile
      "int main() { int z = 0; int t = 1 / z; print(9); return 0; }"
  in
  ignore (Cir.Opt.run ir);
  match Cir.Interp.run ir with
  | exception Cir.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "the trap was optimized away"

let prop_opt_preserves_semantics =
  qtest ~count:25 "optimizations preserve outputs on random programs"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Cir.Fuzzgen.generate ~rng:(rng seed) in
      let run ir =
        match Cir.Interp.run ir with
        | o -> Some o.Cir.Interp.output
        | exception Cir.Interp.Runtime_error _ -> None
      in
      run (Cir.Lower.compile src) = run (Cir.Opt.run (Cir.Lower.compile src)))

let test_opt_benchmarks_preserved () =
  List.iter
    (fun name ->
      let src = Cir.Programs.find name in
      let plain = (Cir.Interp.run (Cir.Lower.compile src)).Cir.Interp.output in
      let opt =
        (Cir.Interp.run (Cir.Opt.run (Cir.Lower.compile src))).Cir.Interp.output
      in
      Alcotest.(check (list string)) name plain opt)
    [ "Oscar"; "Quicksort"; "Nbody"; "Knapsack" ]

(* Differential fuzzing: random MiniC programs must produce identical
   output under the reference interpreter and every allocator's machine
   code.  This is the strongest whole-backend property we have. *)
let prop_fuzz_differential =
  qtest ~count:20 "random programs: allocators match the interpreter"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let src = Cir.Fuzzgen.generate ~rng:(rng seed) in
      let ir = Cir.Lower.compile src in
      match Cir.Driver.reference ir with
      | exception Cir.Interp.Runtime_error _ -> true (* fuel-bound corner *)
      | expected ->
          List.for_all
            (fun kind ->
              let r = Cir.Driver.run kind ir in
              r.Cir.Driver.outcome.Cir.Msim.output
              = expected.Cir.Interp.output)
            all_kinds)

let test_all_benchmarks_compile () =
  Alcotest.(check int) "24 benchmarks" 24 (List.length Cir.Programs.all);
  List.iter
    (fun (name, src) ->
      match Cir.Lower.compile src with
      | exception Invalid_argument e -> Alcotest.failf "%s: %s" name e
      | ir -> (
          match Cir.Ir.check ir with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: IR check: %s" name e))
    Cir.Programs.all

let () =
  Alcotest.run "cir"
    [
      ( "frontend",
        [
          Alcotest.test_case "lexer" `Quick test_lexer;
          Alcotest.test_case "comments and errors" `Quick
            test_lexer_comments_and_errors;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "type errors" `Quick test_lower_type_errors;
        ] );
      ( "interp",
        [
          Alcotest.test_case "integer arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "float arithmetic" `Quick test_interp_float;
          Alcotest.test_case "recursion and globals" `Quick
            test_interp_recursion_globals;
          Alcotest.test_case "break/continue" `Quick test_interp_break_continue;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "bounds checking" `Quick test_interp_oob;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "interference" `Quick test_liveness_interference_basic;
          Alcotest.test_case "loop weights" `Quick test_liveness_loop_weights;
          Alcotest.test_case "across call" `Quick test_liveness_across_call;
        ] );
      ( "allocators",
        [
          Alcotest.test_case "valid on benchmarks" `Quick
            test_allocators_valid_on_benchmarks;
          Alcotest.test_case "end-to-end output equality" `Quick
            test_end_to_end_output_equality;
          Alcotest.test_case "fast spills everything" `Quick
            test_fast_spills_everything;
          Alcotest.test_case "fast is slowest" `Quick test_fast_is_slowest;
          prop_allocations_valid_random;
        ] );
      ( "pbqp",
        [
          Alcotest.test_case "build structure" `Quick test_pbqp_build_structure;
          Alcotest.test_case "scholz allocator" `Quick
            test_pbqp_scholz_allocator_reasonable;
          Alcotest.test_case "rl end to end" `Quick test_pbqp_rl_end_to_end;
          Alcotest.test_case "rl = persistent oracle" `Quick
            test_pbqp_rl_matches_oracle;
        ] );
      ( "opt",
        [
          Alcotest.test_case "constant folding" `Quick test_opt_folds_constants;
          Alcotest.test_case "dead code" `Quick test_opt_kills_dead_code;
          Alcotest.test_case "trapping ops survive" `Quick
            test_opt_keeps_trapping_ops;
          prop_opt_preserves_semantics;
          Alcotest.test_case "benchmarks preserved" `Quick
            test_opt_benchmarks_preserved;
        ] );
      ( "backend",
        [
          Alcotest.test_case "spill code inserted" `Quick test_spill_code_inserted;
          Alcotest.test_case "slots only in calls" `Quick
            test_rewrite_slots_only_in_calls;
          Alcotest.test_case "adversarial clobber" `Quick
            test_caller_saved_clobber_is_adversarial;
          Alcotest.test_case "cycle accounting" `Quick
            test_cycle_accounting_monotone;
          prop_fuzz_differential;
          Alcotest.test_case "all 24 compile" `Quick test_all_benchmarks_compile;
        ] );
    ]
