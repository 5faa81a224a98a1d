(* The deterministic battery behind `pbqp-lint --self-test`: positive
   properties (generated instances are well-formed, classic-solver
   solutions certify, gradients match finite differences, the CIR and ATE
   pipelines verify end to end) and negative properties (hand-crafted
   malformed graphs/solutions are rejected). *)

open Check
open Pbqp

type case = { name : string; ok : bool; detail : string }

(* pass iff no Error finding *)
let clean name findings =
  let errs = Diag.errors_only findings in
  {
    name;
    ok = errs = [];
    detail =
      (if errs = [] then Printf.sprintf "%d finding(s), none fatal"
         (List.length findings)
       else Diag.to_string errs);
  }

(* pass iff at least one Error finding *)
let rejected name findings =
  if Diag.has_errors findings then
    { name; ok = true; detail = "rejected as expected" }
  else { name; ok = false; detail = "accepted a malformed input" }

let ok cases = List.for_all (fun c -> c.ok) cases

(* Drop the semantic arc-consistency findings: a plain Erdős–Rényi draw
   may legitimately be infeasible, which is a property of the instance,
   not of its representation. *)
let structural_only =
  List.filter (fun f ->
      not (String.starts_with ~prefix:"pbqp-arc" f.Diag.rule))

(* --- PBQP graphs + classic solver certification ------------------------ *)

let graph_battery ~rng ~graphs =
  let cases = ref [] in
  for i = 1 to graphs do
    let m = 2 + (i mod 3) in
    let n = 3 + (i mod (if m >= 4 then 6 else 7)) in
    let config =
      {
        Generate.default with
        n;
        m;
        p_edge = 0.3 +. (0.1 *. float_of_int (i mod 4));
        p_inf = (if i mod 2 = 0 then 0.0 else 0.15);
        zero_inf = i mod 5 = 0;
        min_liberty = 1;
      }
    in
    let g, tag =
      if i mod 3 = 0 then (Generate.erdos_renyi ~rng config, "er")
      else (fst (Generate.planted ~rng config), "planted")
    in
    let wf = Invariants.graph g in
    let wf = if tag = "er" then structural_only wf else wf in
    cases := clean (Printf.sprintf "wellformed-%s-%03d" tag i) wf :: !cases;
    cases :=
      clean
        (Printf.sprintf "certify-classic-%03d" i)
        (Certify.classic_findings g)
      :: !cases
  done;
  List.rev !cases

(* --- hand-crafted malformed inputs ------------------------------------- *)

let negative_battery () =
  let fig2 = Generate.fig2 () in
  let bad_vertex () =
    let g = Graph.create ~m:2 ~n:2 in
    Graph.set_cost g 0 (Vec.of_array [| Cost.inf; Cost.inf |]);
    g
  in
  let conflict_graph () =
    let g = Graph.create ~m:2 ~n:2 in
    Graph.add_edge g 0 1
      (Mat.of_arrays [| [| Cost.inf; 0.0 |]; [| 0.0; 0.0 |] |]);
    g
  in
  [
    rejected "reject-parse"
      (Invariants.lint_string "pbqp 2 2\nv 0 1.0\n");
    rejected "reject-unknown-directive"
      (Invariants.lint_string "pbqp 1 2\nq 0 1 2\n");
    rejected "reject-no-color" (Invariants.graph (bad_vertex ()));
    rejected "reject-color-range"
      (Certify.solution fig2 (Solution.of_array [| 0; 5; 0 |]));
    rejected "reject-unassigned"
      (Certify.solution fig2 (Solution.of_array [| 0; Solution.unassigned; 0 |]));
    rejected "reject-conflict"
      (Certify.solution (conflict_graph ()) (Solution.of_array [| 0; 0 |]));
    rejected "reject-cost-lie"
      (Certify.solution ~reported:5.0 fig2 (Solution.of_array [| 0; 0; 0 |]));
    rejected "reject-below-optimum"
      (Certify.against_brute fig2 ~reported:5.0);
  ]

(* --- exact branch-and-bound solver -------------------------------------- *)

(* The Exact solver variant under its own certifier: the proven optimum
   must survive the brute-force cross-check and witness re-certification
   of [Certify.certify_optimal], no classic solver may report a cost
   below it, and a node-budget timeout must be bit-deterministic. *)
let exact_battery ~rng =
  let cases = ref [] in
  for i = 1 to 8 do
    let config =
      {
        Generate.default with
        n = 6 + (i mod 5);
        m = 2 + (i mod 3);
        p_edge = 0.35;
        p_inf = (if i mod 2 = 0 then 0.0 else 0.2);
        zero_inf = i mod 4 = 0;
        min_liberty = 1;
      }
    in
    let g = Generate.erdos_renyi ~rng config in
    let _, scholz_cost, _ = Solvers.Scholz.solve_with_cost g in
    let oracle, findings =
      Certify.certify_optimal ~brute_cap:12 g ~reported:scholz_cost
    in
    (cases :=
       match oracle with
       | Certify.Oracle_skipped reason ->
           {
             name = Printf.sprintf "exact-oracle-%d" i;
             ok = false;
             detail = "budget hit on a tiny instance: " ^ reason;
           }
           :: !cases
       | Certify.Proven _ ->
           clean (Printf.sprintf "exact-oracle-%d" i) findings :: !cases);
    (match oracle with
    | Certify.Proven opt when Cost.is_finite opt ->
        let classic =
          [
            ( "scholz",
              if Cost.is_finite scholz_cost then Some scholz_cost else None );
            ( "mrv",
              Option.map
                (fun s -> Solution.cost g s)
                (fst (Solvers.Mrv.solve ~max_states:200_000 g)) );
            ("greedy", Option.map snd (fst (Solvers.Greedy.solve g)));
          ]
        in
        let tol = 1e-6 *. (1.0 +. Float.abs (Cost.to_float opt)) in
        let beats =
          List.filter_map
            (fun (name, c) ->
              match c with
              | Some c when Cost.to_float c < Cost.to_float opt -. tol ->
                  Some name
              | _ -> None)
            classic
        in
        cases :=
          {
            name = Printf.sprintf "exact-vs-classic-%d" i;
            ok = beats = [];
            detail =
              (if beats = [] then "no classic solver beats the optimum"
               else String.concat ", " beats ^ " below the proven optimum");
          }
          :: !cases
    | _ -> ())
  done;
  (* timeout determinism: the node budget is counted identically on every
     run, so two runs return the same outcome and stats *)
  let g =
    Generate.erdos_renyi ~rng
      { Generate.default with n = 14; m = 3; p_edge = 0.5; min_liberty = 1 }
  in
  let describe (outcome, (st : Solvers.Exact.stats)) =
    (match outcome with
    | Solvers.Exact.Optimal (_, c) -> "optimal " ^ Cost.to_string c
    | Solvers.Exact.Infeasible -> "infeasible"
    | Solvers.Exact.Timeout None -> "timeout none"
    | Solvers.Exact.Timeout (Some (_, c)) -> "timeout " ^ Cost.to_string c)
    ^ Printf.sprintf " nodes=%d pruned=%d" st.Solvers.Exact.nodes
        st.Solvers.Exact.pruned
  in
  let r1 = describe (Solvers.Exact.solve ~max_nodes:60 ~reduce:false g) in
  let r2 = describe (Solvers.Exact.solve ~max_nodes:60 ~reduce:false g) in
  cases :=
    {
      name = "exact-timeout-deterministic";
      ok = r1 = r2;
      detail =
        (if r1 = r2 then r1 else Printf.sprintf "%s <> %s" r1 r2);
    }
    :: !cases;
  List.rev !cases

(* --- gradients --------------------------------------------------------- *)

let grad_battery () =
  [
    clean "gradcheck-layers" (Gradcheck.layer_battery ());
    clean "gradcheck-pvnet" (Gradcheck.pvnet_battery ());
  ]

(* --- CIR pipeline ------------------------------------------------------ *)

let cir_battery ~rng =
  List.concat_map
    (fun i ->
      let src = Cir.Fuzzgen.generate ~rng in
      List.map
        (fun kind ->
          clean
            (Printf.sprintf "cir-fuzz-%d-%s" i
               (Cir_check.alloc_kind_name kind))
            (Cir_check.check_source ~kind src))
        [ Cir_check.Basic; Cir_check.Greedy; Cir_check.Pbqp ])
    [ 1; 2; 3 ]

(* --- ATE pipeline ------------------------------------------------------ *)

let ate_battery ~rng =
  let machine = Ate.Machine.default in
  let prog, witness =
    Ate.Progen.generate_with_witness ~machine ~rng ~target_vregs:12 ()
  in
  let info = Ate.Program.analyze_exn prog in
  let schedule_case = clean "ate-schedule" (Ate_check.schedule machine prog) in
  let pad_case = clean "ate-pad" (Ate_check.padded machine prog) in
  let witness_case =
    clean "ate-witness" (Ate_check.assignment machine info ~assignment:witness)
  in
  let build = Ate.Pbqp_build.build machine info in
  let graph_case = clean "ate-pbqp-graph" (Invariants.graph build.Ate.Pbqp_build.graph) in
  let solver_case =
    match fst (Solvers.Mrv.solve ~max_states:200_000 build.Ate.Pbqp_build.graph) with
    | None ->
        {
          name = "ate-pbqp-solve";
          ok = false;
          detail = "MRV found no solution on a feasible-by-construction graph";
        }
    | Some sol ->
        let cert = Certify.solution build.Ate.Pbqp_build.graph sol in
        let assignment = Ate.Pbqp_build.assignment_of_solution build sol in
        clean "ate-pbqp-roundtrip"
          (cert @ Ate_check.assignment machine info ~assignment)
  in
  [ schedule_case; pad_case; witness_case; graph_case; solver_case ]

(* --- incremental (trail) state ----------------------------------------- *)

(* Interleaved apply/undo walks on the trail state (Core.Istate): after
   every move the live trail graph must still satisfy the graph
   invariants and be structurally equal to the persistent State oracle
   rebuilt from the same move sequence — the in-place push/pop/redo
   machinery may never leave the graph in a state the persistent path
   could not reach. *)
let trail_battery ~rng =
  List.map
    (fun i ->
      let config =
        {
          Generate.default with
          n = 6 + i;
          m = 2 + (i mod 3);
          p_edge = 0.4;
          p_inf = 0.1;
          min_liberty = 1;
        }
      in
      let g = Generate.erdos_renyi ~rng config in
      let st0 = Core.State.of_graph g in
      let ist = Core.Istate.of_state st0 in
      let stack = ref [ st0 ] in
      let findings = ref [] in
      let diverged = ref 0 in
      for _step = 1 to 40 do
        let top = List.hd !stack in
        let depth = List.length !stack - 1 in
        let legal =
          List.filter (Core.State.legal top)
            (List.init (Core.State.m top) Fun.id)
        in
        (match legal with
        | _ :: _ when depth = 0 || Random.State.bool rng ->
            let c = List.nth legal (Random.State.int rng (List.length legal)) in
            stack := Core.State.apply top c :: !stack;
            Core.Istate.apply ist c
        | _ when depth > 0 ->
            stack := List.tl !stack;
            Core.Istate.undo ist
        | _ -> ());
        (* solvability rules (arc consistency, all-infinite vectors) are
           properties of the position — a mid-game dead end is a legal
           state — so only the structural rules apply here *)
        findings :=
          List.filter
            (fun f -> not (String.starts_with ~prefix:"pbqp-no-color" f.Diag.rule))
            (structural_only (Invariants.graph (Core.Istate.graph ist)))
          @ !findings;
        if
          not
            (Graph.equal
               (Core.State.graph (List.hd !stack))
               (Core.Istate.graph ist))
        then incr diverged
      done;
      if !diverged > 0 then
        {
          name = Printf.sprintf "trail-oracle-%d" i;
          ok = false;
          detail =
            Printf.sprintf "%d position(s) diverged from the persistent oracle"
              !diverged;
        }
      else clean (Printf.sprintf "trail-oracle-%d" i) !findings)
    [ 1; 2; 3; 4 ]

(* --- entry point -------------------------------------------------------- *)

(* --- flat tensor kernels ----------------------------------------------- *)

let tensor_battery ~rng =
  let bits_eq a b =
    let da = Tensor.data a and db = Tensor.data b in
    Tensor.shape a = Tensor.shape b
    &&
    let n = Float.Array.length da in
    let rec go i =
      i >= n
      || Int64.equal
           (Int64.bits_of_float (Float.Array.get da i))
           (Int64.bits_of_float (Float.Array.get db i))
         && go (i + 1)
    in
    go 0
  in
  let random_matrix r c =
    Tensor.init2 r c (fun _ _ ->
        if Random.State.float rng 1.0 < 0.2 then 0.0
        else Random.State.float rng 2.0 -. 1.0)
  in
  let case name ok detail =
    { name; ok; detail = (if ok then "ok" else detail) }
  in
  (* packed-panel GEMM bit-identical to the naive reference across
     panel-boundary shapes *)
  let packed_ok =
    List.for_all
      (fun (ra, ca, cb) ->
        let a = random_matrix ra ca and b = random_matrix ca cb in
        let out = Tensor.zeros [| ra; cb |] in
        Tensor.matmul_packed_into out a (Tensor.pack b);
        bits_eq out (Tensor.matmul_naive a b))
      [ (5, 7, 9); (16, 32, 8); (33, 9, 17); (1, 8, 1) ]
  in
  (* fused epilogue = unfused sequence, bitwise *)
  let fused_ok =
    let ra, ca, cb = (6, 9, 13) in
    let a = random_matrix ra ca and b = random_matrix ca cb in
    let bias = Tensor.row (random_matrix 1 cb) 0 in
    let residual = random_matrix ra cb in
    let fused = Tensor.zeros [| ra; cb |] in
    Tensor.matmul_packed_into ~bias ~residual ~relu:true fused a
      (Tensor.pack b);
    let prod = Tensor.matmul_naive a b in
    let expect =
      Tensor.init2 ra cb (fun i j ->
          let v = Tensor.get2 prod i j +. Tensor.get1 bias j in
          let v = Tensor.get2 residual i j +. v in
          if v > 0.0 then v else 0.0)
    in
    bits_eq fused expect
  in
  (* floatarray bridges round-trip as copies *)
  let bridge_ok =
    let t = Tensor.row (random_matrix 1 11) 0 in
    let fa = Tensor.to_float_array t in
    let back = Tensor.of_float_array fa in
    Float.Array.set fa 0 1234.5;
    bits_eq t back && Tensor.get1 back 0 <> 1234.5
  in
  [
    case "tensor-packed-bitwise" packed_ok "packed GEMM diverged from naive";
    case "tensor-fused-epilogue" fused_ok "fused epilogue diverged";
    case "tensor-floatarray-bridge" bridge_ok "bridge aliased or diverged";
  ]

let run ?(graphs = 60) ?(seed = 42) () =
  let rng = Random.State.make [| seed |] in
  graph_battery ~rng ~graphs
  @ negative_battery ()
  @ exact_battery ~rng
  @ grad_battery ()
  @ tensor_battery ~rng
  @ cir_battery ~rng
  @ ate_battery ~rng
  @ trail_battery ~rng
