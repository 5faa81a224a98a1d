(* Solution certifier: accepts a solver's output only after recomputing
   everything from the original graph with its own (deliberately
   independent) cost loop — a bug in [Solution.cost] or in a solver's
   incremental bookkeeping shows up as a certification failure here.

   Certification levels:
   - [solution]    well-formedness + admissibility + recomputed-vs-reported
   - [against_brute]  reported cost may not beat the brute-force optimum
   - [classic_solvers]  run every classic solver on a graph and certify
     each claim, including cross-solver consistency. *)

open Pbqp

let default_eps = 1e-6

(* Independent recomputation over the raw representation: vertex terms for
   every live vertex, each symmetric edge counted once via the u < v
   orientation.  Edges are visited in ascending (u, v) order — NOT in
   raw adjacency (hash-table) order — so the float accumulation has one
   fixed order and the certified cost is reproducible across runs and
   checkpoint reloads (pbqp_analyze's unordered-reduction lint flagged
   the previous Graph.iter_adjacency version). *)
let recompute g s =
  let acc = ref Cost.zero in
  let add x = acc := Cost.add !acc x in
  List.iter
    (fun u ->
      let cu = Solution.get s u in
      if cu = Solution.unassigned then add Cost.inf
      else add (Vec.get (Graph.cost g u) cu))
    (Graph.vertices g);
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v then begin
            let muv = Option.get (Graph.edge_ref g u v) in
            let cu = Solution.get s u and cv = Solution.get s v in
            if cu = Solution.unassigned || cv = Solution.unassigned then
              add Cost.inf
            else add (Mat.get muv cu cv)
          end)
        (Graph.neighbors g u))
    (Graph.vertices g);
  !acc

let solution ?(eps = default_eps) ?reported g s =
  let c = Diag.collector () in
  let n = Graph.capacity g and m = Graph.m g in
  if Solution.length s <> n then
    Diag.errorf c "certify-length" Diag.Global
      "solution has %d entries, graph capacity is %d" (Solution.length s) n
  else begin
    List.iter
      (fun u ->
        let col = Solution.get s u in
        if col = Solution.unassigned then
          Diag.errorf c "certify-unassigned" (Diag.Vertex u)
            "live vertex has no color"
        else if col < 0 || col >= m then
          Diag.errorf c "certify-color-range" (Diag.Vertex u)
            "color %d out of range [0,%d)" col m
        else if Cost.is_inf (Vec.get (Graph.cost g u) col) then
          Diag.errorf c "certify-inadmissible" (Diag.Vertex u)
            "color %d has infinite vertex cost" col)
      (Graph.vertices g);
    if Diag.error_count_in c = 0 then begin
      Graph.fold_edges
        (fun u v muv () ->
          let cu = Solution.get s u and cv = Solution.get s v in
          if Cost.is_inf (Mat.get muv cu cv) then
            Diag.errorf c "certify-conflict" (Diag.Edge (u, v))
              "colors (%d,%d) hit an infinite edge cost" cu cv)
        g ();
      let rc = recompute g s in
      (if Diag.error_count_in c = 0 && Cost.is_inf rc then
         Diag.errorf c "certify-infinite" Diag.Global
           "recomputed cost is infinite");
      match reported with
      | None -> ()
      | Some r ->
          let tol = eps *. (1.0 +. Float.abs (Cost.to_float r)) in
          if not (Cost.approx_equal ~eps:tol rc r) then
            Diag.errorf c "certify-cost-mismatch" Diag.Global
              "solver reported %s but recomputation gives %s"
              (Cost.to_string r) (Cost.to_string rc)
    end
  end;
  Diag.report c

let valid g s = not (Diag.has_errors (solution g s))

(* --- brute-force cross-check ----------------------------------------- *)

type brute_verdict =
  | Optimal of Cost.t  (* exhaustive search completed *)
  | Skipped of string  (* search did not complete; the reason why *)
  | Infeasible

let brute_optimum ?(max_states = 500_000) g =
  let result, stats = Solvers.Brute.solve ~max_states g in
  if stats.Solvers.Brute.states > max_states then
    Skipped
      (Printf.sprintf
         "exhaustive search budget exhausted after %d states (cap %d) on %d \
          live vertices"
         stats.Solvers.Brute.states max_states (Graph.n_alive g))
  else match result with Some (_, c) -> Optimal c | None -> Infeasible

let against_brute ?max_states ?(eps = default_eps) g ~reported =
  let c = Diag.collector () in
  (match brute_optimum ?max_states g with
  | Skipped reason ->
      (* an explicit non-verdict, not a pass: callers must not read the
         absence of errors here as "cross-checked" *)
      Diag.warningf c "certify-brute-skipped" Diag.Global
        "brute-force cross-check skipped: %s" reason
  | Infeasible ->
      if Cost.is_finite reported then
        Diag.errorf c "certify-claims-infeasible" Diag.Global
          "solver reported finite cost %s on a provably infeasible graph"
          (Cost.to_string reported)
  | Optimal opt ->
      let tol = eps *. (1.0 +. Float.abs (Cost.to_float opt)) in
      if
        Cost.is_finite reported
        && Cost.to_float reported < Cost.to_float opt -. tol
      then
        Diag.errorf c "certify-below-optimum" Diag.Global
          "solver reported %s, below the proven optimum %s"
          (Cost.to_string reported) (Cost.to_string opt));
  Diag.report c

(* --- whole-solver battery -------------------------------------------- *)

type solver_run = {
  solver : string;
  cost : Cost.t option;  (* None: solver found no solution *)
  findings : Diag.finding list;
}

(* Run the four classic solvers; certify every claimed solution, and when
   the brute-force search completes within budget, cross-check the
   heuristic costs against the optimum and the feasibility claims against
   each other. *)
let classic_solvers ?(max_states = 200_000) g =
  let brute_max = 500_000 in
  let runs = ref [] in
  let push solver cost findings = runs := { solver; cost; findings } :: !runs in
  (* scholz always returns a full assignment; an infinite cost is the
     heuristic failing, not a certifiable claim *)
  let scholz_sol, scholz_cost, _ = Solvers.Scholz.solve_with_cost g in
  (if Cost.is_finite scholz_cost then
     push "scholz" (Some scholz_cost)
       (solution ~reported:scholz_cost g scholz_sol)
   else push "scholz" None []);
  let certify_opt solver = function
    | Some sol ->
        let cost = recompute g sol in
        push solver (Some cost) (solution ~reported:cost g sol)
    | None -> push solver None []
  in
  certify_opt "mrv" (fst (Solvers.Mrv.solve ~max_states g));
  certify_opt "liberty" (fst (Solvers.Liberty.solve ~max_states g));
  let brute_result, brute_stats = Solvers.Brute.solve ~max_states:brute_max g in
  let brute =
    if brute_stats.Solvers.Brute.states > brute_max then
      Skipped
        (Printf.sprintf "exhaustive search budget exhausted after %d states"
           brute_stats.Solvers.Brute.states)
    else
      match brute_result with
      | Some (_, c) -> Optimal c
      | None -> Infeasible
  in
  (match (brute, brute_result) with
  | Optimal opt, Some (sol, _) ->
      push "brute" (Some opt) (solution ~reported:opt g sol)
  | Skipped reason, _ ->
      push "brute" None
        [
          Diag.warning "certify-brute-skipped" Diag.Global
            "brute-force search skipped: %s" reason;
        ]
  | _ -> push "brute" None []);
  (* cross-solver consistency *)
  let cross = Diag.collector () in
  (match brute with
  | Optimal opt ->
      List.iter
        (fun r ->
          match r.cost with
          | Some c when r.solver <> "brute" ->
              let tol = default_eps *. (1.0 +. Float.abs (Cost.to_float opt)) in
              if Cost.to_float c < Cost.to_float opt -. tol then
                Diag.errorf cross "certify-below-optimum" Diag.Global
                  "%s reported %s, below the proven optimum %s" r.solver
                  (Cost.to_string c) (Cost.to_string opt)
          | _ -> ())
        !runs
  | Infeasible ->
      List.iter
        (fun r ->
          match r.cost with
          | Some c ->
              Diag.errorf cross "certify-claims-infeasible" Diag.Global
                "%s reported %s on a provably infeasible graph" r.solver
                (Cost.to_string c)
          | None -> ())
        !runs
  | Skipped _ -> ());
  (List.rev !runs, Diag.report cross)

(* --- exact-solver oracle --------------------------------------------- *)

type oracle =
  | Proven of Cost.t  (* exact optimum; [Cost.inf] = proven infeasible *)
  | Oracle_skipped of string  (* exact budget exhausted: no verdict *)

(* Does any cost entry go below zero?  The brute-force search prunes on
   the bare prefix cost, which is only a bound for non-negative costs —
   on graphs with negative entries (the allocator's coalescing credits)
   its verdict is unreliable and must not veto the exact solver's. *)
let has_negative_costs g =
  List.exists
    (fun u -> Cost.compare (Vec.min_value (Graph.cost g u)) Cost.zero < 0)
    (Graph.vertices g)
  || Graph.fold_edges
       (fun _ _ muv acc ->
         acc || Cost.compare (Mat.min_value muv) Cost.zero < 0)
       g false

let certify_optimal ?(max_nodes = 2_000_000) ?(brute_cap = 8)
    ?(eps = default_eps) g ~reported =
  let brute_states = 2_000_000 in
  let c = Diag.collector () in
  let small = Graph.n_alive g <= brute_cap && not (has_negative_costs g) in
  match Solvers.Exact.solve ~max_nodes g with
  | Solvers.Exact.Timeout _, stats ->
      (* an explicit non-verdict: no pass or fail can be concluded *)
      let reason =
        Printf.sprintf "exact search budget exhausted after %d nodes"
          stats.Solvers.Exact.nodes
      in
      Diag.warningf c "certify-exact-budget" Diag.Global
        "optimality not certified: %s" reason;
      (Oracle_skipped reason, Diag.report c)
  | Solvers.Exact.Infeasible, _ ->
      if Cost.is_finite reported then
        Diag.errorf c "certify-claims-infeasible" Diag.Global
          "solver reported finite cost %s on a provably infeasible graph"
          (Cost.to_string reported);
      (if small then
         match brute_optimum ~max_states:brute_states g with
         | Optimal b ->
             Diag.errorf c "certify-exact-vs-brute" Diag.Global
               "exact solver proved infeasibility but brute force found cost %s"
               (Cost.to_string b)
         | Infeasible | Skipped _ -> ());
      (Proven Cost.inf, Diag.report c)
  | Solvers.Exact.Optimal (sol, opt), _ ->
      (* the oracle's own claim is certified, never trusted: its witness
         must recompute to its cost, and on small graphs the optimum is
         cross-checked against the independent exhaustive search *)
      let own =
        List.map
          (fun f -> { f with Diag.rule = "exact/" ^ f.Diag.rule })
          (solution ~eps ~reported:opt g sol)
      in
      let tol = eps *. (1.0 +. Float.abs (Cost.to_float opt)) in
      (if small then
         match brute_optimum ~max_states:brute_states g with
         | Optimal b ->
             if not (Cost.approx_equal ~eps:tol b opt) then
               Diag.errorf c "certify-exact-vs-brute" Diag.Global
                 "exact solver proved optimum %s but brute force gives %s"
                 (Cost.to_string opt) (Cost.to_string b)
         | Infeasible ->
             Diag.errorf c "certify-exact-vs-brute" Diag.Global
               "exact solver proved optimum %s but brute force says infeasible"
               (Cost.to_string opt)
         | Skipped reason ->
             Diag.infof c "certify-brute-skipped" Diag.Global
               "brute cross-check of the exact solver skipped: %s" reason);
      if
        Cost.is_finite reported
        && Cost.to_float reported < Cost.to_float opt -. tol
      then
        Diag.errorf c "certify-below-optimum" Diag.Global
          "solver reported %s, below the proven optimum %s"
          (Cost.to_string reported) (Cost.to_string opt);
      (Proven opt, own @ Diag.report c)

let classic_findings ?max_states g =
  let runs, cross = classic_solvers ?max_states g in
  List.concat_map
    (fun r -> List.map (fun f -> { f with Diag.rule = r.solver ^ "/" ^ f.Diag.rule }) r.findings)
    runs
  @ cross
