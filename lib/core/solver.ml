

type stats = { nodes : int; backtracks : int }

let make_state ?rng ~order g =
  let order = Order.compute ?rng order g in
  Istate.of_graph ~order g

(* Run [solve] on the R0/R1/R2-residual core and reconstruct the easy
   periphery exactly. *)
let with_exact_reduction g solve =
  let residual, reduction = Solvers.Scholz.reduce_exact g in
  match solve residual with
  | None, stats -> (None, stats)
  | Some sol, stats ->
      let sol = Pbqp.Solution.copy sol in
      Solvers.Scholz.complete reduction sol;
      (Some sol, stats)

(* The exact branch-and-bound engine behind the same stats surface as the
   Deep-RL entry points: the optimality-gap harness's oracle.  [backtracks]
   reports the search's pruned-subtree count. *)
let solve_exact ?max_nodes ?max_seconds g =
  let outcome, st = Solvers.Exact.solve ?max_nodes ?max_seconds g in
  ( outcome,
    { nodes = st.Solvers.Exact.nodes; backtracks = st.Solvers.Exact.pruned } )

(* A solve given no service evaluates its leaves through a one-worker
   service of its own: the same route, run as a direct call. *)
let own_service = function
  | Some serve -> serve
  | None -> Nn.Infer.create ~workers:1 ()

let solve_feasible ~net ?(mcts = Mcts.default_config)
    ?(order = Order.Decreasing_liberty) ?(backtracking = true)
    ?(replan = true) ?(max_backtracks = 100_000) ?(exact_reduce = false)
    ?(rollouts = false) ?cache ?serve ?rng g =
  let serve = own_service serve in
  let solve_on g =
    let state = make_state ?rng ~order g in
    let result =
      Backtrack.solve ?cache ~serve ~net ~mode:Game.Feasibility
        { Backtrack.mcts; enabled = backtracking; replan; max_backtracks;
          rollouts }
        state
    in
    ( result.Backtrack.solution,
      { nodes = result.Backtrack.nodes;
        backtracks = result.Backtrack.backtracks } )
  in
  if exact_reduce then
    let sol, stats = with_exact_reduction g solve_on in
    (* the reconstruction must yield a finite-cost full solution *)
    match sol with
    | Some s when Pbqp.Cost.is_finite (Pbqp.Solution.cost g s) -> (Some s, stats)
    | _ -> (None, stats)
  else solve_on g

let minimize ~net ?(mcts = Mcts.default_config) ?(order = Order.By_id)
    ?reference ?(shaping = 5.0) ?(exact_reduce = false) ?(rollouts = false)
    ?cache ?serve ?rng g =
  let reference =
    match reference with
    | Some r -> r
    | None ->
        let _, c, _ = Solvers.Scholz.solve_with_cost g in
        c
  in
  let mode = Game.Minimize { reference; shaping } in
  let serve = own_service serve in
  let solve_on g =
    let state = make_state ?rng ~order g in
    let result =
      Backtrack.solve ?cache ~serve ~net ~mode
        { Backtrack.default_config with mcts; enabled = false; rollouts }
        state
    in
    ( result.Backtrack.solution,
      { nodes = result.Backtrack.nodes;
        backtracks = result.Backtrack.backtracks } )
  in
  let sol, stats =
    if exact_reduce then with_exact_reduction g solve_on else solve_on g
  in
  match sol with
  | Some s -> (Some (s, Pbqp.Solution.cost g s), stats)
  | None -> (None, stats)
