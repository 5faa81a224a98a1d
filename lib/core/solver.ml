

type stats = { nodes : int; backtracks : int }

let make_state ?rng ~order g =
  let order = Order.compute ?rng order g in
  State.of_graph ~order g

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

(* Route to the persistent or the trail-based driver (the entry points
   default to the trail whenever rollouts are off: the persistent
   [State] copies the graph at every tree node, the trail undoes moves
   in place, and both search bit-identically); a positive
   [eval_cache] gives the solve its own transposition cache (repeated
   positions appear across backtracking replans and retreats).  An
   explicit [cache] (possibly striped-shared across a serving pool)
   takes precedence; [serve] routes wave evaluations through the
   cross-worker Nn.Infer service — both result-preserving. *)
let backtrack_solve ?cache ?serve ~incremental ~eval_cache ~net ~mode config
    state =
  let cache =
    match cache with
    | Some _ -> cache
    | None ->
        if eval_cache > 0 then Some (Nn.Cache.local ~capacity:eval_cache)
        else None
  in
  if incremental then
    Backtrack.solve_incremental ?cache ?serve ~net ~mode config state
  else Backtrack.solve ?cache ?serve ~net ~mode config state

(* The exact branch-and-bound engine behind the same stats surface as the
   Deep-RL entry points: the optimality-gap harness's oracle.  [backtracks]
   reports the search's pruned-subtree count. *)
let solve_exact ?max_nodes ?max_seconds g =
  let outcome, st = Solvers.Exact.solve ?max_nodes ?max_seconds g in
  ( outcome,
    { nodes = st.Solvers.Exact.nodes; backtracks = st.Solvers.Exact.pruned } )

let solve_feasible ~net ?(mcts = Mcts.default_config)
    ?(order = Order.Decreasing_liberty) ?(backtracking = true)
    ?(replan = true) ?(max_backtracks = 100_000) ?(exact_reduce = false)
    ?(rollouts = false) ?(incremental = not rollouts) ?(eval_cache = 0) ?cache
    ?serve ?rng g =
  if rollouts && incremental then
    invalid_arg "Solver.solve_feasible: rollouts are unsupported incrementally";
  let rollout =
    if rollouts then Some (Rollout.value ~mode:Game.Feasibility) else None
  in
  let solve_on g =
    let state = make_state ?rng ~order g in
    let result =
      backtrack_solve ?cache ?serve ~incremental ~eval_cache ~net
        ~mode:Game.Feasibility
        { Backtrack.mcts; enabled = backtracking; replan; max_backtracks;
          rollout }
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
    ?(incremental = not rollouts) ?(eval_cache = 0) ?cache ?serve ?rng g =
  if rollouts && incremental then
    invalid_arg "Solver.minimize: rollouts are unsupported incrementally";
  let reference =
    match reference with
    | Some r -> r
    | None ->
        let _, c, _ = Solvers.Scholz.solve_with_cost g in
        c
  in
  let mode = Game.Minimize { reference; shaping } in
  let rollout = if rollouts then Some (Rollout.value ~mode) else None in
  let solve_on g =
    let state = make_state ?rng ~order g in
    let result =
      backtrack_solve ?cache ?serve ~incremental ~eval_cache ~net ~mode
        { Backtrack.default_config with mcts; enabled = false; rollout }
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
