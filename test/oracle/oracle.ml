(* Persistent-state reference drivers.

   The library searches on the trail state (Core.Istate): one mutable
   graph, O(deg) apply/undo.  These are the same drivers written over the
   persistent Core.State, whose every transition copies the graph — the
   obvious, slow implementation.  The differential tests compare the
   library against them: same solutions, cost bits, node and backtrack
   counts, and training samples. *)

open Pbqp

(* Greedy roll-outs by repeated persistent transitions. *)
module Rollout = struct
  let rec complete st =
    if Core.State.is_complete st then Some st
    else if Core.State.is_dead_end st then None
    else
      match Core.State.next_cost_vector st with
      | None -> None
      | Some vec ->
          let m = Core.State.m st in
          let best = ref (-1) and best_cost = ref Cost.inf in
          for c = 0 to m - 1 do
            let x = Vec.get vec c in
            if Cost.compare x !best_cost < 0 then begin
              best := c;
              best_cost := x
            end
          done;
          if !best < 0 then None else complete (Core.State.apply st !best)

  let greedy_cost st =
    match complete st with
    | Some final -> Core.State.base_cost final
    | None -> Cost.inf

  let greedy_solution st =
    match complete st with
    | Some final -> Some (Core.State.assignment final, Core.State.base_cost final)
    | None -> None

  let value ~mode st = Core.Game.reward mode (greedy_cost st)
end

let final_cost st =
  if Core.State.is_complete st then Core.State.base_cost st else Cost.inf

(* The MCTS game over persistent states: scalar evaluation (bitwise the
   batched one), no cache. *)
let game ?(rollouts = false) ~net ~mode ~m () =
  let blend st v =
    if rollouts then 0.5 *. (v +. Rollout.value ~mode st) else v
  in
  {
    Mcts.num_actions = m;
    is_terminal = Core.State.is_terminal;
    terminal_value = (fun st -> Core.Game.reward mode (final_cost st));
    legal = Core.State.legal;
    apply = Core.State.apply;
    evaluate =
      (fun st ->
        match Core.State.next_vertex st with
        | Some next ->
            let priors, v = Nn.Pvnet.predict net (Core.State.graph st) ~next in
            (priors, blend st v)
        | None -> (Array.make m 0.0, Core.Game.reward mode (final_cost st)));
    batched_evaluate = None;
  }

module Backtrack = struct
  type level = { mutable untried : int list; mutable tried : int list }

  let rank_actions st (p : float array) ~excluding =
    let legal_actions =
      List.filter
        (fun a -> Core.State.legal st a && not (List.mem a excluding))
        (List.init (Array.length p) Fun.id)
    in
    List.stable_sort (fun a b -> Float.compare p.(b) p.(a)) legal_actions

  let solve ~net ~mode (config : Core.Backtrack.config) state :
      Core.Backtrack.result =
    let game =
      game ~rollouts:config.rollouts ~net ~mode ~m:(Core.State.m state) ()
    in
    let tree = Mcts.create config.mcts game state in
    let levels : (int, level) Hashtbl.t = Hashtbl.create 32 in
    let backtracks = ref 0 in
    let budget_exhausted = ref false in
    let result ?solution cost =
      { Core.Backtrack.solution; cost; nodes = Mcts.nodes_created tree;
        backtracks = !backtracks; budget_exhausted = !budget_exhausted }
    in
    let rec step () =
      let st = Mcts.root_state tree in
      if Core.State.is_complete st then
        if Cost.is_finite (Core.State.base_cost st) then
          result ~solution:(Core.State.assignment st) (Core.State.base_cost st)
        else backtrack ()
      else if Core.State.is_dead_end st then backtrack ()
      else begin
        let depth = Mcts.depth tree in
        let l =
          match Hashtbl.find_opt levels depth with
          | Some l -> l
          | None ->
              Mcts.run tree;
              let l =
                { untried = rank_actions st (Mcts.policy tree) ~excluding:[];
                  tried = [] }
              in
              Hashtbl.replace levels depth l;
              l
        in
        match l.untried with
        | [] -> backtrack ()
        | a :: rest ->
            l.untried <- rest;
            l.tried <- a :: l.tried;
            Mcts.advance tree a;
            step ()
      end
    and backtrack () =
      if Mcts.depth tree = 0 || not config.enabled then result Cost.inf
      else if !backtracks >= config.max_backtracks then begin
        budget_exhausted := true;
        result Cost.inf
      end
      else begin
        incr backtracks;
        Hashtbl.remove levels (Mcts.depth tree);
        Mcts.retreat tree;
        (match Hashtbl.find_opt levels (Mcts.depth tree) with
        | Some l when config.replan && l.untried <> [] ->
            Mcts.run tree;
            l.untried <-
              rank_actions (Mcts.root_state tree) (Mcts.policy tree)
                ~excluding:l.tried
        | _ -> ());
        step ()
      end
    in
    if Core.State.is_dead_end state then result Cost.inf else step ()
end

module Episode = struct
  let sample_index rng (p : float array) =
    let total = Array.fold_left ( +. ) 0.0 p in
    let x = Random.State.float rng total in
    let acc = ref 0.0 and chosen = ref (-1) in
    Array.iteri
      (fun i pi ->
        if !chosen < 0 then begin
          acc := !acc +. pi;
          if x < !acc then chosen := i
        end)
      p;
    if !chosen < 0 then Array.iteri (fun i pi -> if pi > 0.0 then chosen := i) p;
    !chosen

  let argmax (p : float array) =
    let best = ref 0 in
    Array.iteri (fun i pi -> if pi > p.(!best) then best := i) p;
    !best

  let play ?(collect = false) ~rng ~net ~mode (config : Core.Episode.config)
      state =
    let game = game ~net ~mode ~m:(Core.State.m state) () in
    let tree = Mcts.create config.mcts game state in
    let samples = ref [] in
    let move = ref 0 in
    let rec loop () =
      let st = Mcts.root_state tree in
      if not (Core.State.is_terminal st) then begin
        (match config.root_noise with
        | Some (epsilon, alpha) -> Mcts.add_root_noise ~rng ~epsilon ~alpha tree
        | None -> ());
        Mcts.run tree;
        let p = Mcts.policy tree in
        (if collect then
           match Core.State.next_vertex st with
           | Some next ->
               samples :=
                 { Nn.Pvnet.instance = Pbqp.Graph.freeze (Core.State.graph st);
                   next; policy = Array.copy p; value = 0.0 }
                 :: !samples
           | None -> ());
        let a =
          if !move < config.temperature_moves then sample_index rng p
          else argmax p
        in
        incr move;
        Mcts.advance tree a;
        loop ()
      end
    in
    loop ();
    let final = Mcts.root_state tree in
    let cost = final_cost final in
    let solution =
      if Core.State.is_complete final && Cost.is_finite cost then
        Some (Core.State.assignment final)
      else None
    in
    ( { Core.Episode.solution; cost; nodes = Mcts.nodes_created tree },
      List.rev !samples )
end

module Solver = struct
  let stats (r : Core.Backtrack.result) =
    ( r.solution,
      { Core.Solver.nodes = r.nodes; backtracks = r.backtracks } )

  let with_exact_reduction g solve =
    let residual, reduction = Solvers.Scholz.reduce_exact g in
    match solve residual with
    | None, stats -> (None, stats)
    | Some sol, stats ->
        let sol = Solution.copy sol in
        Solvers.Scholz.complete reduction sol;
        (Some sol, stats)

  let state ~order g =
    Core.State.of_graph ~order:(Core.Order.compute order g) g

  let solve_feasible ~net ?(mcts = Mcts.default_config)
      ?(order = Core.Order.Decreasing_liberty) ?(max_backtracks = 100_000)
      ?(exact_reduce = false) ?(rollouts = false) g =
    let solve_on g =
      stats
        (Backtrack.solve ~net ~mode:Core.Game.Feasibility
           { Core.Backtrack.default_config with mcts; max_backtracks; rollouts }
           (state ~order g))
    in
    if exact_reduce then
      match with_exact_reduction g solve_on with
      | Some s, stats when Cost.is_finite (Solution.cost g s) -> (Some s, stats)
      | _, stats -> (None, stats)
    else solve_on g

  let minimize ~net ?(mcts = Mcts.default_config) ?(order = Core.Order.By_id)
      ?reference ?(shaping = 5.0) ?(exact_reduce = false) ?(rollouts = false) g
      =
    let reference =
      match reference with
      | Some r -> r
      | None ->
          let _, c, _ = Solvers.Scholz.solve_with_cost g in
          c
    in
    let mode = Core.Game.Minimize { reference; shaping } in
    let solve_on g =
      stats
        (Backtrack.solve ~net ~mode
           { Core.Backtrack.default_config with mcts; enabled = false; rollouts }
           (state ~order g))
    in
    match if exact_reduce then with_exact_reduction g solve_on else solve_on g with
    | Some s, stats -> (Some (s, Solution.cost g s), stats)
    | None, stats -> (None, stats)
end

(* Cir.Alloc_pbqp.solve_rl with the persistent incumbent and search. *)
let solve_rl ~net ?(mcts = Mcts.default_config) live =
  let t = Cir.Alloc_pbqp.build live in
  let scholz_sol, scholz_cost, _ = Solvers.Scholz.solve_with_cost t.graph in
  let shaping =
    if Cost.is_finite scholz_cost then
      Float.max 5.0 (0.05 *. Float.abs (Cost.to_float scholz_cost))
    else 5.0
  in
  let incumbent = Rollout.greedy_solution (Core.State.of_graph t.graph) in
  let rl =
    match
      Solver.minimize ~net ~mcts ~reference:scholz_cost ~exact_reduce:true
        ~rollouts:true ~shaping t.graph
    with
    | Some (sol, cost), _ when Cost.is_finite cost -> Some (sol, cost)
    | _ -> None
  in
  let chosen =
    match (rl, incumbent) with
    | Some (s, c), Some (_, ic) when Cost.compare c ic <= 0 -> Some (s, c)
    | _, Some (s, ic) when Cost.is_finite ic -> Some (s, ic)
    | Some (s, c), _ -> Some (s, c)
    | None, _ -> None
  in
  let func = live.Cir.Liveness.func in
  match chosen with
  | Some (s, c) -> (Cir.Alloc_pbqp.allocation_of_solution t func s, c)
  | None -> (Cir.Alloc_pbqp.allocation_of_solution t func scholz_sol, scholz_cost)
