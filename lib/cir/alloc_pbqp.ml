open Pbqp

type t = {
  graph : Graph.t;
  vregs : int array;
  vertex_of_vreg : (int, int) Hashtbl.t;
}

let spill_color = Target.num_regs
let num_colors = Target.num_regs + 1

let build (live : Liveness.t) =
  let f = live.Liveness.func in
  let vregs =
    Array.of_list
      (List.filter
         (fun v -> fst live.Liveness.intervals.(v) >= 0)
         (List.init (Ir.nvregs f) Fun.id))
  in
  let vertex_of_vreg = Hashtbl.create (Array.length vregs) in
  Array.iteri (fun i v -> Hashtbl.replace vertex_of_vreg v i) vregs;
  let g = Graph.create ~m:num_colors ~n:(Array.length vregs) in
  Array.iteri
    (fun i v ->
      let ok = Regalloc.allowed live v in
      let weight = Float.max 1.0 live.Liveness.weights.(v) in
      Graph.set_cost g i
        (Vec.init num_colors (fun c ->
             if c = spill_color then weight
             else if not (List.mem c ok) then Cost.inf
             else if List.mem c Target.callee_saved then
               Target.callee_saved_cost
             else Cost.zero)))
    vregs;
  let interference_mat =
    Mat.init ~rows:num_colors ~cols:num_colors (fun i j ->
        if i = j && i <> spill_color then Cost.inf else Cost.zero)
  in
  List.iter
    (fun (u, v) ->
      match (Hashtbl.find_opt vertex_of_vreg u, Hashtbl.find_opt vertex_of_vreg v) with
      | Some iu, Some iv -> Graph.add_edge g iu iv interference_mat
      | _ -> ())
    live.Liveness.interference;
  (* coalescing credit for move-related pairs *)
  List.iter
    (fun (d, s) ->
      match (Hashtbl.find_opt vertex_of_vreg d, Hashtbl.find_opt vertex_of_vreg s) with
      | Some id, Some is when id <> is ->
          let w =
            Target.coalesce_factor
            *. Float.max 1.0
                 (Float.min live.Liveness.weights.(d) live.Liveness.weights.(s))
          in
          let credit =
            Mat.init ~rows:num_colors ~cols:num_colors (fun i j ->
                if i = j && i <> spill_color then -.w else Cost.zero)
          in
          Graph.add_edge g id is credit
      | _ -> ())
    live.Liveness.moves;
  { graph = g; vregs; vertex_of_vreg }

let allocation_of_solution t f sol =
  let alloc = Array.make (Ir.nvregs f) Regalloc.Spill in
  Array.iteri
    (fun i v ->
      let c = Solution.get sol i in
      if c >= 0 && c < spill_color then alloc.(v) <- Regalloc.Reg c)
    t.vregs;
  alloc

let solve_scholz live =
  let t = build live in
  let sol, cost, _ = Solvers.Scholz.solve_with_cost t.graph in
  (allocation_of_solution t live.Liveness.func sol, cost)

let solve_rl ~net ?(mcts = Mcts.default_config) live =
  let t = build live in
  let scholz_sol, scholz_cost, _ = Solvers.Scholz.solve_with_cost t.graph in
  (* Exact R0/R1/R2 reductions first, exactly as the LLVM PBQP framework
     applies them before consulting any heuristic: the RL search only
     decides the residual hard core. *)
  (* Shaping at 5% of the reference keeps leaf rewards from saturating on
     graphs whose costs run into the thousands. *)
  let shaping =
    if Cost.is_finite scholz_cost then
      Float.max 5.0 (0.05 *. Float.abs (Cost.to_float scholz_cost))
    else 5.0
  in
  (* Anytime behavior: the search's own greedy completion of the root is
     an incumbent solution; never return anything worse than it. *)
  let incumbent = Core.Rollout.greedy_solution (Core.Istate.of_graph t.graph) in
  let rl =
    match
      Core.Solver.minimize ~net ~mcts ~reference:scholz_cost
        ~exact_reduce:true ~rollouts:true ~shaping t.graph
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
  match chosen with
  | Some (s, c) -> (allocation_of_solution t live.Liveness.func s, c)
  | None ->
      (allocation_of_solution t live.Liveness.func scholz_sol, scholz_cost)
