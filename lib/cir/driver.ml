type alloc_kind =
  | Fast
  | Basic
  | Greedy
  | Pbqp
  | Pbqp_rl of Nn.Pvnet.t * Mcts.config

let alloc_kind_name = function
  | Fast -> "FAST"
  | Basic -> "BASIC"
  | Greedy -> "GREEDY"
  | Pbqp -> "PBQP"
  | Pbqp_rl _ -> "PBQP-RL"

type result = {
  outcome : Msim.outcome;
  spills : int;
  pbqp_cost : Pbqp.Cost.t option;
}

let allocate kind (live : Liveness.t) =
  match kind with
  | Fast -> (Regalloc.fast live.Liveness.func, None)
  | Basic -> (Regalloc.basic live, None)
  | Greedy -> (Regalloc.greedy live, None)
  | Pbqp ->
      let alloc, cost = Alloc_pbqp.solve_scholz live in
      (alloc, Some cost)
  | Pbqp_rl (net, mcts) ->
      let alloc, cost = Alloc_pbqp.solve_rl ~net ~mcts live in
      (alloc, Some cost)

let run kind (p : Ir.program) =
  let spills = ref 0 in
  let total_cost = ref Pbqp.Cost.zero in
  let has_cost = ref false in
  let allocations =
    List.map
      (fun (f : Ir.func) ->
        let live = Liveness.analyze f in
        let alloc, cost = allocate kind live in
        (match Regalloc.validate live alloc with
        | Ok () -> ()
        | Error e ->
            failwith
              (Printf.sprintf "%s allocation of %s invalid: %s"
                 (alloc_kind_name kind) f.Ir.name e));
        spills := !spills + Regalloc.spill_count alloc;
        (match cost with
        | Some c ->
            has_cost := true;
            total_cost := Pbqp.Cost.add !total_cost c
        | None -> ());
        (f.Ir.name, alloc))
      p.Ir.funcs
  in
  let mp = Rewrite.rewrite p (fun name -> List.assoc name allocations) in
  let outcome = Msim.run mp in
  {
    outcome;
    spills = !spills;
    pbqp_cost = (if !has_cost then Some !total_cost else None);
  }

let reference p = Interp.run p
