(* Tests for the generic MCTS planner on small hand-made games where the
   optimum is known. *)

(* A depth-2 tree game: two actions at the root, two at each child.
   Terminal rewards are fixed; the "network" returns uniform priors and a
   configurable value estimate. *)

type toy = { path : int list }

let toy_game ?(value_est = fun _ -> 0.0) rewards =
  {
    Mcts.num_actions = 2;
    is_terminal = (fun s -> List.length s.path >= 2);
    terminal_value =
      (fun s ->
        match s.path with
        | [ b; a ] -> rewards.(a).(b)
        | _ -> invalid_arg "toy terminal");
    legal = (fun _ _ -> true);
    apply = (fun s a -> { path = a :: s.path });
    evaluate = (fun s -> ([| 0.5; 0.5 |], value_est s));
  }

let test_finds_best_leaf () =
  (* best leaf is (1, 0) with reward 1.0 *)
  let rewards = [| [| -1.0; -0.5 |]; [| 1.0; -1.0 |] |] in
  let game = toy_game rewards in
  let t = Mcts.create { Mcts.default_config with k = 200 } game { path = [] } in
  Mcts.run t;
  let p = Mcts.policy t in
  Alcotest.(check bool) "prefers action 1" true (p.(1) > p.(0));
  Mcts.advance t 1;
  Mcts.run t;
  let p2 = Mcts.policy t in
  Alcotest.(check bool) "then prefers action 0" true (p2.(0) > p2.(1))

let test_policy_normalized () =
  let rewards = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |] in
  let t =
    Mcts.create { Mcts.default_config with k = 50 } (toy_game rewards)
      { path = [] }
  in
  Mcts.run t;
  let p = Mcts.policy t in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (p.(0) +. p.(1))

let test_policy_before_run_uniform () =
  let rewards = [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let t = Mcts.create Mcts.default_config (toy_game rewards) { path = [] } in
  let p = Mcts.policy t in
  Alcotest.(check (float 1e-9)) "uniform over legal" 0.5 p.(0)

let test_legality_respected () =
  let rewards = [| [| -1.0; -1.0 |]; [| 1.0; 1.0 |] |] in
  let game = { (toy_game rewards) with Mcts.legal = (fun s a -> not (s.path = [] && a = 1)) } in
  let t = Mcts.create { Mcts.default_config with k = 100 } game { path = [] } in
  Mcts.run t;
  let counts = Mcts.visit_counts t in
  Alcotest.(check int) "illegal action never visited" 0 counts.(1)

let test_advance_retreat () =
  let rewards = [| [| 0.5; 0.1 |]; [| 0.2; 0.9 |] |] in
  let t =
    Mcts.create { Mcts.default_config with k = 50 } (toy_game rewards)
      { path = [] }
  in
  Mcts.run t;
  Alcotest.(check int) "depth 0" 0 (Mcts.depth t);
  Mcts.advance t 0;
  Alcotest.(check int) "depth 1" 1 (Mcts.depth t);
  Alcotest.(check (list int)) "state advanced" [ 0 ]
    (Mcts.root_state t).path;
  Mcts.retreat t;
  Alcotest.(check int) "depth 0 again" 0 (Mcts.depth t);
  Alcotest.(check (list int)) "state restored" [] (Mcts.root_state t).path;
  Alcotest.check_raises "retreat at initial root"
    (Invalid_argument "Mcts.retreat: at the initial root") (fun () ->
      Mcts.retreat t)

let test_subtree_reuse () =
  let rewards = [| [| 0.5; 0.1 |]; [| 0.2; 0.9 |] |] in
  let t =
    Mcts.create { Mcts.default_config with k = 100 } (toy_game rewards)
      { path = [] }
  in
  Mcts.run t;
  let created_before = Mcts.nodes_created t in
  Mcts.advance t 1;
  (* the subtree under action 1 was fully enumerated (only 2 leaves),
     so further simulations hit terminals and create nothing *)
  Mcts.run t;
  Alcotest.(check int) "no new nodes for an enumerated subtree"
    created_before (Mcts.nodes_created t)

let test_nodes_created_counts () =
  let rewards = [| [| 0.5; 0.1 |]; [| 0.2; 0.9 |] |] in
  let t =
    Mcts.create { Mcts.default_config with k = 3 } (toy_game rewards)
      { path = [] }
  in
  Alcotest.(check int) "root counted" 1 (Mcts.nodes_created t);
  Mcts.run t;
  Alcotest.(check bool) "grew" true (Mcts.nodes_created t > 1);
  (* the whole game tree has 1 + 2 + 4 = 7 states *)
  Mcts.run_n t 100;
  Alcotest.(check bool) "bounded by total states" true
    (Mcts.nodes_created t <= 7)

let test_q_converges_to_terminal_reward () =
  (* one action, one step: Q(root, 0) must converge to the true reward *)
  let game =
    {
      Mcts.num_actions = 1;
      is_terminal = (fun s -> s.path <> []);
      terminal_value = (fun _ -> 0.7);
      legal = (fun _ _ -> true);
      apply = (fun s a -> { path = a :: s.path });
      evaluate = (fun _ -> ([| 1.0 |], 0.0));
      }
  in
  let t = Mcts.create { Mcts.default_config with k = 20 } game { path = [] } in
  Mcts.run t;
  Alcotest.(check (float 1e-6)) "root value = reward" 0.7 (Mcts.root_value t)

let test_value_estimate_guides_search () =
  (* terminal rewards identical, but the value net scores subtree 0 higher;
     with few simulations the search should visit it more *)
  let rewards = [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let game =
    toy_game ~value_est:(fun s -> if s.path = [ 0 ] then 0.9 else -0.9) rewards
  in
  let t = Mcts.create { Mcts.default_config with k = 12 } game { path = [] } in
  Mcts.run t;
  let c = Mcts.visit_counts t in
  Alcotest.(check bool) "value-favored branch visited more" true (c.(0) > c.(1))

let test_root_noise () =
  let rewards = [| [| 0.5; 0.1 |]; [| 0.2; 0.9 |] |] in
  let game = toy_game rewards in
  let t = Mcts.create { Mcts.default_config with k = 1 } game { path = [] } in
  Mcts.run t;
  (* pure noise (epsilon = 1) must still leave a distribution over legal
     actions, and keep the search functional *)
  Mcts.add_root_noise ~rng:(Random.State.make [| 5 |]) ~epsilon:1.0 ~alpha:0.5 t;
  Mcts.run_n t 100;
  let p = Mcts.policy t in
  Alcotest.(check (float 1e-6)) "policy still normalized" 1.0 (p.(0) +. p.(1));
  (* with a legality mask, noise must not leak onto illegal actions *)
  let game1 = { game with Mcts.legal = (fun _ a -> a = 0) } in
  let t1 = Mcts.create { Mcts.default_config with k = 1 } game1 { path = [] } in
  Mcts.run t1;
  Mcts.add_root_noise ~rng:(Random.State.make [| 6 |]) ~epsilon:1.0 ~alpha:0.5 t1;
  Mcts.run_n t1 50;
  Alcotest.(check int) "illegal stays unvisited" 0 (Mcts.visit_counts t1).(1)

let test_illegal_advance_rejected () =
  let rewards = [| [| 0.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let game = { (toy_game rewards) with Mcts.legal = (fun _ a -> a = 0) } in
  let t = Mcts.create Mcts.default_config game { path = [] } in
  Alcotest.check_raises "illegal advance"
    (Invalid_argument "Mcts.advance: illegal action") (fun () ->
      Mcts.advance t 1)

(* ------------------------------------------------------------------ *)
(* The PBQP game *)

let test_pbqp_tree_valid () =
  (* the real game on a planted instance: every invariant [validate]
     checks holds after each search, advance and retreat, walking two
     ways down to depth 3 and back; and a solve's leaves each cost one
     counted forward row *)
  let m = 3 in
  let net =
    Nn.Pvnet.create
      ~rng:(Random.State.make [| 5 |])
      { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
        gcn_layers = 1 }
  in
  let g, _ =
    Pbqp.Generate.planted
      ~rng:(Random.State.make [| 21 |])
      { Pbqp.Generate.default with n = 8; m; p_edge = 0.4; p_inf = 0.3;
        zero_inf = true; cost_max = 10.0 }
  in
  let game =
    Core.Game.make ~serve:(Nn.Infer.create ~workers:1 ()) ~net
      ~mode:Core.Game.Feasibility ~m ()
  in
  let t =
    Mcts.create { Mcts.default_config with k = 30 } game
      (Core.Istate.Cursor.root (Core.Istate.of_graph g))
  in
  let valid msg = Alcotest.(check (list string)) msg [] (Mcts.validate t) in
  let rec walk depth =
    Mcts.run t;
    valid (Printf.sprintf "run at depth %d" depth);
    let st = Mcts.root_state t in
    if depth < 3 && not (game.Mcts.is_terminal st) then
      List.filter (game.Mcts.legal st) (List.init m Fun.id)
      |> List.iteri (fun i a ->
             if i < 2 then begin
               Mcts.advance t a;
               valid (Printf.sprintf "advance %d at depth %d" a depth);
               walk (depth + 1);
               Mcts.retreat t;
               valid (Printf.sprintf "retreat to depth %d" depth)
             end)
  in
  walk 0;
  Alcotest.(check int) "back at the root" 0 (Mcts.depth t);
  Mcts.run_n t 20;
  valid "run_n at the root";
  let serve = Nn.Infer.create ~workers:1 () in
  let e0 = Nn.Pvnet.eval_count net in
  ignore
    (Core.Solver.solve_feasible ~net ~serve
       ~mcts:{ Mcts.default_config with k = 16 } g);
  let s = Nn.Infer.stats serve in
  Alcotest.(check bool) "the solve evaluated leaves" true (s.Nn.Infer.rows > 0);
  Alcotest.(check int) "batches = rows" s.Nn.Infer.rows s.Nn.Infer.batches;
  Alcotest.(check int) "rows = forward rows" (Nn.Pvnet.eval_count net - e0)
    s.Nn.Infer.rows

let () =
  Alcotest.run "mcts"
    [
      ( "search",
        [
          Alcotest.test_case "finds best leaf" `Quick test_finds_best_leaf;
          Alcotest.test_case "policy normalized" `Quick test_policy_normalized;
          Alcotest.test_case "uniform before run" `Quick
            test_policy_before_run_uniform;
          Alcotest.test_case "legality respected" `Quick test_legality_respected;
          Alcotest.test_case "Q converges to reward" `Quick
            test_q_converges_to_terminal_reward;
          Alcotest.test_case "value estimates guide search" `Quick
            test_value_estimate_guides_search;
          Alcotest.test_case "dirichlet root noise" `Quick test_root_noise;
        ] );
      ( "tree",
        [
          Alcotest.test_case "advance/retreat" `Quick test_advance_retreat;
          Alcotest.test_case "subtree reuse" `Quick test_subtree_reuse;
          Alcotest.test_case "node counter" `Quick test_nodes_created_counts;
          Alcotest.test_case "illegal advance rejected" `Quick
            test_illegal_advance_rejected;
          Alcotest.test_case "search tree valid on the PBQP game" `Quick
            test_pbqp_tree_valid;
        ] );
    ]
