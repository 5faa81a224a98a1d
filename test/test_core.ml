(* Tests for the Deep-RL PBQP solver core: reduced-graph states, coloring
   orders, rewards, episodes, backtracking, the replay buffer, the solver
   facade, and a miniature end-to-end training run. *)

open Pbqp
open Testutil

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

(* ------------------------------------------------------------------ *)
(* State *)

let test_state_initial () =
  let g = Generate.fig2 () in
  let st = Core.State.of_graph g in
  Alcotest.(check int) "m" 2 (Core.State.m st);
  Alcotest.(check (option int)) "next vertex" (Some 0) (Core.State.next_vertex st);
  Alcotest.(check bool) "not complete" false (Core.State.is_complete st);
  Alcotest.(check bool) "not dead end" false (Core.State.is_dead_end st);
  Alcotest.(check int) "remaining" 3 (Core.State.remaining st);
  Alcotest.check cost "base cost 0" 0.0 (Core.State.base_cost st)

let test_state_fig3_transition () =
  (* Figure 3 of the paper: coloring vertex 1 (our vertex 0) with color 2
     (our color 1) must fold the selected matrix rows into the neighbors. *)
  let g = Generate.fig2 () in
  let st = Core.State.of_graph g in
  let st1 = Core.State.apply st 1 in
  let g1 = Core.State.graph st1 in
  Alcotest.(check bool) "vertex 0 detached" false (Graph.is_alive g1 0);
  (* vertex 1's vector gains row 1 of M01 = (x, 8) with x = 10 *)
  Alcotest.check vec "neighbor 1 updated"
    (Vec.of_array [| 5.0 +. 10.0; 0.0 +. 8.0 |])
    (Graph.cost g1 1);
  (* vertex 2's vector gains row 1 of M02 = (5, x) *)
  Alcotest.check vec "neighbor 2 updated"
    (Vec.of_array [| 0.0 +. 5.0; 7.0 +. 10.0 |])
    (Graph.cost g1 2);
  Alcotest.check cost "base cost = selected vertex cost" 2.0
    (Core.State.base_cost st1)

let test_state_full_play_cost_equivalence () =
  (* playing (0,0,0) on fig2 accumulates exactly the Equation-1 cost 11 *)
  let g = Generate.fig2 () in
  let st = Core.State.of_graph g in
  let final = List.fold_left Core.State.apply st [ 0; 0; 0 ] in
  Alcotest.(check bool) "complete" true (Core.State.is_complete final);
  Alcotest.check cost "accumulated = Equation 1" 11.0
    (Core.State.base_cost final);
  Alcotest.check cost "matches Solution.cost" 11.0
    (Solution.cost g (Core.State.assignment final))

let test_state_persistence () =
  let g = Generate.fig2 () in
  let st = Core.State.of_graph g in
  let _st1 = Core.State.apply st 0 in
  (* the original state is untouched *)
  Alcotest.(check (option int)) "still at vertex 0" (Some 0)
    (Core.State.next_vertex st);
  Alcotest.(check int) "graph still full" 3 (Graph.n_alive (Core.State.graph st))

let test_state_illegal () =
  let g = Graph.create ~m:2 ~n:1 in
  Graph.set_cost g 0 (Vec.of_array [| 1.0; Cost.inf |]);
  let st = Core.State.of_graph g in
  Alcotest.(check bool) "color 0 legal" true (Core.State.legal st 0);
  Alcotest.(check bool) "color 1 illegal" false (Core.State.legal st 1);
  Alcotest.check_raises "apply illegal"
    (Invalid_argument "State.apply: illegal color") (fun () ->
      ignore (Core.State.apply st 1))

let test_state_dead_end () =
  (* coloring vertex 0 with color 0 forces both colors of vertex 1 to inf *)
  let g = Graph.create ~m:2 ~n:2 in
  Graph.set_cost g 0 (Vec.of_array [| 0.0; 0.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; 0.0 |]);
  Graph.add_edge g 0 1
    (Mat.of_arrays [| [| Cost.inf; Cost.inf |]; [| 0.0; 0.0 |] |]);
  let st = Core.State.of_graph g in
  let st' = Core.State.apply st 0 in
  Alcotest.(check bool) "dead end" true (Core.State.is_dead_end st');
  Alcotest.(check bool) "terminal" true (Core.State.is_terminal st');
  Alcotest.(check bool) "not complete" false (Core.State.is_complete st');
  let ok = Core.State.apply st 1 in
  Alcotest.(check bool) "other color fine" false (Core.State.is_dead_end ok)

let test_state_custom_order () =
  let g = Generate.fig2 () in
  let st = Core.State.of_graph ~order:[| 2; 0; 1 |] g in
  Alcotest.(check (option int)) "starts at 2" (Some 2) (Core.State.next_vertex st);
  Alcotest.check_raises "bad order"
    (Invalid_argument "State.of_graph: order is not a permutation of the vertices")
    (fun () -> ignore (Core.State.of_graph ~order:[| 0; 0; 1 |] g))

let prop_state_cost_equivalence =
  qtest ~count:80 "random playout cost equals Equation 1 (Fig. 3 equivalence)"
    (arb_graph_spec ~nmax:8 ~mmax:3 ~p_inf:0.2 ()) (fun spec ->
      let g = build_graph spec in
      let r = rng (spec.seed + 7) in
      let rec play st =
        if Core.State.is_complete st then Some st
        else if Core.State.is_dead_end st then None
        else
          let colors =
            List.filter (Core.State.legal st)
              (List.init spec.m Fun.id)
          in
          match colors with
          | [] -> None
          | cs ->
              let c = List.nth cs (Random.State.int r (List.length cs)) in
              play (Core.State.apply st c)
      in
      match play (Core.State.of_graph g) with
      | None -> true (* dead end: nothing to compare *)
      | Some final ->
          Cost.approx_equal ~eps:1e-6
            (Core.State.base_cost final)
            (Solution.cost g (Core.State.assignment final)))

(* ------------------------------------------------------------------ *)
(* Order *)

let liberty_graph () =
  (* liberties: v0=1, v1=3, v2=2 *)
  let g = Graph.create ~m:3 ~n:3 in
  Graph.set_cost g 0 (Vec.of_array [| 0.0; Cost.inf; Cost.inf |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; 0.0; 0.0 |]);
  Graph.set_cost g 2 (Vec.of_array [| 0.0; 0.0; Cost.inf |]);
  g

let test_order_kinds () =
  let g = liberty_graph () in
  Alcotest.(check (array int)) "by id" [| 0; 1; 2 |]
    (Core.Order.compute Core.Order.By_id g);
  Alcotest.(check (array int)) "increasing liberty" [| 0; 2; 1 |]
    (Core.Order.compute Core.Order.Increasing_liberty g);
  Alcotest.(check (array int)) "decreasing liberty" [| 1; 2; 0 |]
    (Core.Order.compute Core.Order.Decreasing_liberty g);
  let shuffled = Core.Order.compute ~rng:(rng 4) Core.Order.Random g in
  Alcotest.(check (list int)) "random is a permutation" [ 0; 1; 2 ]
    (List.sort Int.compare (Array.to_list shuffled));
  Alcotest.check_raises "random needs rng"
    (Invalid_argument "Order.compute: Random order needs an rng") (fun () ->
      ignore (Core.Order.compute Core.Order.Random g))

(* ------------------------------------------------------------------ *)
(* Game rewards *)

let test_rewards_feasibility () =
  Alcotest.(check (float 1e-9)) "finite wins" 1.0
    (Core.Game.reward Core.Game.Feasibility 0.0);
  Alcotest.(check (float 1e-9)) "inf loses" (-1.0)
    (Core.Game.reward Core.Game.Feasibility Cost.inf)

let test_rewards_minimize () =
  let mode = Core.Game.Minimize { reference = 10.0; shaping = 0.0 } in
  Alcotest.(check (float 1e-9)) "smaller wins" 1.0 (Core.Game.reward mode 5.0);
  Alcotest.(check (float 1e-9)) "equal ties" 0.0 (Core.Game.reward mode 10.0);
  Alcotest.(check (float 1e-9)) "bigger loses" (-1.0) (Core.Game.reward mode 12.0);
  Alcotest.(check (float 1e-9)) "inf always loses" (-1.0)
    (Core.Game.reward mode Cost.inf);
  let shaped = Core.Game.Minimize { reference = 10.0; shaping = 5.0 } in
  let r = Core.Game.reward shaped 5.0 in
  Alcotest.(check bool) "shaped in (0,1)" true (r > 0.0 && r < 1.0);
  Alcotest.(check (float 1e-9)) "shaped tie is 0" 0.0
    (Core.Game.reward shaped 10.0);
  Alcotest.(check (float 1e-9)) "finite beats inf reference" 1.0
    (Core.Game.reward (Core.Game.Minimize { reference = Cost.inf; shaping = 0.0 }) 3.0)

(* ------------------------------------------------------------------ *)
(* Episode *)

let test_episode_completes_fig2 () =
  let g = Generate.fig2 () in
  let net = tiny_net ~m:2 () in
  let outcome, samples =
    Core.Episode.play ~collect:true ~rng:(rng 1) ~net
      ~mode:(Core.Game.Minimize { reference = 24.0; shaping = 5.0 })
      { Core.Episode.mcts = { Mcts.default_config with k = 30 };
        temperature_moves = 0; root_noise = None }
      (Core.Istate.of_graph g)
  in
  (match outcome.Core.Episode.solution with
  | Some sol ->
      Alcotest.check cost "episode cost consistent"
        outcome.Core.Episode.cost (Solution.cost g sol)
  | None -> Alcotest.fail "fig2 has no dead ends");
  Alcotest.(check int) "one sample per move" 3 (List.length samples);
  List.iter
    (fun s ->
      Alcotest.(check (float 1e-9)) "placeholder value" 0.0 s.Nn.Pvnet.value;
      Alcotest.(check (float 1e-6)) "policy normalized" 1.0
        (Array.fold_left ( +. ) 0.0 s.Nn.Pvnet.policy))
    samples;
  let stamped = Core.Episode.set_values 1.0 samples in
  List.iter
    (fun s -> Alcotest.(check (float 1e-9)) "stamped" 1.0 s.Nn.Pvnet.value)
    stamped

let test_episode_with_enough_search_is_optimal () =
  (* fig2 has 8 leaves; with a large k MCTS enumerates them all and argmax
     play must find the optimum 11 *)
  let g = Generate.fig2 () in
  let net = tiny_net ~m:2 ~seed:5 () in
  let outcome, _ =
    Core.Episode.play ~rng:(rng 1) ~net
      ~mode:(Core.Game.Minimize { reference = 24.0; shaping = 5.0 })
      { Core.Episode.mcts = { Mcts.default_config with k = 200 };
        temperature_moves = 0; root_noise = None }
      (Core.Istate.of_graph g)
  in
  Alcotest.check cost "optimal" 11.0 outcome.Core.Episode.cost

(* ------------------------------------------------------------------ *)
(* Backtrack *)

let planted_ate ~seed ~n ~m =
  fst
    (Generate.planted ~rng:(rng seed)
       {
         Generate.default with
         n;
         m;
         p_edge = 0.3;
         p_inf = 0.55;
         zero_inf = true;
       })

let test_backtrack_solves_planted () =
  let m = 4 in
  let net = tiny_net ~m () in
  let solved = ref 0 in
  for seed = 0 to 4 do
    let g = planted_ate ~seed ~n:16 ~m in
    let order = Core.Order.compute Core.Order.Decreasing_liberty g in
    let result =
      Core.Backtrack.solve ~net ~mode:Core.Game.Feasibility
        { Core.Backtrack.default_config with
          mcts = { Mcts.default_config with k = 16 } }
        (Core.Istate.of_graph ~order g)
    in
    match result.Core.Backtrack.solution with
    | Some sol ->
        incr solved;
        Alcotest.(check bool) "valid" true (Solution.valid g sol)
    | None -> ()
  done;
  Alcotest.(check int) "all planted instances solved" 5 !solved

let test_backtrack_disabled_fails_on_dead_end () =
  (* a forced dead end: vertex 0 colored greedily kills vertex 1 unless
     backtracking retries *)
  let g = Graph.create ~m:2 ~n:2 in
  Graph.set_cost g 0 (Vec.of_array [| 0.0; 0.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; Cost.inf |]);
  Graph.add_edge g 0 1
    (Mat.of_arrays [| [| Cost.inf; 0.0 |]; [| 0.0; 0.0 |] |]);
  (* color 0 for vertex 0 makes vertex 1 all-inf; color 1 is fine *)
  let net = tiny_net ~m:2 () in
  let run ~enabled =
    Core.Backtrack.solve ~net ~mode:Core.Game.Feasibility
      { Core.Backtrack.default_config with
        enabled;
        mcts = { Mcts.default_config with k = 4 } }
      (Core.Istate.of_graph g)
  in
  let with_bt = run ~enabled:true in
  Alcotest.(check bool) "backtracking solves it" true
    (with_bt.Core.Backtrack.solution <> None);
  (* without backtracking the result depends on which color the tiny net
     tries first; it must at least never return an invalid solution *)
  let without = run ~enabled:false in
  match without.Core.Backtrack.solution with
  | Some sol -> Alcotest.(check bool) "valid if returned" true (Solution.valid g sol)
  | None -> ()

let test_backtrack_infeasible_terminates () =
  let g = Graph.create ~m:2 ~n:3 in
  Graph.add_edge g 0 1 (Mat.interference 2);
  Graph.add_edge g 1 2 (Mat.interference 2);
  Graph.add_edge g 0 2 (Mat.interference 2);
  let net = tiny_net ~m:2 () in
  let result =
    Core.Backtrack.solve ~net ~mode:Core.Game.Feasibility
      { Core.Backtrack.default_config with
        mcts = { Mcts.default_config with k = 8 } }
      (Core.Istate.of_graph g)
  in
  Alcotest.(check bool) "no solution" true (result.Core.Backtrack.solution = None);
  Alcotest.(check bool) "exhausted search, not budget" false
    result.Core.Backtrack.budget_exhausted

let test_backtrack_budget () =
  let g = planted_ate ~seed:9 ~n:20 ~m:3 in
  let net = tiny_net ~m:3 () in
  let result =
    Core.Backtrack.solve ~net ~mode:Core.Game.Feasibility
      { Core.Backtrack.default_config with
        max_backtracks = 0;
        mcts = { Mcts.default_config with k = 4 } }
      (Core.Istate.of_graph g)
  in
  (* with zero backtracks allowed either it one-shots the instance or it
     reports budget exhaustion *)
  if result.Core.Backtrack.solution = None then
    Alcotest.(check bool) "budget reported" true
      (result.Core.Backtrack.budget_exhausted
      || result.Core.Backtrack.backtracks = 0)

let test_backtrack_dead_on_arrival () =
  let g = Graph.create ~m:2 ~n:1 in
  Graph.set_cost g 0 (Vec.make 2 Cost.inf);
  let net = tiny_net ~m:2 () in
  let result =
    Core.Backtrack.solve ~net ~mode:Core.Game.Feasibility
      Core.Backtrack.default_config (Core.Istate.of_graph g)
  in
  Alcotest.(check bool) "fails immediately" true
    (result.Core.Backtrack.solution = None)

(* ------------------------------------------------------------------ *)
(* Rollout *)

let test_rollout_greedy () =
  let g = Generate.fig2 () in
  let ist = Core.Istate.of_graph g in
  let c = Core.Rollout.greedy_cost ist in
  Alcotest.(check bool) "finite completion" true (Cost.is_finite c);
  Alcotest.(check int) "trail restored" 0 (Core.Istate.depth ist);
  (match Core.Rollout.greedy_solution ist with
  | Some (sol, c') ->
      Alcotest.check cost_exact "same cost as greedy_cost" c c';
      Alcotest.check cost "solution cost matches" c' (Solution.cost g sol)
  | None -> Alcotest.fail "fig2 completes greedily");
  (* greedy at least matches the optimum bound from below *)
  Alcotest.(check bool) "greedy >= optimum" true (Cost.compare c 11.0 >= 0)

let test_rollout_dead_end () =
  let g = Graph.create ~m:2 ~n:2 in
  Graph.set_cost g 0 (Vec.of_array [| 0.0; Cost.inf |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; Cost.inf |]);
  Graph.add_edge g 0 1 (Mat.interference 2);
  let ist = Core.Istate.of_graph g in
  Alcotest.check cost_exact "dead end is inf" Cost.inf
    (Core.Rollout.greedy_cost ist);
  Alcotest.(check bool) "no solution" true
    (Core.Rollout.greedy_solution ist = None);
  Alcotest.(check int) "trail restored" 0 (Core.Istate.depth ist)

(* ------------------------------------------------------------------ *)
(* Replay *)

let mk_sample v =
  let g = Graph.create ~m:2 ~n:1 in
  { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 1.0; 0.0 |];
    value = v }

let test_replay_fifo_eviction () =
  let r = Core.Replay.create ~capacity:3 in
  List.iter (fun v -> Core.Replay.add r (mk_sample v)) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "size capped" 3 (Core.Replay.length r);
  let batch = Core.Replay.sample_batch ~rng:(rng 1) r 100 in
  Alcotest.(check int) "batch size" 100 (List.length batch);
  List.iter
    (fun s ->
      Alcotest.(check bool) "oldest evicted" true (s.Nn.Pvnet.value >= 2.0))
    batch

let test_replay_save_load () =
  let r = Core.Replay.create ~capacity:10 in
  (* reduced-graph samples with dead vertices must round-trip *)
  let g = Generate.fig2 () in
  let st = Core.State.apply (Core.State.of_graph g) 0 in
  let reduced = Core.State.graph st in
  Core.Replay.add r
    { Nn.Pvnet.instance = Graph.freeze reduced; next = 1;
      policy = [| 0.75; 0.25 |]; value = -1.0 };
  Core.Replay.add r
    { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 0.5; 0.5 |];
      value = 1.0 };
  let path = Filename.temp_file "replay" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Core.Replay.save r path;
      let r' = Core.Replay.load path in
      Alcotest.(check int) "count" 2 (Core.Replay.length r');
      Alcotest.(check int) "capacity" 10 (Core.Replay.capacity r');
      let batch = Core.Replay.sample_batch ~rng:(rng 1) r' 20 in
      List.iter
        (fun (s : Nn.Pvnet.sample) ->
          Alcotest.(check bool) "value round-tripped" true
            (s.Nn.Pvnet.value = -1.0 || s.Nn.Pvnet.value = 1.0);
          if s.Nn.Pvnet.next = 1 then begin
            let f = s.Nn.Pvnet.instance in
            Alcotest.(check bool) "vertex 0 still dead" false
              (Array.mem 0 f.Graph.f_verts);
            Alcotest.(check string) "reduced instance preserved"
              (Io.to_string reduced) (Io.frozen_to_string f)
          end)
        batch)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_replay_full_buffer_roundtrip () =
  (* a buffer that has wrapped (evicted its oldest entries) must
     round-trip exactly: same length, same capacity, same tuples in the
     same order — locked down by comparing a save→load→save double dump
     byte for byte *)
  let r = Core.Replay.create ~capacity:4 in
  List.iter (fun v -> Core.Replay.add r (mk_sample v)) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  let p1 = Filename.temp_file "replay-full" ".txt" in
  let p2 = Filename.temp_file "replay-full" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p1;
      Sys.remove p2)
    (fun () ->
      Core.Replay.save r p1;
      let r' = Core.Replay.load p1 in
      Alcotest.(check int) "length" 4 (Core.Replay.length r');
      Alcotest.(check int) "capacity" 4 (Core.Replay.capacity r');
      List.iter
        (fun (s : Nn.Pvnet.sample) ->
          Alcotest.(check bool) "evicted samples stay gone" true
            (s.Nn.Pvnet.value >= 3.0))
        (Core.Replay.sample_batch ~rng:(rng 1) r' 50);
      Core.Replay.save r' p2;
      Alcotest.(check string) "double dump identical" (read_file p1)
        (read_file p2))

let test_replay_empty () =
  let r = Core.Replay.create ~capacity:3 in
  Alcotest.(check int) "empty batch" 0
    (List.length (Core.Replay.sample_batch ~rng:(rng 1) r 10));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Replay.create: capacity <= 0") (fun () ->
      ignore (Core.Replay.create ~capacity:0))

(* Counter gate on the replay footprint: the heap words reachable from
   the samples of fixed-seed argmax episodes on graphs of the
   selfplay_train distribution (m = 13, n ~ N(20, 5), p_edge 0.2,
   k = 25), per sample.  A sample holds a frozen instance — live costs
   in one block, each edge once — and the matrices it shares with the
   trail graph count once per episode.  A [Graph.copy_shared] snapshot
   per sample instead (n hashtables and cost vectors, both matrix
   orientations) reads 1444.667 words here.  Replaying each episode's
   moves also checks that every sample prints as the trail graph it was
   frozen from, and that the codec round-trips it. *)
let replay_words_per_sample = 493.25

let test_replay_footprint () =
  let m = 13 in
  let net = Nn.Pvnet.create ~rng:(rng 41) (Nn.Pvnet.default_config ~m) in
  let grng = rng 42 in
  let config =
    { Core.Episode.mcts = { Mcts.default_config with k = 25 };
      temperature_moves = 0; root_noise = None }
  in
  let argmax p =
    let best = ref 0 in
    Array.iteri (fun i x -> if x > p.(!best) then best := i) p;
    !best
  in
  let samples =
    List.concat_map
      (fun i ->
        let n = Generate.sample_n ~rng:grng ~mean:20.0 ~stddev:5.0 ~min:4 in
        let g =
          Generate.erdos_renyi ~rng:grng
            { Generate.default with n; m; p_edge = 0.2; p_inf = 0.01;
              zero_inf = false; cost_max = 30.0 }
        in
        let _, reference, _ = Solvers.Scholz.solve_with_cost g in
        let mode = Core.Game.Minimize { reference; shaping = 5.0 } in
        let _, samples =
          Core.Episode.play ~collect:true ~rng:(rng (43 + i)) ~net ~mode config
            (Core.Istate.of_graph g)
        in
        let ist = Core.Istate.of_graph g in
        ignore
          (List.fold_left
             (fun cur (s : Nn.Pvnet.sample) ->
               if
                 Io.frozen_to_string s.Nn.Pvnet.instance
                 <> Io.to_string (Core.Istate.Cursor.graph cur)
               then Alcotest.failf "episode %d: a sample's text differs" i;
               Core.Istate.Cursor.apply cur (argmax s.Nn.Pvnet.policy))
             (Core.Istate.Cursor.root ist) samples
            : Core.Istate.Cursor.t);
        samples)
      [ 0; 1; 2; 3 ]
  in
  let text = String.concat "" (List.map Core.Replay.sample_to_string samples) in
  Alcotest.(check string) "codec round trip" text
    (String.concat ""
       (List.map Core.Replay.sample_to_string
          (Core.Replay.samples_of_string text)));
  let words =
    float_of_int (Obj.reachable_words (Obj.repr samples))
    /. float_of_int (List.length samples)
  in
  if words <> replay_words_per_sample then
    Alcotest.failf "%.3f words per sample over %d samples, expected %.3f" words
      (List.length samples) replay_words_per_sample

(* ------------------------------------------------------------------ *)
(* Solver facade + training smoke test *)

let test_solver_feasible_planted () =
  let m = 4 in
  let net = tiny_net ~m () in
  let g = planted_ate ~seed:3 ~n:18 ~m in
  let sol, stats =
    Core.Solver.solve_feasible ~net
      ~mcts:{ Mcts.default_config with k = 16 } g
  in
  (match sol with
  | Some s -> Alcotest.(check bool) "valid" true (Solution.valid g s)
  | None -> Alcotest.fail "planted instance should be solved");
  Alcotest.(check bool) "nodes counted" true (stats.Core.Solver.nodes > 0)

let test_solver_minimize_fig2 () =
  let net = tiny_net ~m:2 () in
  let result, _ =
    Core.Solver.minimize ~net ~mcts:{ Mcts.default_config with k = 200 }
      (Generate.fig2 ())
  in
  match result with
  | Some (_, c) -> Alcotest.check cost "optimal" 11.0 c
  | None -> Alcotest.fail "fig2 should minimize"

let test_solver_exact_reduce_hybrid () =
  (* the hybrid must reach the same answers while creating fewer (or at
     worst equal) game-tree nodes, since it only searches the hard core *)
  let m = 4 in
  let net = tiny_net ~m () in
  let solved_both = ref 0 in
  for seed = 0 to 3 do
    let g = planted_ate ~seed:(40 + seed) ~n:18 ~m in
    let sol_plain, stats_plain =
      Core.Solver.solve_feasible ~net ~mcts:{ Mcts.default_config with k = 16 } g
    in
    let sol_hybrid, stats_hybrid =
      Core.Solver.solve_feasible ~net ~exact_reduce:true
        ~mcts:{ Mcts.default_config with k = 16 } g
    in
    (match sol_hybrid with
    | Some s -> Alcotest.(check bool) "hybrid solution valid" true (Solution.valid g s)
    | None -> ());
    if sol_plain <> None && sol_hybrid <> None then begin
      incr solved_both;
      Alcotest.(check bool) "hybrid never searches more" true
        (stats_hybrid.Core.Solver.nodes <= stats_plain.Core.Solver.nodes)
    end
  done;
  Alcotest.(check bool) "hybrid solved some instances" true (!solved_both >= 2)

let test_solver_exact_reduce_minimize () =
  let net = tiny_net ~m:2 () in
  let result, _ =
    Core.Solver.minimize ~net ~exact_reduce:true
      ~mcts:{ Mcts.default_config with k = 100 }
      (Generate.fig2 ())
  in
  match result with
  | Some (_, c) -> Alcotest.check cost "fig2 optimum through hybrid" 11.0 c
  | None -> Alcotest.fail "hybrid minimize failed"

let test_training_parallel_selfplay () =
  (* correctness of the domain-parallel path (any speedup needs real
     cores; this container has one) *)
  let m = 3 in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations = 1;
      episodes_per_iteration = 4;
      domains = 2;
      mcts = { Mcts.default_config with k = 6 };
      net =
        { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
          gcn_layers = 1 };
      n_mean = 6.0;
      n_stddev = 1.0;
      n_min = 3;
      arena_games = 2;
      batches_per_iteration = 1;
      batch_size = 8;
    }
  in
  let replay_sizes = ref [] in
  let _net =
    Core.Train.run
      ~on_iteration:(fun p -> replay_sizes := p.Core.Train.replay_size :: !replay_sizes)
      ~rng:(rng 5) cfg
  in
  match !replay_sizes with
  | [ size ] -> Alcotest.(check bool) "all episodes contributed" true (size > 0)
  | _ -> Alcotest.fail "expected one iteration"

let test_training_loop_runs () =
  let m = 3 in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations = 2;
      episodes_per_iteration = 3;
      mcts = { Mcts.default_config with k = 8 };
      net =
        { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
          gcn_layers = 1 };
      n_mean = 6.0;
      n_stddev = 1.0;
      n_min = 3;
      batches_per_iteration = 2;
      batch_size = 8;
    }
  in
  let progresses = ref [] in
  let net =
    Core.Train.run ~on_iteration:(fun p -> progresses := p :: !progresses)
      ~rng:(rng 2) cfg
  in
  Alcotest.(check int) "two progress reports" 2 (List.length !progresses);
  List.iter
    (fun p ->
      Alcotest.(check bool) "replay grew" true (p.Core.Train.replay_size > 0))
    !progresses;
  (* the trained net must still drive the solver *)
  let g = planted_ate ~seed:1 ~n:10 ~m in
  let sol, _ =
    Core.Solver.solve_feasible ~net ~mcts:{ Mcts.default_config with k = 8 } g
  in
  Alcotest.(check bool) "solver works with trained net" true (sol <> None)

let test_training_checkpoint_resume () =
  let m = 3 in
  let dir = Filename.temp_file "ckpt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let prefix = Filename.concat dir "train" in
  let cfg iterations =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = 3;
      mcts = { Mcts.default_config with k = 6 };
      net =
        { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
          gcn_layers = 1 };
      n_mean = 6.0;
      n_stddev = 1.0;
      n_min = 3;
      arena_games = 2;
      batches_per_iteration = 1;
      batch_size = 8;
      checkpoint = Some prefix;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let _ = Core.Train.run ~rng:(rng 3) (cfg 1) in
      Alcotest.(check bool) "checkpoint files written" true
        (Sys.file_exists (prefix ^ ".best.ckpt")
        && Sys.file_exists (prefix ^ ".current.ckpt")
        && Sys.file_exists (prefix ^ ".replay.txt"));
      (* resume: the replay buffer must come back non-empty *)
      let sizes = ref [] in
      let _ =
        Core.Train.run
          ~on_iteration:(fun p -> sizes := p.Core.Train.replay_size :: !sizes)
          ~rng:(rng 4) (cfg 1)
      in
      match !sizes with
      | [ size ] ->
          let loaded = Core.Replay.load (prefix ^ ".replay.txt") in
          Alcotest.(check bool) "resumed buffer carries prior data" true
            (size > Core.Replay.length loaded / 2 && size > 0)
      | _ -> Alcotest.fail "expected one iteration")

let test_training_resume_bit_identical () =
  (* An interrupted-and-resumed run must continue exactly where it left
     off: nets, replay buffer AND Adam moments all round-trip through the
     checkpoint at %.17g, so running 1 iteration + resume for 1 more must
     produce bit-for-bit the same weights as 2 uninterrupted iterations.
     Arena games draw from the rng stream after the loop ends (the final
     gate), which would desynchronize the split run from the straight
     run, so they are disabled. *)
  let m = 3 in
  let dir = Filename.temp_file "ckpt-bit" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let prefix = Filename.concat dir "train" in
  let clean () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  in
  let cfg ~iterations ~checkpoint =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = 2;
      mcts = { Mcts.default_config with k = 4 };
      net =
        { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
          gcn_layers = 1 };
      n_mean = 5.0;
      n_stddev = 1.0;
      n_min = 3;
      arena_games = 0;
      batches_per_iteration = 2;
      batch_size = 8;
      checkpoint;
    }
  in
  let identical a b =
    List.for_all2
      (fun (x : Nn.Var.t) (y : Nn.Var.t) ->
        tensor_bits_equal x.Nn.Var.value y.Nn.Var.value)
      (Nn.Pvnet.params a) (Nn.Pvnet.params b)
  in
  Fun.protect
    ~finally:(fun () ->
      clean ();
      Sys.rmdir dir)
    (fun () ->
      (* straight run: two iterations on one rng stream *)
      let straight =
        Core.Train.run ~rng:(rng 31) (cfg ~iterations:2 ~checkpoint:None)
      in
      (* split run: one iteration, checkpoint, resume for one more —
         threading the same rng object across the boundary *)
      let r = rng 31 in
      let _ =
        Core.Train.run ~rng:r (cfg ~iterations:1 ~checkpoint:(Some prefix))
      in
      Alcotest.(check bool) "optimizer checkpoint written" true
        (Sys.file_exists (prefix ^ ".opt.ckpt"));
      let resumed =
        Core.Train.run ~rng:r (cfg ~iterations:1 ~checkpoint:(Some prefix))
      in
      Alcotest.(check bool) "resumed = straight, bit for bit" true
        (identical straight resumed);
      (* negative control: drop the optimizer moments before resuming and
         the continuation must diverge — proof the comparison has teeth
         and the moments actually matter *)
      clean ();
      let r2 = rng 31 in
      let _ =
        Core.Train.run ~rng:r2 (cfg ~iterations:1 ~checkpoint:(Some prefix))
      in
      Sys.remove (prefix ^ ".opt.ckpt");
      let degraded =
        Core.Train.run ~rng:r2 (cfg ~iterations:1 ~checkpoint:(Some prefix))
      in
      Alcotest.(check bool) "dropping moments changes the continuation" false
        (identical straight degraded))

let () =
  Alcotest.run "core"
    [
      ( "state",
        [
          Alcotest.test_case "initial" `Quick test_state_initial;
          Alcotest.test_case "fig3 transition" `Quick test_state_fig3_transition;
          Alcotest.test_case "full play equals Equation 1" `Quick
            test_state_full_play_cost_equivalence;
          Alcotest.test_case "persistence" `Quick test_state_persistence;
          Alcotest.test_case "illegal colors" `Quick test_state_illegal;
          Alcotest.test_case "dead end detection" `Quick test_state_dead_end;
          Alcotest.test_case "custom order" `Quick test_state_custom_order;
          prop_state_cost_equivalence;
        ] );
      ("order", [ Alcotest.test_case "kinds" `Quick test_order_kinds ]);
      ( "game",
        [
          Alcotest.test_case "feasibility rewards" `Quick test_rewards_feasibility;
          Alcotest.test_case "minimize rewards" `Quick test_rewards_minimize;
        ] );
      ( "episode",
        [
          Alcotest.test_case "completes fig2" `Quick test_episode_completes_fig2;
          Alcotest.test_case "enough search finds optimum" `Quick
            test_episode_with_enough_search_is_optimal;
        ] );
      ( "backtrack",
        [
          Alcotest.test_case "solves planted instances" `Quick
            test_backtrack_solves_planted;
          Alcotest.test_case "disabled vs enabled on dead ends" `Quick
            test_backtrack_disabled_fails_on_dead_end;
          Alcotest.test_case "infeasible terminates" `Quick
            test_backtrack_infeasible_terminates;
          Alcotest.test_case "budget" `Quick test_backtrack_budget;
          Alcotest.test_case "dead on arrival" `Quick
            test_backtrack_dead_on_arrival;
        ] );
      ( "rollout",
        [
          Alcotest.test_case "greedy completion" `Quick test_rollout_greedy;
          Alcotest.test_case "dead end" `Quick test_rollout_dead_end;
        ] );
      ( "replay",
        [
          Alcotest.test_case "fifo eviction" `Quick test_replay_fifo_eviction;
          Alcotest.test_case "save/load round trip" `Quick test_replay_save_load;
          Alcotest.test_case "full (wrapped) buffer round trip" `Quick
            test_replay_full_buffer_roundtrip;
          Alcotest.test_case "empty & validation" `Quick test_replay_empty;
          Alcotest.test_case "words per sample (selfplay_train config)"
            `Quick test_replay_footprint;
        ] );
      ( "solver",
        [
          Alcotest.test_case "feasible on planted" `Quick
            test_solver_feasible_planted;
          Alcotest.test_case "minimize fig2" `Quick test_solver_minimize_fig2;
          Alcotest.test_case "hybrid exact-reduce feasible" `Quick
            test_solver_exact_reduce_hybrid;
          Alcotest.test_case "hybrid exact-reduce minimize" `Quick
            test_solver_exact_reduce_minimize;
          Alcotest.test_case "training loop" `Slow test_training_loop_runs;
          Alcotest.test_case "parallel self-play" `Slow
            test_training_parallel_selfplay;
          Alcotest.test_case "checkpoint resume" `Slow
            test_training_checkpoint_resume;
          Alcotest.test_case "resume is bit-identical" `Slow
            test_training_resume_bit_identical;
        ] );
    ]
