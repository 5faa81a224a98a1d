(* Differential tests for the incremental (trail) state and the
   evaluation cache: random apply/undo interleavings and cursor walks
   against the persistent State oracle (structurally bit-equal at every
   depth), trail roll-outs against persistent greedy completions,
   LRU/version semantics of Nn.Cache, episodes and solves against the
   persistent reference drivers (test/oracle) with the cache off and on,
   and whole training runs across {cache off, on} x domains. *)

open Pbqp
open Testutil

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Trail state vs the persistent oracle *)

let check_agree msg st ist =
  if not (Graph.equal (Core.State.graph st) (Core.Istate.graph ist)) then
    Alcotest.failf "%s: graphs differ" msg;
  if not (bits_eq (Core.State.base_cost st) (Core.Istate.base_cost ist)) then
    Alcotest.failf "%s: base costs differ" msg;
  if not (Solution.equal (Core.State.assignment st) (Core.Istate.assignment ist))
  then Alcotest.failf "%s: assignments differ" msg;
  if Core.State.hash st <> Core.Istate.hash ist then
    Alcotest.failf "%s: hashes differ" msg;
  if Core.State.next_vertex st <> Core.Istate.next_vertex ist then
    Alcotest.failf "%s: next vertices differ" msg;
  if Core.State.is_dead_end st <> Core.Istate.is_dead_end ist then
    Alcotest.failf "%s: dead-end flags differ" msg

let random_legal r st =
  let m = Core.State.m st in
  let legal = List.filter (Core.State.legal st) (List.init m Fun.id) in
  match legal with
  | [] -> None
  | l -> Some (List.nth l (Random.State.int r (List.length l)))

(* Random interleaving of applies and undos, checked against a stack of
   persistent states after every operation.  Redos are covered for free:
   an undo followed by a re-apply of the same color replays a memoized
   tree edge whenever the walk has been there before. *)
let test_walk_matches_oracle =
  qtest ~count:150 "apply/undo interleaving = persistent stack (bitwise)"
    (arb_graph_spec ~nmax:10 ~mmax:4 ())
    (fun spec ->
      let g = build_graph spec in
      let st0 = Core.State.of_graph g in
      let ist = Core.Istate.of_state st0 in
      let r = rng (spec.seed + 1) in
      let stack = ref [ st0 ] in
      check_agree "initial" st0 ist;
      for step = 1 to 60 do
        let top = List.hd !stack in
        let depth = List.length !stack - 1 in
        let apply_color =
          if Core.State.is_complete top then None else random_legal r top
        in
        match
          (apply_color, depth > 0 && Random.State.int r 10 < 4, depth > 0)
        with
        | Some c, false, _ ->
            stack := Core.State.apply top c :: !stack;
            Core.Istate.apply ist c;
            check_agree (Printf.sprintf "step %d (apply %d)" step c)
              (List.hd !stack) ist
        | _, true, _ | None, _, true ->
            stack := List.tl !stack;
            Core.Istate.undo ist;
            check_agree (Printf.sprintf "step %d (undo)" step)
              (List.hd !stack) ist
        | None, _, false -> ()
      done;
      true)

(* Cursors queried in random order: every query seeks the shared trail to
   the cursor's position; interleaving positions across the whole tree
   exercises pop-to-LCA/replay far harder than MCTS's orderly walks. *)
let test_cursor_seeks_match_oracle =
  qtest ~count:75 "random-order cursor queries = persistent states"
    (arb_graph_spec ~nmax:9 ~mmax:4 ())
    (fun spec ->
      let g = build_graph spec in
      let st0 = Core.State.of_graph g in
      let ist = Core.Istate.of_state st0 in
      let r = rng (spec.seed + 2) in
      let pairs = ref [| (st0, Core.Istate.Cursor.root ist) |] in
      (* grow a random tree of positions *)
      for _ = 1 to 25 do
        let st, cur = !pairs.(Random.State.int r (Array.length !pairs)) in
        if not (Core.State.is_complete st) then
          match random_legal r st with
          | None -> ()
          | Some c ->
              let child = (Core.State.apply st c, Core.Istate.Cursor.apply cur c) in
              pairs := Array.append !pairs [| child |]
      done;
      (* query the positions in random order, twice *)
      for round = 1 to 2 do
        for _ = 1 to 2 * Array.length !pairs do
          let st, cur = !pairs.(Random.State.int r (Array.length !pairs)) in
          let msg = Printf.sprintf "round %d" round in
          if not (Graph.equal (Core.State.graph st) (Core.Istate.Cursor.graph cur))
          then Alcotest.failf "%s: graphs differ" msg;
          if not (bits_eq (Core.State.base_cost st) (Core.Istate.Cursor.base_cost cur))
          then Alcotest.failf "%s: base costs differ" msg;
          if Core.State.hash st <> Core.Istate.Cursor.hash cur then
            Alcotest.failf "%s: hashes differ" msg;
          if not
               (Solution.equal (Core.State.assignment st)
                  (Core.Istate.Cursor.assignment cur))
          then Alcotest.failf "%s: assignments differ" msg;
          if Core.State.is_terminal st <> Core.Istate.Cursor.is_terminal cur
          then Alcotest.failf "%s: terminal flags differ" msg
        done
      done;
      true)

let test_snapshot_outlives_motion () =
  let g =
    Generate.erdos_renyi ~rng:(rng 3)
      { Generate.default with n = 8; m = 3; p_edge = 0.5; p_inf = 0.0 }
  in
  let st0 = Core.State.of_graph g in
  let ist = Core.Istate.of_state st0 in
  let root = Core.Istate.Cursor.root ist in
  let c1 = Core.Istate.Cursor.apply root 0 in
  let frozen = Graph.freeze (Core.Istate.Cursor.graph c1) in
  let st1 = Core.State.apply st0 0 in
  (* move the trail somewhere else: the frozen instance must not change *)
  let c2 = Core.Istate.Cursor.apply c1 1 in
  ignore (Core.Istate.Cursor.graph c2);
  ignore (Core.Istate.Cursor.graph root);
  Alcotest.(check string) "frozen = persistent state after trail motion"
    (Io.to_string (Core.State.graph st1))
    (Io.frozen_to_string frozen)

let test_istate_validations () =
  let g =
    Generate.erdos_renyi ~rng:(rng 4)
      { Generate.default with n = 4; m = 3; p_edge = 0.5; p_inf = 0.0 }
  in
  let st = Core.State.of_graph g in
  Alcotest.check_raises "of_state rejects colored states"
    (Invalid_argument "Istate.of_state: state already has colored vertices")
    (fun () -> ignore (Core.Istate.of_state (Core.State.apply st 0)));
  let ist = Core.Istate.of_state st in
  Alcotest.check_raises "undo at the root"
    (Invalid_argument "Istate.undo: at the root") (fun () ->
      Core.Istate.undo ist);
  Alcotest.check_raises "illegal color"
    (Invalid_argument "Istate.apply: illegal color") (fun () ->
      Core.Istate.apply ist (-1))

(* ------------------------------------------------------------------ *)
(* Trail roll-outs vs the persistent greedy completion *)

(* From random prefixes — dead ends included, since random play on
   graphs with infinite entries reaches them — the trail roll-out must
   reach the persistent greedy cost and solution bit for bit, and leave
   the trail exactly where it found it. *)
let test_rollout_matches_oracle =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
  @@ QCheck.Test.make ~count:150
       ~name:"trail roll-out = persistent greedy (bitwise, restored)"
       (arb_graph_spec ~nmax:10 ~mmax:4 ~p_inf:0.3 ())
  @@ fun spec ->
  let g = build_graph spec in
  let st0 = Core.State.of_graph g in
  let ist = Core.Istate.of_state st0 in
  let r = rng (spec.seed + 3) in
  let prefix = Random.State.int r (Graph.n_alive g + 1) in
  let rec walk st cur k =
    if k = 0 || Core.State.is_complete st then (st, cur)
    else
      match random_legal r st with
      | None -> (st, cur)
      | Some c ->
          walk (Core.State.apply st c) (Core.Istate.Cursor.apply cur c)
            (k - 1)
  in
  let st, leaf = walk st0 (Core.Istate.Cursor.root ist) prefix in
  let snap = Io.frozen_to_string (Graph.freeze (Core.Istate.Cursor.graph leaf)) in
  let depth = Core.Istate.depth ist and hash = Core.Istate.hash ist in
  let restored what =
    if Core.Istate.depth ist <> depth then
      Alcotest.failf "%s: depth %d, expected %d" what
        (Core.Istate.depth ist) depth;
    if Core.Istate.hash ist <> hash then
      Alcotest.failf "%s: hash moved" what;
    if Io.to_string (Core.Istate.graph ist) <> snap then
      Alcotest.failf "%s: graph not restored" what
  in
  let c = Core.Rollout.greedy_cost ist in
  restored "greedy_cost";
  if not (bits_eq c (Oracle.Rollout.greedy_cost st)) then
    Alcotest.failf "costs differ at depth %d" depth;
  (match
     (Core.Rollout.greedy_solution ist, Oracle.Rollout.greedy_solution st)
   with
  | None, None -> ()
  | Some (a, ca), Some (b, cb) when Solution.equal a b && bits_eq ca cb -> ()
  | _ -> Alcotest.failf "greedy solutions differ at depth %d" depth);
  restored "greedy_solution";
  true

(* ------------------------------------------------------------------ *)
(* Evaluation cache: LRU + version semantics, on the one-stripe
   Nn.Cache (a single Evalcache shard holding the whole capacity) *)

let entry priors value = (Array.of_list priors, value)
let lru ~capacity = Nn.Cache.striped ~stripes:1 ~capacity
let hits c = (Nn.Cache.stats c).Nn.Evalcache.hits
let size c = (Nn.Cache.stats c).Nn.Evalcache.size

let test_cache_roundtrip () =
  let c = lru ~capacity:4 in
  Alcotest.(check (option (pair (array (float 0.0)) (float 0.0))))
    "empty" None
    (Nn.Cache.find c ~version:1 (42, 0));
  Nn.Cache.store c ~version:1 (42, 0) (entry [ 0.25; 0.75 ] 0.5);
  (match Nn.Cache.find c ~version:1 (42, 0) with
  | Some (priors, v) ->
      Alcotest.(check (array (float 0.0))) "priors" [| 0.25; 0.75 |] priors;
      Alcotest.(check (float 0.0)) "value" 0.5 v;
      (* hits are copies: mutating one must not corrupt the cache *)
      priors.(0) <- 99.0
  | None -> Alcotest.fail "stored entry not found");
  (match Nn.Cache.find c ~version:1 (42, 0) with
  | Some (priors, _) ->
      Alcotest.(check (array (float 0.0)))
        "stored priors unaffected by caller mutation" [| 0.25; 0.75 |] priors
  | None -> Alcotest.fail "entry vanished");
  Alcotest.(check int) "hits" 2 (hits c);
  Alcotest.(check int) "misses" 1 (Nn.Cache.stats c).Nn.Evalcache.misses

let test_cache_lru_eviction () =
  let c = lru ~capacity:2 in
  Nn.Cache.store c ~version:1 (1, 0) (entry [ 1.0 ] 1.0);
  Nn.Cache.store c ~version:1 (2, 0) (entry [ 1.0 ] 2.0);
  (* touch key 1 so key 2 is the least recently used *)
  ignore (Nn.Cache.find c ~version:1 (1, 0));
  Nn.Cache.store c ~version:1 (3, 0) (entry [ 1.0 ] 3.0);
  Alcotest.(check int) "capacity respected" 2 (size c);
  Alcotest.(check bool) "LRU key evicted" true
    (Nn.Cache.find c ~version:1 (2, 0) = None);
  Alcotest.(check bool) "recently-used key kept" true
    (Nn.Cache.find c ~version:1 (1, 0) <> None);
  Alcotest.(check bool) "new key present" true
    (Nn.Cache.find c ~version:1 (3, 0) <> None)

let test_cache_version_invalidates () =
  let c = lru ~capacity:4 in
  Nn.Cache.store c ~version:1 (7, 2) (entry [ 0.5 ] 0.25);
  Alcotest.(check bool) "entry of stale weights is a miss" true
    (Nn.Cache.find c ~version:2 (7, 2) = None);
  (* re-store under the new version: served again *)
  Nn.Cache.store c ~version:2 (7, 2) (entry [ 0.5 ] 0.75);
  (match Nn.Cache.find c ~version:2 (7, 2) with
  | Some (_, v) -> Alcotest.(check (float 0.0)) "fresh value" 0.75 v
  | None -> Alcotest.fail "re-stored entry not found");
  Alcotest.(check (float 1e-9)) "hit rate counts the stale miss"
    (1.0 /. 2.0) (Nn.Cache.hit_rate c);
  Nn.Cache.clear c;
  Alcotest.(check int) "clear empties" 0 (size c);
  Alcotest.(check int) "clear resets hits" 0 (hits c)

let test_cache_validates () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Cache.striped: capacity <= 0") (fun () ->
      ignore (lru ~capacity:0));
  Alcotest.check_raises "stripes must be positive"
    (Invalid_argument "Cache.striped: stripes <= 0") (fun () ->
      ignore (Nn.Cache.striped ~stripes:0 ~capacity:4))

let test_pvnet_version_bumps () =
  let m = 3 in
  let net =
    Nn.Pvnet.create ~rng:(rng 3)
      { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
        gcn_layers = 1 }
  in
  let v0 = Nn.Pvnet.version net in
  let opt = Nn.Adam.create Nn.Adam.default_config in
  let g =
    Generate.erdos_renyi ~rng:(rng 5)
      { Generate.default with n = 4; m; p_edge = 0.5; p_inf = 0.0 }
  in
  let sample =
    { Nn.Pvnet.instance = Graph.freeze g; next = List.hd (Graph.vertices g);
      policy = Array.make m (1.0 /. float_of_int m); value = 0.5 }
  in
  ignore (Nn.Pvnet.train_batch net opt [ sample ]);
  Alcotest.(check bool) "optimizer step changes the version" true
    (Nn.Pvnet.version net <> v0);
  let replica = Nn.Pvnet.clone net in
  Alcotest.(check int) "clone carries the version (weights are synced)"
    (Nn.Pvnet.version net) (Nn.Pvnet.version replica)

(* ------------------------------------------------------------------ *)
(* Episode / solver equivalence *)

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

let samples_identical sa sb =
  List.length sa = List.length sb
  && List.for_all2
       (fun (a : Nn.Pvnet.sample) (b : Nn.Pvnet.sample) ->
         Io.frozen_to_string a.Nn.Pvnet.instance
         = Io.frozen_to_string b.Nn.Pvnet.instance
         && a.next = b.next
         && Array.for_all2 bits_eq a.policy b.policy
         && bits_eq a.value b.value)
       sa sb

(* The library episode (trail, cache on or off) against the persistent
   reference episode. *)
let check_episode_pair ~msg ?cache g net =
  let cfg =
    {
      Core.Episode.default_config with
      Core.Episode.mcts = { Mcts.default_config with k = 8 };
    }
  in
  let oa, sa =
    Oracle.Episode.play ~collect:true ~rng:(rng 7) ~net
      ~mode:Core.Game.Feasibility cfg (Core.State.of_graph g)
  in
  let ob, sb =
    Core.Episode.play ~collect:true ?cache
      ~serve:(Nn.Infer.create ~workers:1 ()) ~rng:(rng 7) ~net
      ~mode:Core.Game.Feasibility cfg (Core.Istate.of_graph g)
  in
  if not (bits_eq oa.Core.Episode.cost ob.Core.Episode.cost) then
    Alcotest.failf "%s: costs differ" msg;
  if oa.Core.Episode.nodes <> ob.Core.Episode.nodes then
    Alcotest.failf "%s: node counts differ" msg;
  (match (oa.Core.Episode.solution, ob.Core.Episode.solution) with
  | None, None -> ()
  | Some a, Some b when Solution.equal a b -> ()
  | _ -> Alcotest.failf "%s: solutions differ" msg);
  if not (samples_identical sa sb) then Alcotest.failf "%s: samples differ" msg

let test_episode_equivalence =
  qtest ~count:20 "play = persistent oracle (scalar, both cache states)"
    (arb_graph_spec ~nmax:8 ~mmax:4 ())
    (fun spec ->
      let g = build_graph spec in
      let net = tiny_net ~m:spec.m () in
      check_episode_pair ~msg:"no cache" g net;
      let cache = lru ~capacity:512 in
      check_episode_pair ~msg:"cache" ~cache g net;
      (* second run with the now-warm cache: hits must not change play *)
      check_episode_pair ~msg:"warm cache" ~cache g net;
      if hits cache = 0 then
        Alcotest.fail "warm cache saw no hits";
      true)

let same_solution a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Solution.equal a b
  | _ -> false

let same_min a b =
  match (a, b) with
  | None, None -> true
  | Some (a, ca), Some (b, cb) -> Solution.equal a b && bits_eq ca cb
  | _ -> false

let test_solver_equivalence =
  qtest ~count:15 "solve_feasible/minimize: incremental + cache = persistent"
    (arb_graph_spec ~nmax:8 ~mmax:4 ~zero_inf:true ())
    (fun spec ->
      let g = build_graph spec in
      let net = tiny_net ~m:spec.m () in
      let mcts = { Mcts.default_config with k = 6 } in
      let sol0, st0 =
        Oracle.Solver.solve_feasible ~net ~mcts ~max_backtracks:200 g
      in
      let cache capacity =
        if capacity > 0 then Some (lru ~capacity) else None
      in
      List.iter
        (fun capacity ->
          let sol, st =
            Core.Solver.solve_feasible ~net ~mcts ?cache:(cache capacity)
              ~max_backtracks:200 g
          in
          if st <> st0 then
            Alcotest.failf "feasible stats differ (cache=%d)" capacity;
          if not (same_solution sol0 sol) then
            Alcotest.failf "feasible solutions differ (cache=%d)" capacity)
        [ 0; 256 ];
      let min0, mst0 = Oracle.Solver.minimize ~net ~mcts g in
      List.iter
        (fun capacity ->
          let mn, mst =
            Core.Solver.minimize ~net ~mcts ?cache:(cache capacity) g
          in
          if mst <> mst0 then
            Alcotest.failf "minimize stats differ (cache=%d)" capacity;
          if not (same_min min0 mn) then
            Alcotest.failf "minimize results differ (cache=%d)" capacity)
        [ 0; 256 ];
      true)

(* On a PRO residual with the batch atec settings (increasing liberty,
   exact reduction, backtracking, k = 25) the trail search must reproduce
   the persistent reference: same solution, nodes and backtracks.  The
   net seed is one whose search on PRO1 needs backtracks to solve. *)
let test_solver_trail_default () =
  let machine = Ate.Machine.default in
  let g =
    (Ate.Pbqp_build.build machine
       (Ate.Program.analyze_exn (Ate.Progen.pro ~machine 1)))
      .Ate.Pbqp_build.graph
  in
  let net = tiny_net ~seed:8 ~m:(Graph.m g) () in
  let mcts = { Mcts.default_config with k = 25 } in
  let order = Core.Order.Increasing_liberty in
  let sol_p, st_p =
    Oracle.Solver.solve_feasible ~net ~mcts ~order ~exact_reduce:true
      ~max_backtracks:400 g
  in
  let sol_d, st_d =
    Core.Solver.solve_feasible ~net ~mcts ~order ~backtracking:true
      ~exact_reduce:true ~max_backtracks:400 g
  in
  Alcotest.(check bool) "search backtracked" true (st_p.backtracks > 0);
  Alcotest.(check int) "nodes" st_p.Core.Solver.nodes st_d.Core.Solver.nodes;
  Alcotest.(check int) "backtracks" st_p.backtracks st_d.backtracks;
  Alcotest.(check bool) "same solution" true (same_solution sol_p sol_d)

(* MiniC allocation runs [minimize ~rollouts:true ~exact_reduce:true]:
   roll-outs on the trail must leave the search exactly as the persistent
   reference runs it — same solution, cost bits, nodes and backtracks —
   on the residual graphs of real programs. *)
let test_solver_rollouts_minic () =
  let net = tiny_net ~m:Cir.Alloc_pbqp.num_colors () in
  let searched = ref 0 in
  let mcts = { Mcts.default_config with k = 8 } in
  List.iter
    (fun name ->
      let ir = Cir.Lower.compile (Cir.Programs.find name) in
      List.iter
        (fun (f : Cir.Ir.func) ->
          let g = (Cir.Alloc_pbqp.build (Cir.Liveness.analyze f)).graph in
          let residual, _ = Solvers.Scholz.reduce_exact g in
          if Graph.n_alive residual > 0 then incr searched;
          let msg = Printf.sprintf "%s/%s" name f.Cir.Ir.name in
          let r_p, st_p =
            Oracle.Solver.minimize ~net ~mcts ~exact_reduce:true ~rollouts:true g
          in
          let r_d, st_d =
            Core.Solver.minimize ~net ~mcts ~exact_reduce:true ~rollouts:true g
          in
          Alcotest.(check int) (msg ^ ": nodes") st_p.Core.Solver.nodes
            st_d.Core.Solver.nodes;
          Alcotest.(check int) (msg ^ ": backtracks") st_p.backtracks
            st_d.backtracks;
          Alcotest.(check bool) (msg ^ ": solution and cost bits") true
            (same_min r_p r_d))
        ir.Cir.Ir.funcs)
    [ "Queens"; "Quicksort"; "Knapsack" ];
  Alcotest.(check bool) "some residual was searched" true (!searched > 0);
  (* feasibility mode blends roll-outs the same way *)
  let g =
    Generate.erdos_renyi ~rng:(rng 8)
      { Generate.default with n = 6; m = 3; p_edge = 0.5; p_inf = 0.2 }
  in
  let net = tiny_net ~m:3 () in
  let sol_p, st_p =
    Oracle.Solver.solve_feasible ~net ~mcts ~rollouts:true ~max_backtracks:20 g
  in
  let sol_d, st_d =
    Core.Solver.solve_feasible ~net ~mcts ~rollouts:true ~max_backtracks:20 g
  in
  Alcotest.(check bool) "feasibility stats" true (st_p = st_d);
  Alcotest.(check bool) "feasibility solution" true (same_solution sol_p sol_d)

(* ------------------------------------------------------------------ *)
(* Whole-run invariance: {cache off, on} x domains *)

let params_identical a b =
  List.for_all2
    (fun (x : Nn.Var.t) (y : Nn.Var.t) ->
      tensor_bits_equal x.Nn.Var.value y.Nn.Var.value)
    (Nn.Pvnet.params a) (Nn.Pvnet.params b)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_training_invariant_under_cache () =
  let m = 3 in
  let dir = Filename.temp_file "incrrun" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let run ~label ~eval_cache ~domains =
    let prefix = Filename.concat dir label in
    let cfg =
      {
        (Core.Train.default_config ~m) with
        iterations = 2;
        episodes_per_iteration = 3;
        domains;
        eval_cache;
        mcts = { Mcts.default_config with k = 6 };
        net =
          { (Nn.Pvnet.default_config ~m) with trunk_width = 8;
            trunk_blocks = 1; gcn_layers = 1 };
        n_mean = 6.0;
        n_stddev = 1.0;
        n_min = 3;
        arena_games = 2;
        batches_per_iteration = 2;
        batch_size = 8;
        checkpoint = Some prefix;
      }
    in
    let net = Core.Train.run ~rng:(rng 5) cfg in
    (net, read_file (prefix ^ ".replay.txt"))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let net0, replay0 =
        run ~label:"base" ~eval_cache:0 ~domains:1
      in
      List.iter
        (fun (label, eval_cache, domains) ->
          let net, replay = run ~label ~eval_cache ~domains in
          Alcotest.(check string)
            (label ^ ": replay identical, byte for byte")
            replay0 replay;
          Alcotest.(check bool)
            (label ^ ": final net identical, bit for bit")
            true (params_identical net0 net))
        [ ("cache", 512, 1); ("j2", 0, 2); ("cache-j2", 512, 2) ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incr"
    [
      ( "istate",
        [
          test_walk_matches_oracle;
          test_cursor_seeks_match_oracle;
          Alcotest.test_case "snapshot outlives trail motion" `Quick
            test_snapshot_outlives_motion;
          Alcotest.test_case "validations" `Quick test_istate_validations;
        ] );
      ( "rollout", [ test_rollout_matches_oracle ] );
      ( "evalcache",
        [
          Alcotest.test_case "roundtrip + copies" `Quick test_cache_roundtrip;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "version invalidation" `Quick
            test_cache_version_invalidates;
          Alcotest.test_case "validation" `Quick test_cache_validates;
          Alcotest.test_case "pvnet version stamps" `Quick
            test_pvnet_version_bumps;
        ] );
      ( "episode",
        [ test_episode_equivalence ] );
      ( "solver",
        [
          test_solver_equivalence;
          Alcotest.test_case "trail default = persistent (PRO1)" `Quick
            test_solver_trail_default;
          Alcotest.test_case "rollouts on MiniC graphs = persistent" `Quick
            test_solver_rollouts_minic;
        ] );
      ( "training-run",
        [
          Alcotest.test_case
            "{cache off,on} x domains" `Slow
            test_training_invariant_under_cache;
        ] );
    ]
