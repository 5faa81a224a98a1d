(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §4 for the experiment index, and
   EXPERIMENTS.md for paper-reported vs measured values).

   Usage: main.exe [e1|e2|e3|e4|e5|e6|ext|gap|all] [--json PATH]
            [--compare OLD.json]

   Performance is measured by perfbench/ (BENCHMARK.json), not here.

   Networks are trained on first use at a laptop-scale schedule and cached
   under bench_cache/ so reruns are fast; delete the directory to retrain. *)

let cache_dir = "bench_cache"
let machine = Ate.Machine.default
let rng seed = Random.State.make [| seed |]
let section title = Printf.printf "\n=== %s ===\n%!" title

let time_it f =
  let t = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t)

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json PATH): the gap group records one row
   per family (group, name, iters, the gated per-op value — written as
   "ns_per_op", the key --compare reads — and named extra fields), so a
   run leaves a file that later runs can diff against. *)

type row = {
  r_group : string;
  r_name : string;
  r_iters : int;
  r_ns : float;
  r_extra : (string * float) list;
      (** group-specific numeric fields (e.g. the gap group's mean
          optimality gaps); ignored by the --compare parser, which only
          reads group/name/ns_per_op *)
}

let json_out : string option ref = ref None
let json_results : row list ref = ref []

let record ?(extra = []) ~group ~name ~iters ~ns_per_op () =
  json_results :=
    { r_group = group; r_name = name; r_iters = iters; r_ns = ns_per_op;
      r_extra = extra }
    :: !json_results

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"schema\": \"pbqp-rl-bench-1\",\n";
      Printf.fprintf oc "  \"recommended_domains\": %d,\n"
        (Domain.recommended_domain_count ());
      Printf.fprintf oc "  \"results\": [\n";
      let results = List.rev !json_results in
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "    {\"group\": \"%s\", \"name\": \"%s\", \"iters\": %d, \
             \"ns_per_op\": %.1f%s}%s\n"
            (json_escape r.r_group) (json_escape r.r_name) r.r_iters r.r_ns
            (String.concat ""
               (List.map
                  (fun (k, v) ->
                    Printf.sprintf ", \"%s\": %.4f" (json_escape k) v)
                  r.r_extra))
            (if i = List.length results - 1 then "" else ","))
        results;
      Printf.fprintf oc "  ]\n}\n")

(* ------------------------------------------------------------------ *)
(* Trained networks (cached) *)

let ensure_cache_dir () =
  if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755

(* ATE net: m = 13, trained on a mix of PBQP graphs of small synthetic ATE
   programs and planted 0/inf Erdos-Renyi instances (feasibility labels). *)
let ate_instance ~rng =
  if Random.State.bool rng then begin
    let target = 16 + Random.State.int rng 30 in
    let p = Ate.Progen.generate ~rng ~target_vregs:target () in
    let info = Ate.Program.analyze_exn p in
    (Ate.Pbqp_build.build machine info).Ate.Pbqp_build.graph
  end
  else
    fst
      (Pbqp.Generate.planted ~rng
         {
           Pbqp.Generate.default with
           n = 12 + Random.State.int rng 20;
           m = 13;
           p_edge = 0.2;
           p_inf = 0.4;
           zero_inf = true;
         })

let train_ate_net ~k_train ~iterations =
  let m = 13 in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = 12;
      graph = { Pbqp.Generate.default with m; zero_inf = true };
      instance_generator = Some ate_instance;
      mcts = { Mcts.default_config with k = k_train };
      temperature_moves = 8;
    }
  in
  Core.Train.run
    ~on_iteration:(fun p ->
      Printf.printf "  [train ate k=%d] iter %d/%d loss=%.3f failed=%d/12\n%!"
        k_train p.Core.Train.iteration iterations p.mean_loss p.episodes_failed)
    ~rng:(rng (1000 + k_train))
    cfg

(* CPU net: m = 9 (8 registers + spill), trained per the paper's SV-A on
   random Erdos-Renyi PBQP graphs in cost-minimization mode. *)
let train_cpu_net ~k_train ~iterations =
  let m = Cir.Alloc_pbqp.num_colors in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = 12;
      graph =
        { Pbqp.Generate.default with m; p_edge = 0.22; p_inf = 0.01;
          cost_max = 30.0 };
      n_mean = 16.0;
      n_stddev = 4.0;
      mcts = { Mcts.default_config with k = k_train };
      temperature_moves = 6;
    }
  in
  Core.Train.run
    ~on_iteration:(fun p ->
      Printf.printf "  [train cpu k=%d] iter %d/%d loss=%.3f wins=%d kept=%b\n%!"
        k_train p.Core.Train.iteration iterations p.mean_loss p.arena_wins
        p.kept)
    ~rng:(rng (2000 + k_train))
    cfg

let cached name train =
  ensure_cache_dir ();
  let path = Filename.concat cache_dir (name ^ ".ckpt") in
  if Sys.file_exists path then begin
    Printf.printf "  (loading cached %s)\n%!" name;
    Nn.Pvnet.load path
  end
  else begin
    Printf.printf "  training %s ...\n%!" name;
    let net, dt = time_it train in
    Nn.Pvnet.save net path;
    Printf.printf "  trained %s in %.0fs\n%!" name dt;
    net
  end

let ate_net_25 =
  lazy (cached "ate_k25" (fun () -> train_ate_net ~k_train:25 ~iterations:14))

let ate_net_12 =
  lazy (cached "ate_k12" (fun () -> train_ate_net ~k_train:12 ~iterations:14))

let cpu_net =
  lazy (cached "cpu_k24" (fun () -> train_cpu_net ~k_train:24 ~iterations:10))

(* ------------------------------------------------------------------ *)
(* PRO graphs *)

let pros =
  lazy
    (List.init 10 (fun i ->
         let k = i + 1 in
         let p = Ate.Progen.pro k in
         let info = Ate.Program.analyze_exn p in
         let built = Ate.Pbqp_build.build machine info in
         (Printf.sprintf "PRO%d" k, built.Ate.Pbqp_build.graph)))

(* ------------------------------------------------------------------ *)
(* E1: RL without backtracking across (k_train, k_infer) pairs *)

let solve_pro ~net ~order ~k_infer ~backtracking ?(replan = true)
    ?(max_backtracks = 2500) g =
  Core.Solver.solve_feasible ~net ~order ~rng:(rng 9)
    ~mcts:{ Mcts.default_config with k = k_infer }
    ~backtracking ~replan ~max_backtracks g

let e1 () =
  section "E1  (SV-B): Deep-RL without backtracking, (k_train, k_infer) pairs";
  Printf.printf
    "Paper shape: low pairs fail on most programs; the highest pair solves more.\n";
  Printf.printf
    "(scaled: paper pairs (50,25)/(50,50)/(100,150) -> (12,12)/(25,25)/(25,50))\n\n";
  let pairs =
    [
      ("(12,12)", Lazy.force ate_net_12, 12);
      ("(25,25)", Lazy.force ate_net_25, 25);
      ("(25,50)", Lazy.force ate_net_25, 50);
    ]
  in
  Printf.printf "%-8s" "pair";
  List.iter (fun (name, _) -> Printf.printf " %-6s" name) (Lazy.force pros);
  Printf.printf " solved\n";
  List.iter
    (fun (label, net, k_infer) ->
      Printf.printf "%-8s" label;
      let solved = ref 0 in
      List.iter
        (fun (_, g) ->
          let sol, _ =
            solve_pro ~net ~order:Core.Order.Decreasing_liberty ~k_infer
              ~backtracking:false g
          in
          if sol <> None then incr solved;
          Printf.printf " %-6s" (if sol <> None then "ok" else "X"))
        (Lazy.force pros);
      Printf.printf " %d/10\n%!" !solved)
    pairs

(* ------------------------------------------------------------------ *)
(* E2: Figure 6 -- game-tree nodes for variants (a)-(d) *)

let fig6_variants =
  [
    ("(a) no-backtrack", None, false);
    ("(b) random", Some Core.Order.Random, true);
    ("(c) inc-liberty", Some Core.Order.Increasing_liberty, true);
    ("(d) dec-liberty", Some Core.Order.Decreasing_liberty, true);
  ]

let e2 () =
  section "E2  (Figure 6): game-tree nodes, variants (a)-(d), two k_infer";
  Printf.printf
    "Paper shape: backtracking variants solve far more than (a) at low k;\n";
  Printf.printf
    "node counts per variant below (X = failed within the backtrack budget).\n";
  List.iter
    (fun k_infer ->
      Printf.printf "\nk_infer = %d:\n%-18s" k_infer "variant";
      List.iter (fun (name, _) -> Printf.printf " %8s" name) (Lazy.force pros);
      Printf.printf "\n";
      List.iter
        (fun (label, order, backtracking) ->
          Printf.printf "%-18s" label;
          List.iter
            (fun (_, g) ->
              let sol, stats =
                solve_pro
                  ~net:(Lazy.force ate_net_25)
                  ~order:
                    (Option.value order
                       ~default:Core.Order.Decreasing_liberty)
                  ~k_infer ~backtracking g
              in
              Printf.printf " %7d%s" stats.Core.Solver.nodes
                (if sol = None then "X" else " "))
            (Lazy.force pros);
          Printf.printf "\n%!")
        fig6_variants)
    [ 12; 25 ]

(* ------------------------------------------------------------------ *)
(* E3: search-space comparison vs liberty-based enumeration *)

let e3 () =
  section "E3  (SV-B): states explored, Deep-RL vs liberty enumeration";
  Printf.printf
    "Paper shape: RL searches orders of magnitude fewer states (paper:\n";
  Printf.printf
    "1/3,500 - 1/13,000; the liberty baseline is budget-capped here, so\n";
  Printf.printf "ratios on capped rows are lower bounds).\n\n";
  let budget = 400_000 in
  Printf.printf "%-6s %10s %12s %12s %14s\n" "prog" "RL nodes" "lib-fwd"
    "lib-bwd" "ratio(bwd/RL)";
  List.iter
    (fun (pname, g) ->
      let sol, stats =
        solve_pro
          ~net:(Lazy.force ate_net_25)
          ~order:Core.Order.Increasing_liberty ~k_infer:25 ~backtracking:true
          ~max_backtracks:2000 g
      in
      let rl_nodes = stats.Core.Solver.nodes in
      let fwd_sol, fwd = Solvers.Liberty.solve ~max_states:budget g in
      let bwd_sol, bwd =
        Solvers.Liberty.solve ~max_states:budget
          ~pruning:Solvers.Liberty.Backward g
      in
      let show = function
        | Some _, states -> Printf.sprintf "%d" states
        | None, states -> Printf.sprintf ">%d" states
      in
      Printf.printf "%-6s %9d%s %12s %12s %14s\n%!" pname rl_nodes
        (if sol = None then "X" else " ")
        (show (fwd_sol, fwd.Solvers.Liberty.states))
        (show (bwd_sol, bwd.Solvers.Liberty.states))
        (if sol <> None then
           Printf.sprintf "%s%.0fx"
             (if bwd_sol = None then ">=" else "")
             (float_of_int bwd.Solvers.Liberty.states /. float_of_int rl_nodes)
         else "-"))
    (Lazy.force pros)

(* ------------------------------------------------------------------ *)
(* E4: PBQP vs PBQP-RL cost sums on the 24 C programs *)

let program_costs ~net ~k_infer src =
  let ir = Cir.Lower.compile src in
  let scholz_total = ref Pbqp.Cost.zero in
  let rl_total = ref Pbqp.Cost.zero in
  List.iter
    (fun (f : Cir.Ir.func) ->
      let live = Cir.Liveness.analyze f in
      let _, sc = Cir.Alloc_pbqp.solve_scholz live in
      let _, rc =
        Cir.Alloc_pbqp.solve_rl ~net
          ~mcts:{ Mcts.default_config with k = k_infer }
          live
      in
      scholz_total := Pbqp.Cost.add !scholz_total sc;
      rl_total := Pbqp.Cost.add !rl_total rc)
    ir.Cir.Ir.funcs;
  (!scholz_total, !rl_total)

let e4 () =
  section "E4  (SV-C): PBQP vs PBQP-RL cost sums on the 24 C programs";
  Printf.printf
    "Paper shape: PBQP-RL nearly matches PBQP, with a couple of programs\n";
  Printf.printf "slightly worse at low k_infer, closing as k_infer grows.\n\n";
  let net = Lazy.force cpu_net in
  let k_infer = 60 in
  Printf.printf "%-12s %12s %12s %9s\n" "program" "PBQP" "PBQP-RL" "gap";
  let worse = ref [] in
  List.iter
    (fun (name, src) ->
      let sc, rc = program_costs ~net ~k_infer src in
      let sc = Pbqp.Cost.to_float sc and rc = Pbqp.Cost.to_float rc in
      (* relative gap guarded against zero/negative sums (coalescing
         credits can push cost sums below zero) *)
      let rel = (rc -. sc) /. (Float.abs sc +. 1.0) in
      if rel > 0.02 then worse := name :: !worse;
      Printf.printf "%-12s %12.1f %12.1f %+8.1f%%\n%!" name sc rc (100. *. rel))
    Cir.Programs.all;
  Printf.printf "\nprograms with >2%% higher RL cost at k_infer=%d: %s\n"
    k_infer
    (match !worse with
    | [] -> "(none)"
    | l -> String.concat ", " (List.rev l));
  Printf.printf "\nk_infer sweep on the paper's two stragglers (Oscar, FloatMM):\n";
  List.iter
    (fun name ->
      let src = Cir.Programs.find name in
      Printf.printf "  %-8s" name;
      List.iter
        (fun k ->
          let sc, rc = program_costs ~net ~k_infer:k src in
          Printf.printf "  k=%d: RL %.1f vs PBQP %.1f;" k
            (Pbqp.Cost.to_float rc) (Pbqp.Cost.to_float sc))
        [ 15; 60; 150 ];
      Printf.printf "\n%!")
    [ "Oscar"; "FloatMM" ]

(* ------------------------------------------------------------------ *)
(* E5: speedup over FAST *)

let e5 () =
  section "E5  (SV-C): generated-code speedup over FAST";
  Printf.printf
    "Paper shape: GREEDY 1.464x, PBQP 1.422x, PBQP-RL 1.416x on x86; our\n";
  Printf.printf
    "VCPU memory model is harsher, so absolute speedups are larger, but the\n";
  Printf.printf "relative ordering of the allocators is the claim.\n\n";
  let net = Lazy.force cpu_net in
  let kinds =
    [
      Cir.Driver.Fast;
      Cir.Driver.Basic;
      Cir.Driver.Greedy;
      Cir.Driver.Pbqp;
      Cir.Driver.Pbqp_rl (net, { Mcts.default_config with k = 60 });
    ]
  in
  Printf.printf "%-12s %10s %10s %10s %10s %10s\n" "program" "FAST" "BASIC"
    "GREEDY" "PBQP" "PBQP-RL";
  let geo = Array.make (List.length kinds) 0.0 in
  let count = ref 0 in
  List.iter
    (fun (name, src) ->
      let ir = Cir.Lower.compile src in
      let expected = (Cir.Driver.reference ir).Cir.Interp.output in
      let cycles =
        List.map
          (fun kind ->
            let r = Cir.Driver.run kind ir in
            if r.Cir.Driver.outcome.Cir.Msim.output <> expected then
              failwith
                (name ^ ": wrong output under "
                ^ Cir.Driver.alloc_kind_name kind);
            r.Cir.Driver.outcome.Cir.Msim.cycles)
          kinds
      in
      let fast = float_of_int (List.hd cycles) in
      incr count;
      List.iteri
        (fun i c -> geo.(i) <- geo.(i) +. log (fast /. float_of_int c))
        cycles;
      Printf.printf "%-12s" name;
      List.iter (fun c -> Printf.printf " %9.2fx" (fast /. float_of_int c)) cycles;
      Printf.printf "\n%!")
    Cir.Programs.all;
  Printf.printf "%-12s" "geomean";
  Array.iter
    (fun s -> Printf.printf " %9.2fx" (exp (s /. float_of_int !count)))
    geo;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* E6: ablations *)

let e6 () =
  section "E6  (SV-B ablations)";
  Printf.printf
    "(i) dead-end re-planning on/off (paper: no tangible difference);\n";
  Printf.printf
    "(ii) think more in training, less at inference (paper: ~10%% fewer nodes).\n\n";
  let best_order = Core.Order.Increasing_liberty in
  Printf.printf "(i) replan vs no-replan, k_infer=12:\n";
  Printf.printf "%-10s %10s %10s\n" "prog" "replan" "no-replan";
  List.iter
    (fun (pname, g) ->
      let run replan =
        let sol, stats =
          solve_pro ~net:(Lazy.force ate_net_25) ~order:best_order ~k_infer:12
            ~backtracking:true ~replan g
        in
        Printf.sprintf "%d%s" stats.Core.Solver.nodes
          (if sol = None then "X" else "")
      in
      Printf.printf "%-10s %10s %10s\n%!" pname (run true) (run false))
    (Lazy.force pros);
  Printf.printf
    "\n(ii) high-train/low-infer (25,12) vs low-train/high-infer (12,25):\n";
  Printf.printf "%-10s %12s %12s\n" "prog" "(25,12)" "(12,25)";
  List.iter
    (fun (pname, g) ->
      let run net k_infer =
        let sol, stats =
          solve_pro ~net ~order:best_order ~k_infer ~backtracking:true g
        in
        Printf.sprintf "%d%s" stats.Core.Solver.nodes
          (if sol = None then "X" else "")
      in
      Printf.printf "%-10s %12s %12s\n%!" pname
        (run (Lazy.force ate_net_25) 12)
        (run (Lazy.force ate_net_12) 25))
    (Lazy.force pros)

(* ------------------------------------------------------------------ *)
(* EXT: ablations of this reproduction's own design choices (DESIGN.md) *)

let ext () =
  section "EXT (beyond the paper): hybrid exact reduction & roll-out blending";
  Printf.printf
    "(i) exact R0/R1/R2 pre-reduction before the RL search (same answers,\n";
  Printf.printf "fewer nodes on instances with an easy periphery):\n";
  Printf.printf "%-10s %12s %12s\n" "prog" "plain" "hybrid";
  let net = Lazy.force ate_net_25 in
  List.iteri
    (fun i (pname, g) ->
      if i < 5 then begin
        let run exact_reduce =
          let sol, stats =
            Core.Solver.solve_feasible ~net ~exact_reduce
              ~order:Core.Order.Increasing_liberty
              ~mcts:{ Mcts.default_config with k = 25 }
              ~max_backtracks:1500 g
          in
          Printf.sprintf "%d%s" stats.Core.Solver.nodes
            (if sol = None then "X" else "")
        in
        Printf.printf "%-10s %12s %12s\n%!" pname (run false) (run true)
      end)
    (Lazy.force pros);
  Printf.printf
    "\n(ii) greedy roll-out blending in minimization (per-program PBQP cost\n";
  Printf.printf "sums with roll-outs on vs off, k_infer = 60):\n";
  let cpu = Lazy.force cpu_net in
  Printf.printf "%-12s %12s %12s %12s\n" "program" "PBQP" "RL+rollout" "RL-rollout";
  List.iter
    (fun name ->
      let src = Cir.Programs.find name in
      let ir = Cir.Lower.compile src in
      let total f =
        List.fold_left
          (fun acc (fn : Cir.Ir.func) ->
            acc +. Pbqp.Cost.to_float (f (Cir.Liveness.analyze fn)))
          0.0 ir.Cir.Ir.funcs
      in
      let scholz live = snd (Cir.Alloc_pbqp.solve_scholz live) in
      let with_ro live =
        snd
          (Cir.Alloc_pbqp.solve_rl ~net:cpu
             ~mcts:{ Mcts.default_config with k = 60 }
             live)
      in
      let without_ro live =
        let t = Cir.Alloc_pbqp.build live in
        match
          Core.Solver.minimize ~net:cpu
            ~mcts:{ Mcts.default_config with k = 60 }
            ~exact_reduce:true t.Cir.Alloc_pbqp.graph
        with
        | Some (_, c), _ -> c
        | None, _ -> Pbqp.Cost.inf
      in
      Printf.printf "%-12s %12.1f %12.1f %12.1f\n%!" name (total scholz)
        (total with_ro) (total without_ro))
    [ "Queens"; "Nbody"; "Oscar"; "Gcd"; "Mandel" ]

(* ------------------------------------------------------------------ *)
(* Optimality gap vs the proven optimum (the `gap` group): four graph
   families, each instance's optimum proven by the exact branch-and-bound
   solver (Solvers.Exact), then every heuristic's mean gap to it —
   classic solvers plus the Deep-RL search (the trained cached nets for
   the CPU and ATE families, an untrained net as an off-policy floor for
   the synthetic ones).  One JSON row per family: the compared metric is
   mean branch-and-bound nodes per proof (deterministic — see the note
   at the record call); the gap means, counts and mean proof wall time
   ride along as extra fields for EXPERIMENTS.md. *)

let gap_asymmetric ~seed ~n ~m =
  let rng = rng seed in
  let g = Pbqp.Graph.create ~m ~n in
  for u = 0 to n - 1 do
    Pbqp.Graph.set_cost g u
      (Pbqp.Vec.init m (fun _ -> float_of_int (Random.State.int rng 10)))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < 0.4 then
        Pbqp.Graph.add_edge g u v
          (Pbqp.Mat.init ~rows:m ~cols:m (fun i j ->
               if i = j && Random.State.int rng 4 = 0 then Pbqp.Cost.inf
               else
                 float_of_int (Random.State.int rng 6)
                 +. (3.0 *. float_of_int i)
                 +. float_of_int j))
    done
  done;
  g

let gap_untrained ~m =
  Nn.Pvnet.create ~rng:(rng (90 + m))
    { (Nn.Pvnet.default_config ~m) with trunk_width = 16; trunk_blocks = 1;
      gcn_layers = 2 }

let gap_families () =
  let er ~seed ~n ~m ~p_edge ~p_inf ~cost_max =
    Pbqp.Generate.erdos_renyi ~rng:(rng seed)
      { Pbqp.Generate.n; m; p_edge; p_inf; cost_max; zero_inf = false;
        min_liberty = 1 }
  in
  [
    ( "cpu9",
      List.init 12 (fun i ->
          er ~seed:(8100 + i) ~n:(12 + (i mod 5)) ~m:Cir.Alloc_pbqp.num_colors
            ~p_edge:0.22 ~p_inf:0.01 ~cost_max:30.0),
      Some ("rl (cpu_k24)", cpu_net) );
    ( "ate13",
      List.init 12 (fun i ->
          fst
            (Pbqp.Generate.planted ~rng:(rng (8200 + i))
               { Pbqp.Generate.default with n = 12 + (i mod 5); m = 13;
                 p_edge = 0.2; p_inf = 0.4; zero_inf = true })),
      Some ("rl (ate_k12)", ate_net_12) );
    ( "dense3",
      List.init 12 (fun i ->
          er ~seed:(8300 + i) ~n:(10 + (i mod 4)) ~m:3 ~p_edge:0.85
            ~p_inf:0.1 ~cost_max:10.0),
      Some ("rl (untrained)", lazy (gap_untrained ~m:3)) );
    ( "asym4",
      List.init 12 (fun i ->
          gap_asymmetric ~seed:(8400 + i) ~n:(8 + (i mod 4)) ~m:4),
      Some ("rl (untrained)", lazy (gap_untrained ~m:4)) );
  ]

let gap_bench () =
  section "Optimality gap vs proven optimum (exact branch-and-bound)";
  List.iter
    (fun (family, graphs, rl) ->
      let columns =
        [ "scholz"; "mrv"; "liberty"; "greedy" ]
        @ match rl with Some (label, _) -> [ label ] | None -> []
      in
      let sums = Hashtbl.create 8 in
      let bump name gap =
        let s, c = try Hashtbl.find sums name with Not_found -> (0.0, 0) in
        Hashtbl.replace sums name (s +. gap, c + 1)
      in
      let proven = ref 0
      and infeasible = ref 0
      and timeout = ref 0
      and t_exact = ref 0.0
      and nodes_exact = ref 0 in
      List.iter
        (fun g ->
          let (outcome, st), dt =
            time_it (fun () -> Solvers.Exact.solve ~max_nodes:2_000_000 g)
          in
          t_exact := !t_exact +. dt;
          nodes_exact := !nodes_exact + st.Solvers.Exact.nodes;
          match outcome with
          | Solvers.Exact.Timeout _ -> incr timeout
          | Solvers.Exact.Infeasible -> incr infeasible
          | Solvers.Exact.Optimal (_, opt) ->
              incr proven;
              let gap c =
                (Pbqp.Cost.to_float c -. Pbqp.Cost.to_float opt)
                /. Float.max 1.0 (Float.abs (Pbqp.Cost.to_float opt))
              in
              let runs =
                [
                  ("scholz",
                   let _, c, _ = Solvers.Scholz.solve_with_cost g in
                   if Pbqp.Cost.is_finite c then Some c else None);
                  ("mrv",
                   Option.map
                     (fun s -> Pbqp.Solution.cost g s)
                     (fst (Solvers.Mrv.solve ~max_states:50_000 g)));
                  ("liberty",
                   Option.map
                     (fun s -> Pbqp.Solution.cost g s)
                     (fst (Solvers.Liberty.solve ~max_states:50_000 g)));
                  ("greedy", Option.map snd (fst (Solvers.Greedy.solve g)));
                ]
                @
                match rl with
                | None -> []
                | Some (label, net) ->
                    [ ( label,
                        Option.map snd
                          (fst
                             (Core.Solver.minimize ~net:(Lazy.force net)
                                ~mcts:{ Mcts.default_config with k = 16 }
                                g)) ) ]
              in
              List.iter
                (fun (name, c) ->
                  match c with Some c -> bump name (gap c) | None -> ())
                runs)
        graphs;
      let n = List.length graphs in
      Printf.printf
        "  %-7s %d graphs: %d proven, %d infeasible, %d timeout; mean exact \
         proof %.1f ms, %d nodes/proof\n"
        family n !proven !infeasible !timeout
        (!t_exact /. float_of_int n *. 1e3)
        (!nodes_exact / n);
      let extra = ref [] in
      List.iter
        (fun name ->
          match Hashtbl.find_opt sums name with
          | Some (s, c) when c > 0 ->
              let mean = 100.0 *. s /. float_of_int c in
              Printf.printf "    %-16s mean gap %+7.2f%%  (%d/%d solved)\n"
                name mean c !proven;
              (* stable JSON keys: strip the rl column's net suffix *)
              let key =
                if String.length name >= 2 && String.sub name 0 2 = "rl" then
                  "rl"
                else name
              in
              extra :=
                (Printf.sprintf "gap_%s_pct" key, mean)
                :: (Printf.sprintf "solved_%s" key, float_of_int c)
                :: !extra
          | _ -> Printf.printf "    %-16s no solutions\n" name)
        columns;
      (* The --compare gate watches ns_per_op, but wall time on a shared
         host swings far past the 25% threshold between identical runs.
         The prover is deterministic, so gate on branch-and-bound nodes
         per proof instead — bit-identical across runs, and a growth
         there is a real algorithmic regression (weakened bound or
         branching), which is what matters for an exact solver.  Wall
         time rides along as an informational extra field. *)
      record ~group:"gap" ~name:(family ^ " nodes/proof") ~iters:n
        ~ns_per_op:(float_of_int !nodes_exact /. float_of_int n)
        ~extra:
          (List.rev !extra
          @ [
              ("proof_ms_mean", !t_exact /. float_of_int n *. 1e3);
              ("proven", float_of_int !proven);
              ("infeasible", float_of_int !infeasible);
              ("timeout", float_of_int !timeout);
            ])
        ())
    (gap_families ())

(* ------------------------------------------------------------------ *)
(* --compare OLD.json: after the selected groups have run, diff the
   freshly recorded rows against a previous --json file (matched by
   (group, name)) and exit non-zero on any row whose per-op value (the
   gap group's branch-and-bound nodes per proof) grew by more than 25%.
   The parser is line-based over the bench's own output format — no
   JSON dependency. *)

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go 0

let str_field line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  Option.map
    (fun i ->
      let start = i + String.length pat in
      String.sub line start (String.index_from line start '"' - start))
    (find_sub line pat)

let num_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  Option.map
    (fun i ->
      let start = i + String.length pat in
      let stop = ref start in
      while
        !stop < String.length line
        && not (String.contains ",}" line.[!stop])
      do
        incr stop
      done;
      float_of_string (String.trim (String.sub line start (!stop - start))))
    (find_sub line pat)

let parse_bench_rows path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rows = ref [] in
      (try
         while true do
           let line = input_line ic in
           match (str_field line "group", str_field line "name",
                  num_field line "ns_per_op")
           with
           | Some g, Some n, Some ns -> rows := ((g, n), ns) :: !rows
           | _ -> ()
         done
       with End_of_file -> ());
      List.rev !rows)

let compare_against path =
  let old_rows = parse_bench_rows path in
  section (Printf.sprintf "compare vs %s (fail on a per-op value > 1.25x)" path);
  let regressed = ref 0 and matched = ref 0 in
  List.iter
    (fun r ->
      match List.assoc_opt (r.r_group, r.r_name) old_rows with
      | Some old_ns when old_ns > 0.0 && r.r_ns > 0.0 ->
          incr matched;
          let ratio = r.r_ns /. old_ns in
          if ratio > 1.25 then begin
            incr regressed;
            Printf.printf "  %-52s %12.1f -> %12.1f /op  %.2fx REGRESSION\n"
              (r.r_group ^ "/" ^ r.r_name)
              old_ns r.r_ns ratio
          end
          else
            Printf.printf "  %-52s %12.1f -> %12.1f /op  %.2fx\n"
              (r.r_group ^ "/" ^ r.r_name)
              old_ns r.r_ns ratio
      | _ -> ())
    (List.rev !json_results);
  if !matched = 0 then
    Printf.printf "  (no rows of this run matched %s)\n" path;
  if !regressed > 0 then begin
    Printf.eprintf "%d regression(s) > 25%% vs %s\n" !regressed path;
    exit 1
  end
  else Printf.printf "  ok: no regression > 25%% across %d matched row(s)\n"
      !matched

(* ------------------------------------------------------------------ *)

let () =
  let which = ref "all" in
  let compare_ref = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse rest
    | [ "--json" ] ->
        Printf.eprintf "--json needs a PATH argument\n";
        exit 1
    | "--compare" :: path :: rest ->
        compare_ref := Some path;
        parse rest
    | [ "--compare" ] ->
        Printf.eprintf "--compare needs an OLD.json argument\n";
        exit 1
    | a :: rest ->
        which := a;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "PBQP-RL benchmark harness — reproducing the evaluation of\n\
     \"Solving PBQP-Based Register Allocation using Deep Reinforcement \
     Learning\" (CGO 2022)\n";
  (match !which with
  | "e1" -> e1 ()
  | "e2" -> e2 ()
  | "e3" -> e3 ()
  | "e4" -> e4 ()
  | "e5" -> e5 ()
  | "e6" -> e6 ()
  | "ext" -> ext ()
  | "gap" -> gap_bench ()
  | "all" ->
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      ext ();
      gap_bench ()
  | other ->
      Printf.eprintf
        "unknown experiment %S (e1..e6, ext, gap, all)\n"
        other;
      exit 1);
  (match !json_out with
  | Some path ->
      write_json path;
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match !compare_ref with
  | Some path -> compare_against path
  | None -> ());
  Printf.printf "\ntotal wall time: %.0fs\n" (Unix.gettimeofday () -. t0)
