(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md §4 for the experiment index, and
   EXPERIMENTS.md for paper-reported vs measured values).

   Usage: main.exe [e1|e2|e3|e4|e5|e6|micro|all]

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
(* Machine-readable results (--json PATH): every group that measures
   operations records (group, name, iters, ns/op, allocs/op, GC words/op
   and — where meaningful — a cache hit rate) here, so a run leaves a
   perf-trajectory file that later PRs can diff against. *)

type row = {
  r_group : string;
  r_name : string;
  r_iters : int;
  r_ns : float;
  r_allocs : float;
  r_minor : float;  (** minor-heap words per op (main domain) *)
  r_major : float;  (** major-heap + promoted words per op *)
  r_hit : float option;  (** evaluation-cache hit rate, when applicable *)
  r_cache : Nn.Evalcache.stats option;
      (** evaluation-cache counters (hits/misses/evictions/size), when a
          cache was in play *)
  r_extra : (string * float) list;
      (** group-specific numeric fields (e.g. the gap group's mean
          optimality gaps); ignored by the --compare parser, which only
          reads group/name/ns_per_op *)
}

let json_out : string option ref = ref None
let json_results : row list ref = ref []

let record ?(minor_words_per_op = 0.0) ?(major_words_per_op = 0.0) ?hit_rate
    ?cache_stats ?(extra = []) ~group ~name ~iters ~ns_per_op ~allocs_per_op
    () =
  json_results :=
    { r_group = group; r_name = name; r_iters = iters; r_ns = ns_per_op;
      r_allocs = allocs_per_op; r_minor = minor_words_per_op;
      r_major = major_words_per_op; r_hit = hit_rate; r_cache = cache_stats;
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
             \"ns_per_op\": %.1f, \"allocs_per_op\": %.1f, \
             \"minor_words_per_op\": %.1f, \"major_words_per_op\": %.1f%s}%s\n"
            (json_escape r.r_group) (json_escape r.r_name) r.r_iters r.r_ns
            r.r_allocs r.r_minor r.r_major
            ((match r.r_hit with
             | None -> ""
             | Some h -> Printf.sprintf ", \"hit_rate\": %.4f" h)
            ^ (match r.r_cache with
              | None -> ""
              | Some (s : Nn.Evalcache.stats) ->
                  Printf.sprintf
                    ", \"cache_hits\": %d, \"cache_misses\": %d,                    \"cache_evictions\": %d, \"cache_size\": %d"
                    s.Nn.Evalcache.hits s.misses s.evictions s.size)
            ^ String.concat ""
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf ", \"%s\": %.4f" (json_escape k) v)
                   r.r_extra))
            (if i = List.length results - 1 then "" else ","))
        results;
      Printf.fprintf oc "  ]\n}\n")

(* Hand-rolled timing for the parallel benchmarks (Bechamel pins its
   harness to one domain, so pool effects are better measured directly):
   repeat [f] until [min_time] wall seconds and [min_iters] runs, then
   report per-op nanoseconds, per-op allocated words, and per-op GC
   minor/major words (main domain only — worker-domain allocation is not
   in the counters). *)
type measurement = {
  m_iters : int;
  m_ns : float;
  m_allocs : float;
  m_minor : float;
  m_major : float;
}

let measure ?(min_time = 0.25) ?(min_iters = 3) f =
  ignore (f ());
  let iters = ref 0 and t_total = ref 0.0 and a_total = ref 0.0 in
  let minor_total = ref 0.0 and major_total = ref 0.0 in
  while !t_total < min_time || !iters < min_iters do
    let s0 = Gc.quick_stat () in
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    t_total := !t_total +. (Unix.gettimeofday () -. t0);
    a_total := !a_total +. (Gc.allocated_bytes () -. a0);
    let s1 = Gc.quick_stat () in
    minor_total := !minor_total +. (s1.Gc.minor_words -. s0.Gc.minor_words);
    major_total :=
      !major_total
      +. (s1.Gc.major_words -. s0.Gc.major_words)
      +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
    incr iters
  done;
  let n = float_of_int !iters in
  { m_iters = !iters; m_ns = !t_total *. 1e9 /. n;
    m_allocs = !a_total /. 8.0 /. n; m_minor = !minor_total /. n;
    m_major = !major_total /. n }

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
(* Bechamel microbenchmarks *)

let micro () =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let g30 =
    Pbqp.Generate.erdos_renyi ~rng:(rng 3)
      { Pbqp.Generate.default with n = 30; m = 13; p_edge = 0.2 }
  in
  let net = Lazy.force ate_net_25 in
  let state = Core.State.of_graph g30 in
  let tests =
    Test.make_grouped ~name:"pbqp-rl"
      [
        Test.make ~name:"Graph.copy (n=30,m=13)"
          (Staged.stage (fun () -> ignore (Pbqp.Graph.copy g30)));
        Test.make ~name:"State.apply"
          (Staged.stage (fun () -> ignore (Core.State.apply state 0)));
        Test.make ~name:"Pvnet 1-row prepare+predict_prepared (n=30)"
          (Staged.stage (fun () ->
               ignore
                 (Nn.Pvnet.predict_prepared net
                    [| Nn.Pvnet.prepare net g30 ~next:0 |])));
        Test.make ~name:"Scholz.solve (n=30)"
          (Staged.stage (fun () -> ignore (Solvers.Scholz.solve g30)));
        Test.make ~name:"MiniC compile (Sieve)"
          (Staged.stage (fun () ->
               ignore (Cir.Lower.compile (Cir.Programs.find "Sieve"))));
        Test.make ~name:"Liveness.analyze (Sieve main)"
          (Staged.stage
             (let f =
                List.hd (Cir.Lower.compile (Cir.Programs.find "Sieve")).Cir.Ir.funcs
              in
              fun () -> ignore (Cir.Liveness.analyze f)));
        Test.make ~name:"Check.Invariants.graph (n=30)"
          (Staged.stage (fun () -> ignore (Check.Invariants.graph g30)));
        Test.make ~name:"Check.Certify.recompute (n=30)"
          (Staged.stage
             (let sol, _, _ = Solvers.Scholz.solve_with_cost g30 in
              fun () -> ignore (Check.Certify.recompute g30 sol)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          record ~group:"micro" ~name ~iters:1 ~ns_per_op:est
            ~allocs_per_op:0.0 ();
          Printf.printf "  %-36s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "  %-36s (no estimate)\n%!" name)
    results

(* ------------------------------------------------------------------ *)
(* Batched-evaluation microbenchmarks: the tiled GEMM against the naive
   kernel, one 16-row arena forward against 16 single-row ones, and a
   whole self-play episode with waves of 1 and of 8 leaves.  Uses a
   fresh (untrained) net — these measure inference mechanics, not play
   quality — so the section runs in seconds. *)

let batching () =
  section "Batched evaluation microbenchmarks (Bechamel)";
  let open Bechamel in
  let mk n =
    let r = rng (n + 1) in
    let rand _ _ = Random.State.float r 2.0 -. 1.0 in
    (Tensor.init2 n n rand, Tensor.init2 n n rand)
  in
  let a64, b64 = mk 64 in
  let a192, b192 = mk 192 in
  let out192 = Tensor.zeros [| 192; 192 |] in
  let m = 13 in
  let net =
    Nn.Pvnet.create ~rng:(rng 1)
      { (Nn.Pvnet.default_config ~m) with trunk_width = 64; trunk_blocks = 2 }
  in
  let g =
    Pbqp.Generate.erdos_renyi ~rng:(rng 3)
      { Pbqp.Generate.default with n = 30; m; p_edge = 0.2 }
  in
  let states =
    List.filteri (fun i _ -> i < 16)
      (List.map (fun v -> (g, v)) (Pbqp.Graph.vertices g))
  in
  let st = Core.Istate.of_graph g in
  let episode ~batch () =
    let cfg =
      {
        Core.Episode.default_config with
        Core.Episode.mcts = { Mcts.default_config with k = 16; batch };
      }
    in
    ignore
      (Core.Episode.play ~rng:(rng 7) ~net
         ~mode:Core.Game.Feasibility cfg st)
  in
  let tests =
    Test.make_grouped ~name:"batching"
      [
        Test.make ~name:"matmul_naive 64x64"
          (Staged.stage (fun () -> ignore (Tensor.matmul_naive a64 b64)));
        Test.make ~name:"matmul (tiled) 64x64"
          (Staged.stage (fun () -> ignore (Tensor.matmul a64 b64)));
        Test.make ~name:"matmul_naive 192x192"
          (Staged.stage (fun () -> ignore (Tensor.matmul_naive a192 b192)));
        Test.make ~name:"matmul (tiled) 192x192"
          (Staged.stage (fun () -> ignore (Tensor.matmul a192 b192)));
        Test.make ~name:"matmul_into (tiled, no alloc) 192x192"
          (Staged.stage (fun () -> Tensor.matmul_into out192 a192 b192));
        Test.make ~name:"16 x 1-row prepare+predict_prepared (n=30)"
          (Staged.stage (fun () ->
               List.iter
                 (fun (g, next) ->
                   ignore
                     (Nn.Pvnet.predict_prepared net
                        [| Nn.Pvnet.prepare net g ~next |]))
                 states));
        Test.make ~name:"16-row prepare+predict_prepared (n=30)"
          (Staged.stage (fun () ->
               ignore
                 (Nn.Pvnet.predict_prepared net
                    (Array.of_list
                       (List.map
                          (fun (g, next) -> Nn.Pvnet.prepare net g ~next)
                          states)))));
        Test.make ~name:"episode, batch_leaves=1 (k=16)"
          (Staged.stage (episode ~batch:1));
        Test.make ~name:"episode, batch_leaves=8 (k=16)"
          (Staged.stage (episode ~batch:8));
      ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          record ~group:"batch" ~name ~iters:1 ~ns_per_op:est
            ~allocs_per_op:0.0 ();
          Printf.printf "  %-42s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
    results

(* ------------------------------------------------------------------ *)
(* Parallel-runtime benchmarks: the pool-backed GEMM, the data-parallel
   training step and whole-iteration episode throughput at 1/2/4/8
   domains.  Every parallel variant computes bit-identical results to
   its serial baseline (that is what the @par test alias asserts); this
   group measures what that determinism costs or buys on this host. *)

let par_bench () =
  section "Parallel runtime (Par.Pool) at 1/2/4/8 domains";
  Printf.printf
    "host reports %d recommended domain(s); parallel results are\n\
     bit-identical to serial at every pool size, so any speedup is free.\n\n"
    (Domain.recommended_domain_count ());
  let show ~name m =
    record ~group:"par" ~name ~iters:m.m_iters ~ns_per_op:m.m_ns
      ~allocs_per_op:m.m_allocs ~minor_words_per_op:m.m_minor
      ~major_words_per_op:m.m_major ();
    Printf.printf "  %-44s %14.1f ns/op  (x%d)\n%!" name m.m_ns m.m_iters
  in
  let js = [ 1; 2; 4; 8 ] in
  (* GEMM: 256x256, comfortably above the pool threshold. *)
  let n = 256 in
  let r = rng 11 in
  let rand _ _ = Random.State.float r 2.0 -. 1.0 in
  let a = Tensor.init2 n n rand and b = Tensor.init2 n n rand in
  let out = Tensor.zeros [| n; n |] in
  Tensor.set_pool None;
  show ~name:"gemm 256x256 serial"
    (measure (fun () -> Tensor.matmul_into out a b));
  List.iter
    (fun j ->
      let pool = Par.Pool.create ~domains:j in
      Tensor.set_pool (Some pool);
      show
        ~name:(Printf.sprintf "gemm 256x256 pool j=%d" j)
        (measure (fun () -> Tensor.matmul_into out a b));
      Tensor.set_pool None;
      Par.Pool.shutdown pool)
    js;
  (* Training step: one Adam step on a 16-sample batch, m = 13. *)
  let m = 13 in
  let g =
    Pbqp.Generate.erdos_renyi ~rng:(rng 5)
      { Pbqp.Generate.default with n = 16; m; p_edge = 0.2 }
  in
  let uniform = Array.make m (1.0 /. float_of_int m) in
  let samples =
    List.map
      (fun v ->
        { Nn.Pvnet.graph = g; next = v; policy = Array.copy uniform;
          value = 0.25 })
      (Pbqp.Graph.vertices g)
  in
  let fresh_net () = Nn.Pvnet.create ~rng:(rng 6) (Nn.Pvnet.default_config ~m) in
  let serial_net = fresh_net () in
  let serial_opt = Nn.Adam.create Nn.Adam.default_config in
  show ~name:"train step (16 samples) serial"
    (measure (fun () -> Nn.Pvnet.train_batch serial_net serial_opt samples));
  List.iter
    (fun j ->
      let pool = Par.Pool.create ~domains:j in
      let net = fresh_net () in
      let opt = Nn.Adam.create Nn.Adam.default_config in
      let replicas =
        Array.init (Par.Pool.size pool) (fun w ->
            if w = 0 then net else Nn.Pvnet.clone net)
      in
      show
        ~name:(Printf.sprintf "train step (16 samples) pool j=%d" j)
        (measure (fun () ->
             Nn.Pvnet.train_batch_parallel ~pool ~replicas net opt samples));
      Par.Pool.shutdown pool)
    js;
  (* Episode throughput: one self-play iteration (8 episodes, k = 12, no
     training / arena) through Core.Train.run at each pool size. *)
  let episodes = 8 in
  let train_cfg j =
    {
      (Core.Train.default_config ~m:8) with
      iterations = 1;
      episodes_per_iteration = episodes;
      batches_per_iteration = 0;
      arena_games = 0;
      mcts = { Mcts.default_config with k = 12 };
      n_mean = 12.0;
      n_stddev = 2.0;
      domains = j;
    }
  in
  List.iter
    (fun j ->
      let m =
        measure ~min_time:0.0 ~min_iters:2 (fun () ->
            ignore (Core.Train.run ~rng:(rng 31) (train_cfg j)))
      in
      let e = float_of_int episodes in
      show
        ~name:(Printf.sprintf "self-play episode (k=12) j=%d" j)
        { m_iters = m.m_iters * episodes; m_ns = m.m_ns /. e;
          m_allocs = m.m_allocs /. e; m_minor = m.m_minor /. e;
          m_major = m.m_major /. e })
    js

(* ------------------------------------------------------------------ *)
(* Incremental-state & evaluation-cache benchmarks: bare apply chains on
   the trail-based Istate against per-move persistent copies (the State
   transition oracle), whole k=12 self-play episodes on the trail with
   and without a transposition cache, and an LRU-capacity sweep of the
   cache's hit rate on a repeated-position workload.  Cached and
   uncached episodes are bit-identical (the @incr test alias asserts
   it); this group measures what the cache buys. *)

let incr_bench () =
  section "Incremental state & evaluation cache";
  let show ?cache_stats ~name m =
    (* hit rate derived from the cache's own counters (Evalcache.stats)
       rather than recomputed ad hoc *)
    let hit_rate =
      Option.map
        (fun (s : Nn.Evalcache.stats) ->
          let total = s.Nn.Evalcache.hits + s.misses in
          if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total)
        cache_stats
    in
    record ~group:"incr" ~name ~iters:m.m_iters ~ns_per_op:m.m_ns
      ~allocs_per_op:m.m_allocs ~minor_words_per_op:m.m_minor
      ~major_words_per_op:m.m_major ?hit_rate ?cache_stats ();
    Printf.printf "  %-44s %12.1f ns/op  %10.0f w/op%s\n%!" name m.m_ns
      m.m_allocs
      (match hit_rate with
      | None -> ""
      | Some h -> Printf.sprintf "  hit %.0f%%" (100. *. h))
  in
  let m = 13 in
  let g =
    Pbqp.Generate.erdos_renyi ~rng:(rng 3)
      { Pbqp.Generate.default with n = 50; m; p_edge = 0.3 }
  in
  let net = Nn.Pvnet.create ~rng:(rng 1) (Nn.Pvnet.default_config ~m) in
  (* Bare state transitions: color every vertex down to the complete
     state, then (incrementally) undo back — vs rebuilding the chain of
     persistent copies.  One op = a full down-and-up walk. *)
  let depth = Pbqp.Graph.n_alive g in
  let first_legal legal =
    let rec go c = if c >= m then invalid_arg "no legal color" else
      if legal c then c else go (c + 1)
    in
    go 0
  in
  show ~name:(Printf.sprintf "apply chain x%d, persistent copies" depth)
    (measure (fun () ->
         let st = ref (Core.State.of_graph g) in
         for _ = 1 to depth do
           st := Core.State.apply !st (first_legal (Core.State.legal !st))
         done));
  let ist = Core.Istate.of_graph g in
  show ~name:(Printf.sprintf "apply/undo chain x%d, trail" depth)
    (measure (fun () ->
         for _ = 1 to depth do
           Core.Istate.apply ist (first_legal (Core.Istate.legal ist))
         done;
         for _ = 1 to depth do
           Core.Istate.undo ist
         done));
  (* Whole self-play episodes on the trail, k = 12, batched leaf
     evaluation (the tensor inference path, as production self-play runs
     it), without and with a transposition cache: repeated runs of one
     instance under fixed weights hit the cache (MCTS re-searches the
     same positions move after move, run after run), so the per-leaf GCN
     readout collapses to cache lookups and what remains is the state
     machinery. *)
  let cfg =
    {
      Core.Episode.default_config with
      Core.Episode.mcts = { Mcts.default_config with k = 12; batch = 8 };
    }
  in
  let episode ?cache () =
    ignore
      (Core.Episode.play ?cache ~rng:(rng 7) ~net ~mode:Core.Game.Feasibility
         cfg (Core.Istate.of_graph g))
  in
  show ~name:"episode k=12, trail" (measure (episode ?cache:None));
  let cache = Nn.Cache.local ~capacity:4096 in
  let cached = measure (episode ~cache) in
  show ~cache_stats:(Nn.Cache.stats cache) ~name:"episode k=12, trail + cache 4096"
    cached;
  (* Hit-rate sweep over cache capacities: two identical episodes per
     data point (warm-up + measured traffic), counters reset between
     capacities. *)
  List.iter
    (fun capacity ->
      let cache = Nn.Cache.local ~capacity in
      let run = episode ~cache in
      run ();
      let m = measure ~min_time:0.0 ~min_iters:2 run in
      show ~cache_stats:(Nn.Cache.stats cache)
        ~name:(Printf.sprintf "episode k=12, cache sweep cap=%d" capacity)
        m)
    [ 64; 256; 1024; 4096 ]

(* ------------------------------------------------------------------ *)
(* Inference-service benchmarks: the zero-allocation arena forward,
   then self-play episode
   throughput with per-worker batching vs the cross-worker coalescing
   service at 1/2/4/8 domains, normalized to ns per network leaf
   evaluation (counted by Pvnet.eval_count, summed over replicas).
   Service and per-worker episodes are bit-identical at every
   (j, batch, wait) setting — the @serve test alias asserts it — so
   leaf-eval throughput is the only variable.  GC words are main-domain
   only, as in the par group. *)

(* ------------------------------------------------------------------ *)
(* The GEMM ladder at the serve forward's shapes: the boxed
   [float array array] reference the flat tensor core replaced (and the
   hot-boxed-matrix lint now rejects), the flat tiled kernels and the
   packed fused-epilogue kernel.  All kernels compute the same
   ascending-k zero-skip sums, so the rows differ only in storage layout
   and fusion, not arithmetic. *)

let gemm_bench () =
  section "GEMM ladder: boxed reference vs flat tiled vs packed";
  let show ~name m =
    record ~group:"gemm" ~name ~iters:m.m_iters ~ns_per_op:m.m_ns
      ~allocs_per_op:m.m_allocs ~minor_words_per_op:m.m_minor
      ~major_words_per_op:m.m_major ();
    Printf.printf "  %-48s %11.1f ns/op  %9.1f minor w/op\n%!" name m.m_ns
      m.m_minor
  in
  let r = rng 5 in
  (* the readout->trunk GEMM shape of a b=32 serve forward *)
  let b = 32 and k = 96 and n = 32 in
  let a = Tensor.init2 b k (fun _ _ -> Random.State.float r 2.0 -. 1.0) in
  let w = Tensor.init2 n k (fun _ _ -> Random.State.float r 2.0 -. 1.0) in
  let bias = Tensor.init1 n (fun _ -> Random.State.float r 0.5) in
  (* boxed row-pointer reference: one heap block per row, same
     zero-skip inner loop as the flat kernels *)
  let boxed_a =
    Array.init b (fun i -> Array.init k (fun j -> Tensor.get2 a i j))
  in
  let boxed_bt =
    Array.init k (fun kk -> Array.init n (fun j -> Tensor.get2 w j kk))
  in
  let boxed_out = Array.make_matrix b n 0.0 in
  let boxed () =
    for i = 0 to b - 1 do
      let ai = boxed_a.(i) and oi = boxed_out.(i) in
      Array.fill oi 0 n 0.0;
      for kk = 0 to k - 1 do
        let aik = ai.(kk) in
        if aik <> 0.0 then begin
          let bk = boxed_bt.(kk) in
          for j = 0 to n - 1 do
            oi.(j) <- oi.(j) +. (aik *. bk.(j))
          done
        end
      done
    done
  in
  let bt = Tensor.transpose w in
  let out = Tensor.zeros [| b; n |] in
  let packed = Tensor.pack_transposed w in
  show
    ~name:(Printf.sprintf "boxed float array array %dx%dx%d" b k n)
    (measure boxed);
  show ~name:"matmul_naive (flat)"
    (measure (fun () -> ignore (Tensor.matmul_naive a bt)));
  show ~name:"matmul (flat tiled)"
    (measure (fun () -> ignore (Tensor.matmul a bt)));
  show ~name:"matmul_into (flat tiled, no alloc)"
    (measure (fun () -> Tensor.matmul_into out a bt));
  show ~name:"matmul_packed_into (no epilogue)"
    (measure (fun () -> Tensor.matmul_packed_into out a packed));
  show ~name:"matmul_packed_into (fused bias+relu)"
    (measure (fun () ->
         Tensor.matmul_packed_into ~bias ~relu:true out a packed))

(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "Cross-worker inference service (Nn.Infer) at 1/2/4/8 domains";
  Printf.printf
    "host reports %d recommended domain(s); on a 1-core host the pool rows\n\
     measure oversubscription, so the meaningful comparison is service vs\n\
     per-worker at the SAME j, not across j.\n\n"
    (Domain.recommended_domain_count ());
  let show ?(leaves = 1.0) ~name m =
    (* per-leaf numbers, so --compare tracks leaf-eval throughput *)
    record ~group:"serve" ~name ~iters:m.m_iters ~ns_per_op:(m.m_ns /. leaves)
      ~allocs_per_op:(m.m_allocs /. leaves)
      ~minor_words_per_op:(m.m_minor /. leaves)
      ~major_words_per_op:(m.m_major /. leaves) ();
    Printf.printf "  %-46s %9.1f ns/leaf  %9.0f leaf/s  %7.1f minor w/leaf\n%!"
      name (m.m_ns /. leaves)
      (1e9 /. (m.m_ns /. leaves))
      (m.m_minor /. leaves)
  in
  let m = 13 in
  let net = Nn.Pvnet.create ~rng:(rng 1) (Nn.Pvnet.default_config ~m) in
  (* One coalesced 32-leaf arena forward.  Runs on the main domain, so
     the minor-word counter is exact. *)
  let gbig =
    Pbqp.Generate.erdos_renyi ~rng:(rng 2)
      { Pbqp.Generate.default with n = 40; m; p_edge = 0.15 }
  in
  let preps =
    Array.map
      (fun v -> Nn.Pvnet.prepare net gbig ~next:v)
      (Array.of_list
         (List.filteri (fun i _ -> i < 32) (Pbqp.Graph.vertices gbig)))
  in
  let b = float_of_int (Array.length preps) in
  show ~leaves:b ~name:"predict_prepared b=32, scratch arena"
    (measure (fun () -> ignore (Nn.Pvnet.predict_prepared net preps)));
  (* Episode throughput: 8 fixed self-play episodes per op,
     farmed over the pool, per-worker batching vs the service. *)
  let episodes = 8 in
  let graphs =
    Array.init episodes (fun i ->
        Pbqp.Generate.erdos_renyi ~rng:(rng (40 + i))
          { Pbqp.Generate.default with n = 20; m; p_edge = 0.25 })
  in
  let cfg =
    {
      Core.Episode.default_config with
      Core.Episode.mcts = { Mcts.default_config with k = 12; batch = 8 };
    }
  in
  let run pool replicas serve () =
    ignore
      (Par.Pool.map pool (Array.init episodes Fun.id) ~f:(fun ~worker i ->
           Core.Episode.play ?serve ~rng:(rng (70 + i))
             ~net:replicas.(worker) ~mode:Core.Game.Feasibility cfg
             (Core.Istate.of_graph graphs.(i))))
  in
  List.iter
    (fun j ->
      let pool = Par.Pool.create ~domains:j in
      let nw = Par.Pool.size pool in
      let replicas =
        Array.init nw (fun w -> if w = 0 then net else Nn.Pvnet.clone net)
      in
      (* episodes are deterministic, so one counted run fixes the
         per-op leaf total for both variants at every j *)
      Array.iter Nn.Pvnet.reset_eval_count replicas;
      run pool replicas None ();
      let leaves =
        float_of_int
          (Array.fold_left (fun a r -> a + Nn.Pvnet.eval_count r) 0 replicas)
      in
      show ~leaves
        ~name:(Printf.sprintf "episodes x%d j=%d per-worker (b=8)" episodes j)
        (measure (run pool replicas None));
      let srv = Nn.Infer.create ~max_batch:32 ~wait_us:200 ~workers:nw () in
      show ~leaves
        ~name:(Printf.sprintf "episodes x%d j=%d service (b<=32)" episodes j)
        (measure (run pool replicas (Some srv)));
      let s = Nn.Infer.stats srv in
      if s.Nn.Infer.batches > 0 then
        Printf.printf
          "      service: %d batches (%d full, %d quorum, %d timeout), %.1f \
           rows/batch, largest %d, queue wait p50/p99 %.0f/%.0f us\n\
           %!"
          s.Nn.Infer.batches s.Nn.Infer.full_flushes s.Nn.Infer.quorum_flushes
          s.Nn.Infer.timeout_flushes
          (float_of_int s.Nn.Infer.rows /. float_of_int s.Nn.Infer.batches)
          s.Nn.Infer.max_batch_rows s.Nn.Infer.wait_p50_us
          s.Nn.Infer.wait_p99_us;
      Par.Pool.shutdown pool)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Static analysis over the repo's own sources (lib/analyze): the wall
   cost of the @analyze CI gate — parse every .ml under lib/ and bin/,
   build the symbol registry and run all three rule families.  Skipped
   when the source tree is not visible from the cwd. *)

let analyze_bench () =
  section "Static analysis (pbqp_analyze over lib/ + bin/)";
  if not (Sys.file_exists "lib" && Sys.file_exists "bin") then
    Printf.printf "  skipped: ./lib and ./bin not visible from the cwd\n"
  else begin
    let roots = [ "lib"; "bin" ] in
    let warm = Analyze.run ~roots in
    let iters = 5 in
    let (), dt =
      time_it (fun () ->
          for _ = 1 to iters do
            ignore (Analyze.run ~roots)
          done)
    in
    let ns = dt /. float_of_int iters *. 1e9 in
    record ~group:"analyze" ~name:"whole-repo pass (lib+bin)" ~iters
      ~ns_per_op:ns ~allocs_per_op:0.0 ();
    Printf.printf "  %d files, %d findings, %.1f ms per pass (%d passes)\n%!"
      warm.Analyze.files
      (List.length warm.Analyze.findings)
      (ns /. 1e6) iters
  end

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
        ~allocs_per_op:0.0
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
(* The allocation daemon (Serve.Daemon over a real Unix socket):
   requests/s, p50/p99 latency, and leaf-evals/s at 1/4/16 concurrent
   clients, for coalesced serving (shared Nn.Infer batches + shared
   striped cache) against the per-request ablation (--no-coalesce:
   process-per-request semantics, nothing shared).  The acceptance gate
   — coalesced >= 1.5x the ablation's requests/s at 4+ clients, and a
   mean coalesced batch size > 1 — is evaluated WITHIN one run, so host
   speed cancels; failures are collected here and only flunk the
   process after --json/--compare have written their outputs. *)

let gate_failures : string list ref = ref []

let daemon_bench () =
  section
    "Allocation service (pbqp_serve): coalesced vs per-request at 1/4/16 \
     clients";
  let m = 13 in
  let net = Nn.Pvnet.create ~rng:(rng 11) (Nn.Pvnet.default_config ~m) in
  (* a small rotation of distinct instances, revisited across requests:
     the steady-state shape a compile server sees (recompiles of the
     same functions), which is what the shared version-stamped cache
     and cross-request batches exploit *)
  let n_graphs = 12 in
  let bodies =
    Array.init n_graphs (fun i ->
        Pbqp.Io.to_string
          (Pbqp.Generate.erdos_renyi ~rng:(rng (300 + i))
             { Pbqp.Generate.default with n = 10 + (i mod 4); m; p_edge = 0.3 }))
  in
  let params = { Serve.Wire.default_params with solver = "rl"; k = 6 } in
  (* 96 requests over 12 instances = 8 visits each: enough steady
     state that the shared cache/batches, not the cold first pass,
     set the throughput *)
  let total = 96 in
  let run_scenario ~coalesce ~clients =
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "pbqp_bench_%d_%b_%d.sock" (Unix.getpid ()) coalesce
           clients)
    in
    (try Unix.unlink sock with Unix.Unix_error _ -> ());
    let config =
      { Serve.Daemon.default_config with socket_path = sock; workers = 2;
        queue_cap = 256; coalesce }
    in
    let t = Serve.Daemon.create ~config (Nn.Pvnet.clone net) in
    let d = Domain.spawn (fun () -> Serve.Daemon.run t) in
    let per = total / clients in
    let lats = Array.make total 0.0 in
    let t0 = Unix.gettimeofday () in
    let drivers =
      Array.init clients (fun ci ->
          Domain.spawn (fun () ->
              let c = Serve.Client.connect_unix sock in
              Fun.protect
                ~finally:(fun () -> Serve.Client.close c)
                (fun () ->
                  for r = 0 to per - 1 do
                    let body = bodies.((ci + (r * clients)) mod n_graphs) in
                    let u0 = Unix.gettimeofday () in
                    (match
                       Serve.Client.request c (Serve.Wire.Pbqp (params, body))
                     with
                    | Ok (Serve.Wire.Solution _) -> ()
                    | Ok _ -> failwith "daemon_bench: unexpected reply kind"
                    | Error e -> failwith ("daemon_bench: " ^ e));
                    lats.((ci * per) + r) <- Unix.gettimeofday () -. u0
                  done)))
    in
    Array.iter Domain.join drivers;
    let wall = Unix.gettimeofday () -. t0 in
    let stats =
      let c = Serve.Client.connect_unix sock in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          match Serve.Client.request c Serve.Wire.Stats with
          | Ok (Serve.Wire.Stats_reply kvs) -> kvs
          | _ -> [])
    in
    Serve.Daemon.stop t;
    Domain.join d;
    Array.sort compare lats;
    let pct p = lats.(min (total - 1) (p * total / 100)) in
    let kv key = Option.value ~default:"0" (List.assoc_opt key stats) in
    ( wall,
      pct 50 *. 1e3,
      pct 99 *. 1e3,
      float_of_string (kv "eval_count") /. wall,
      float_of_string (kv "infer_rows_per_batch"),
      float_of_string (kv "cache_hit_rate"),
      float_of_string (kv "infer_wait_p50_us"),
      float_of_string (kv "infer_wait_p99_us"),
      ( kv "infer_full_flushes",
        kv "infer_quorum_flushes",
        kv "infer_timeout_flushes" ) )
  in
  let results = Hashtbl.create 8 in
  List.iter
    (fun clients ->
      List.iter
        (fun coalesce ->
          let name =
            Printf.sprintf "%s C=%d"
              (if coalesce then "coalesced" else "per-request")
              clients
          in
          let wall, p50, p99, evals_s, rpb, hit_rate, w50, w99, flushes =
            run_scenario ~coalesce ~clients
          in
          let rps = float_of_int total /. wall in
          Hashtbl.replace results (coalesce, clients) (rps, rpb);
          (* leaf_evals_per_s counts network forwards only; coalesced
             rows also share an evaluation cache that short-circuits
             repeat leaves entirely, so a LOWER forwards/s with a high
             cache_hit_rate is the service doing less work per request,
             not running slower — always read the two together *)
          record ~group:"daemon" ~name ~iters:total
            ~ns_per_op:(wall /. float_of_int total *. 1e9)
            ~allocs_per_op:0.0
            ~extra:
              [
                ("rps", rps);
                ("p50_ms", p50);
                ("p99_ms", p99);
                ("leaf_evals_per_s", evals_s);
                ("cache_hit_rate", hit_rate);
                ("rows_per_batch", rpb);
                ("infer_wait_p50_us", w50);
                ("infer_wait_p99_us", w99);
              ]
            ();
          Printf.printf
            "  %-18s %7.1f req/s  p50 %7.2f ms  p99 %7.2f ms  %8.0f leaf/s  \
             (%.0f%% cache)  %5.2f rows/batch  wait p50/p99 %.0f/%.0f us\n\
             %!"
            name rps p50 p99 evals_s (hit_rate *. 100.0) rpb w50 w99;
          if coalesce then begin
            let full, quorum, timeout = flushes in
            Printf.printf
              "  %-18s flushes: %s full, %s quorum, %s timeout\n%!" ""
              full quorum timeout
          end)
        [ false; true ])
    [ 1; 4; 16 ];
  List.iter
    (fun clients ->
      match
        ( Hashtbl.find_opt results (true, clients),
          Hashtbl.find_opt results (false, clients) )
      with
      | Some (crps, rpb), Some (arps, _) ->
          let speedup = crps /. arps in
          Printf.printf
            "  C=%d: coalesced is %.2fx per-request (gate >= 1.50x), %.2f \
             rows/batch (gate > 1)\n\
             %!"
            clients speedup rpb;
          if speedup < 1.5 then
            gate_failures :=
              Printf.sprintf
                "daemon C=%d: coalesced %.2fx per-request requests/s, below \
                 the 1.5x gate"
                clients speedup
              :: !gate_failures;
          if rpb <= 1.0 then
            gate_failures :=
              Printf.sprintf
                "daemon C=%d: mean coalesced batch size %.2f, gate needs > 1"
                clients rpb
              :: !gate_failures
      | _ -> ())
    [ 4; 16 ]

(* ------------------------------------------------------------------ *)
(* Distributed actor/learner self-play (lib/dist): whole training runs
   with domain-hosted actors over socketpairs — the same Frame wire
   protocol as the subprocess topology, minus fork/exec.  On this
   1-core bench host the actor domains oversubscribe the core, so the
   actors=2/4 rows measure protocol + framing overhead under
   contention, NOT parallel speedup; the meaningful comparison is
   actors=1 vs in-process, which is bit-identical by construction
   (test_dist asserts it), so that row IS the determinism overhead of
   distribution: snapshot broadcasts, sample framing, hub pumping. *)

let dist_bench () =
  section "Distributed self-play (lib/dist): in-process vs actors=1/2/4";
  Printf.printf
    "host reports %d recommended domain(s); on a 1-core host the actor\n\
     rows measure wire/protocol overhead, not parallel speedup.\n\
     actors=1 is bit-identical to the in-process loop (test_dist), so\n\
     wall_vs_in_process on that row is pure distribution overhead.\n\n"
    (Domain.recommended_domain_count ());
  let m = 8 in
  let iterations = 2 and episodes = 8 and batches = 4 in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = episodes;
      domains = 1;
      mcts = { Mcts.default_config with k = 8 };
      net =
        { (Nn.Pvnet.default_config ~m) with trunk_width = 16;
          trunk_blocks = 1; gcn_layers = 2 };
      n_mean = 12.0;
      n_stddev = 2.0;
      arena_games = 2;
      batches_per_iteration = batches;
      batch_size = 16;
    }
  in
  let run_once ~actors =
    let samples = ref 0 in
    let on_iteration p = samples := p.Core.Train.replay_size in
    let (), wall =
      time_it (fun () ->
          let net =
            match actors with
            | 0 -> Core.Train.run ~on_iteration ~rng:(rng 7) cfg
            | n ->
                let launch, join = Dist.Spawn.domains ~config:cfg in
                Core.Train.run ~on_iteration
                  ~make_source:
                    (Dist.Learner.source ~config:cfg ~actors:n
                       ~on_shutdown:join ~launch ())
                  ~rng:(rng 7) cfg
          in
          ignore (net : Nn.Pvnet.t))
    in
    (wall, !samples)
  in
  let baseline = ref 0.0 in
  List.iter
    (fun actors ->
      let wall, samples = run_once ~actors in
      let name =
        if actors = 0 then "in-process (actors=0)"
        else Printf.sprintf "actors=%d (domain-hosted)" actors
      in
      let samples_s = float_of_int samples /. wall in
      let steps_s = float_of_int (iterations * batches) /. wall in
      if actors = 0 then baseline := wall;
      let overhead = if !baseline > 0.0 then wall /. !baseline else 1.0 in
      record ~group:"dist" ~name ~iters:iterations
        ~ns_per_op:(wall /. float_of_int iterations *. 1e9)
        ~allocs_per_op:0.0
        ~extra:
          [
            ("samples_per_s", samples_s);
            ("learner_steps_per_s", steps_s);
            ("wall_vs_in_process", overhead);
          ]
        ();
      Printf.printf
        "  %-26s %6.2f s  %8.1f samples/s  %6.2f step/s  %5.2fx in-process\n\
         %!"
        name wall samples_s steps_s overhead)
    [ 0; 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* --compare OLD.json: after the selected groups have run, diff the
   freshly recorded rows against a previous --json file (matched by
   (group, name)) and exit non-zero on any >25% ns/op regression.  The
   parser is line-based over the bench's own output format — no JSON
   dependency. *)

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
  section (Printf.sprintf "compare vs %s (fail on ns/op > 1.25x)" path);
  let regressed = ref 0 and matched = ref 0 in
  List.iter
    (fun r ->
      match List.assoc_opt (r.r_group, r.r_name) old_rows with
      | Some old_ns when old_ns > 0.0 && r.r_ns > 0.0 ->
          incr matched;
          let ratio = r.r_ns /. old_ns in
          if ratio > 1.25 then begin
            incr regressed;
            Printf.printf "  %-52s %12.1f -> %12.1f ns/op  %.2fx REGRESSION\n"
              (r.r_group ^ "/" ^ r.r_name)
              old_ns r.r_ns ratio
          end
          else
            Printf.printf "  %-52s %12.1f -> %12.1f ns/op  %.2fx\n"
              (r.r_group ^ "/" ^ r.r_name)
              old_ns r.r_ns ratio
      | _ -> ())
    (List.rev !json_results);
  if !matched = 0 then
    Printf.printf "  (no rows of this run matched %s)\n" path;
  if !regressed > 0 then begin
    Printf.eprintf "%d throughput regression(s) > 25%% vs %s\n" !regressed path;
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
  | "micro" -> micro ()
  | "batch" -> batching ()
  | "par" -> par_bench ()
  | "incr" -> incr_bench ()
  | "gemm" -> gemm_bench ()
  | "serve" -> serve_bench ()
  | "analyze" -> analyze_bench ()
  | "gap" -> gap_bench ()
  | "daemon" -> daemon_bench ()
  | "dist" -> dist_bench ()
  | "all" ->
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      ext ();
      micro ();
      batching ();
      par_bench ();
      incr_bench ();
      gemm_bench ();
      serve_bench ();
      analyze_bench ();
      gap_bench ();
      daemon_bench ();
      dist_bench ()
  | other ->
      Printf.eprintf
        "unknown experiment %S (e1..e6, ext, micro, batch, par, incr, gemm, \
         serve, analyze, gap, daemon, dist, all)\n"
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
  (* the daemon acceptance gate flunks last, AFTER --json/--compare
     have written their outputs, so a failing run still leaves the
     numbers behind for inspection *)
  (match List.rev !gate_failures with
  | [] -> ()
  | fails ->
      List.iter (fun f -> Printf.eprintf "GATE FAIL: %s\n" f) fails;
      exit 1);
  Printf.printf "\ntotal wall time: %.0fs\n" (Unix.gettimeofday () -. t0)
