(* selfplay_train: Core.Train.run with the bin/train defaults (m = 13, 12
   episodes per iteration, k = 25, n ~ 20, 2 domains) plus eval_cache =
   4096 and serve_batch = 16, both documented as bitwise-neutral.  The
   only workload with backward passes, Adam, replay and the arena; it
   also uses the cache differently from serving: every optimizer step
   bumps Pvnet.version, so entries die young and stores outnumber hits. *)

open Common

let domains = 2
let min_iterations = 3

(* The bin/train defaults, built the way bin/train builds them. *)
let config () =
  let m = 13 in
  let n_mean = 20.0 in
  {
    (Core.Train.default_config ~m) with
    iterations = max_int;
    episodes_per_iteration = 12;
    graph =
      { Pbqp.Generate.default with m; p_edge = 0.2; p_inf = 0.01;
        zero_inf = false; cost_max = 30.0 };
    n_mean;
    n_stddev = n_mean /. 4.0;
    mcts = { Mcts.default_config with k = 25 };
    domains;
    eval_cache = 4096;
    serve_batch = 16;
  }

exception Time_up

(* Set-up: what Train.run builds before its first iteration (the pool
   and both nets), plus one warm self-play episode on the calling
   domain.  The same work for every seed. *)
let setup cfg =
  let pool = Par.Pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let rng = Random.State.make [| 0 |] in
      let best = Nn.Pvnet.create ~rng cfg.Core.Train.net in
      let current = Nn.Pvnet.clone best in
      ignore
        (Core.Train.self_play_episode ~rng ~best ~current cfg
          : Nn.Pvnet.sample list * bool))

(* A replay tuple is well-formed when its policy is a distribution over
   the net's colors and its value one of the three rewards. *)
let sample_ok m (s : Nn.Pvnet.sample) =
  Array.length s.policy = m
  && Float.abs (Array.fold_left ( +. ) 0.0 s.policy -. 1.0) < 1e-6
  && List.mem s.value [ -1.0; 0.0; 1.0 ]

let run ~seed ~seconds ~tr =
  let cfg = config () in
  let setups =
    Array.init setups (fun _ -> snd (time (fun () -> setup cfg)))
  in
  let iter_s = ref [] and progress = ref [] in
  let t0 = now () in
  let last = ref t0 in
  let on_iteration (p : Core.Train.progress) =
    let t = now () in
    Option.iter
      (fun tr ->
        ignore (Trace.record tr ~op:p.iteration ~start:!last ~stop:t "train.iteration" : int))
      tr;
    iter_s := (t -. !last) :: !iter_s;
    progress := p :: !progress;
    last := t;
    if p.iteration >= min_iterations && t -. t0 >= float_of_int seconds then
      raise Time_up
  in
  (try
     ignore
       (Core.Train.run ~on_iteration ~rng:(Random.State.make [| seed |]) cfg
         : Nn.Pvnet.t)
   with Time_up -> ());
  let timed_s = !last -. t0 in
  let iterations = List.length !progress in
  let final = List.hd !progress in
  (* --- checks: every iteration ends with a finite loss and a non-empty
     replay --- *)
  let t = tally () in
  let failed_episodes = ref 0 in
  List.iter
    (fun (p : Core.Train.progress) ->
      failed_episodes := !failed_episodes + p.episodes_failed;
      let ok = Float.is_finite p.mean_loss && p.replay_size > 0 in
      count t ~ok ~wrong:(not ok))
    !progress;
  let episodes = iterations * cfg.episodes_per_iteration in
  let iter_ms = Array.of_list (List.map (fun s -> 1000.0 *. s) !iter_s) in
  let end_to_end =
    [
      ("setup_s", median setups);
      ("peak_rss_mb", self_peak_rss_mb ());
      ("op_p50_ms", median iter_ms);
      ("op_tail_ms", tail iter_ms);
      ("ops_per_s", float_of_int final.replay_size /. timed_s);
      ( "solved_frac",
        float_of_int (episodes - !failed_episodes) /. float_of_int episodes );
    ]
  in
  (* Isolated calls on the workload's config and a seeded episode
     stream: episodes two at a time on a 2-domain pool with shared
     caches and inference services (as Train.run plays them), then
     data-parallel train steps on their tuples. *)
  let layers () =
    let pool = Par.Pool.create ~domains in
    Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
    let rng = Random.State.make [| seed; 4 |] in
    let best = Nn.Pvnet.create ~rng cfg.net in
    let current = Nn.Pvnet.clone best in
    let bests = [| best; Nn.Pvnet.clone best |] in
    let currents = [| current; Nn.Pvnet.clone current |] in
    let cache () = Nn.Cache.striped ~stripes:cfg.cache_stripes ~capacity:cfg.eval_cache in
    let best_cache = cache () and current_cache = cache () in
    let serve () =
      Nn.Infer.create ~max_batch:cfg.serve_batch ~wait_us:cfg.serve_wait_us
        ~workers:domains ()
    in
    let best_serve = serve () and current_serve = serve () in
    let episodes = 8 in
    let rngs = Array.init episodes (fun _ -> Random.State.split rng) in
    let evals () = Array.fold_left (fun a n -> a + Nn.Pvnet.eval_count n) 0 (Array.append bests currents) in
    let e0 = evals () in
    let results =
      Par.Pool.map pool (Array.init episodes Fun.id) ~f:(fun ~worker i ->
          let r, dt =
            time (fun () ->
                Core.Train.self_play_episode ~rng:rngs.(i) ~best:bests.(worker)
                  ~current:currents.(worker) ~best_cache ~current_cache
                  ~best_serve ~current_serve cfg)
          in
          (r, dt))
    in
    let episode_evals = evals () - e0 in
    Option.iter
      (fun t ->
        let s = now () in
        Array.iteri
          (fun i (_, dt) ->
            ignore (Trace.record t ~op:(-1 - i) ~start:(s -. dt) ~stop:s "train.episode" : int))
          results)
      tr;
    let samples = List.concat_map (fun ((ss, _), _) -> ss) (Array.to_list results) in
    if not (List.for_all (sample_ok cfg.net.m) samples) then
      note "selfplay_train: malformed replay tuple from an isolated episode";
    let opt = Nn.Adam.create cfg.adam in
    let batch = List.filteri (fun i _ -> i < cfg.batch_size) samples in
    let steps = 6 in
    let step_s =
      Array.init steps (fun _ ->
          snd
            (time (fun () ->
                 Trace.span tr ~op:(-1) "pvnet.train_step" (fun () ->
                     ignore
                       (Nn.Pvnet.train_batch_parallel ~pool ~replicas:currents
                          current opt batch
                         : float)))))
    in
    let cache_stats =
      List.map Nn.Cache.stats [ best_cache; current_cache ]
    in
    let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 cache_stats) in
    let hits = sum (fun s -> s.Nn.Evalcache.hits) in
    let lookups = hits +. sum (fun s -> s.Nn.Evalcache.misses) in
    let infer = List.map Nn.Infer.stats [ best_serve; current_serve ] in
    let isum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 infer) in
    let batches = isum (fun s -> s.Nn.Infer.batches) in
    let rows_per_batch = ratio (isum (fun s -> s.Nn.Infer.rows)) batches in
    let wait f = List.fold_left (fun a s -> Float.max a (f s)) 0.0 infer in
    (* search: Solver.minimize with the training search budget on graphs
       of the training distribution *)
    let grng = Random.State.make [| seed; 5 |] in
    let graphs =
      List.init 6 (fun _ ->
          let n =
            Pbqp.Generate.sample_n ~rng:grng ~mean:cfg.n_mean ~stddev:cfg.n_stddev
              ~min:cfg.n_min
          in
          Pbqp.Generate.erdos_renyi ~rng:grng { cfg.graph with n })
    in
    let sr = Probe.search () in
    List.iteri
      (fun i g ->
        ignore
          (Probe.solve sr tr ~net:best ~op:i (fun () ->
               Core.Solver.minimize ~net:best ~mcts:cfg.mcts g)
            : (Pbqp.Solution.t * Pbqp.Cost.t) option))
      graphs;
    let prepare_us, preps = Probe.prepare_us tr best (Probe.path_states ~order:Core.Order.Decreasing_liberty graphs) in
    let trunk_us =
      Probe.trunk_us_per_row tr best preps
        ~batch:(int_of_float (Float.round rows_per_batch))
    in
    [
      ("infer.rows_per_batch", rows_per_batch);
      ("infer.wait_p50_us", wait (fun s -> s.Nn.Infer.wait_p50_us));
      ("infer.wait_p99_us", wait (fun s -> s.Nn.Infer.wait_p99_us));
      ("infer.timeout_flush_frac",
        ratio (isum (fun s -> s.Nn.Infer.timeout_flushes)) batches);
      ("cache.hit_rate", ratio hits lookups);
      ("cache.lookups", lookups);
      ("cache.evictions", sum (fun s -> s.Nn.Evalcache.evictions));
      ("pvnet.evals_per_op", float_of_int episode_evals /. float_of_int episodes);
      ("pvnet.train_step_ms", 1000.0 *. median step_s);
      ("scholz.reduce_ms", Probe.reduce_ms tr graphs);
      ("train.episode_ms", 1000.0 *. median (Array.map snd results));
      ("train.episodes_failed", float_of_int !failed_episodes);
      ("train.replay_size", float_of_int final.replay_size);
      ("train.iterations", float_of_int iterations);
    ]
    @ Probe.search_layers sr ~prepare_us ~trunk_us
  in
  ( { correct = t.wrong = 0; attempted = t.attempted; failed = t.failed;
      end_to_end; timed_s },
    layers )
