open Pbqp

type config = {
  iterations : int;
  episodes_per_iteration : int;
  graph : Generate.config;
  n_mean : float;
  n_stddev : float;
  n_min : int;
  mcts : Mcts.config;
  net : Nn.Pvnet.config;
  adam : Nn.Adam.config;
  batch_size : int;
  batches_per_iteration : int;
  replay_capacity : int;
  arena_games : int;
  arena_wins_needed : int;
  temperature_moves : int;
  shaping : float;
  planted : bool;
  reset_on_reject : bool;
  instance_generator : (rng:Random.State.t -> Pbqp.Graph.t) option;
  domains : int;
  checkpoint : string option;
  check : bool;
  eval_cache : int;
  serve_batch : int;
  serve_wait_us : int;
  cache_stripes : int;
  pretrain_labels : string option;
}

let default_config ~m =
  {
    iterations = 4;
    episodes_per_iteration = 12;
    graph =
      { Generate.default with m; p_edge = 0.25; p_inf = 0.01; cost_max = 10. };
    n_mean = 14.0;
    n_stddev = 3.0;
    n_min = 4;
    mcts = { Mcts.default_config with k = 24 };
    net =
      { (Nn.Pvnet.default_config ~m) with trunk_width = 32; trunk_blocks = 2 };
    adam = Nn.Adam.default_config;
    batch_size = 32;
    batches_per_iteration = 12;
    replay_capacity = 20_000;
    arena_games = 10;
    arena_wins_needed = 5;
    temperature_moves = 6;
    shaping = 5.0;
    planted = false;
    reset_on_reject = false;
    instance_generator = None;
    domains = 1;
    checkpoint = None;
    check = false;
    eval_cache = 0;
    serve_batch = 0;
    serve_wait_us = 200;
    cache_stripes = 8;
    pretrain_labels = None;
  }

type progress = {
  iteration : int;
  mean_loss : float;
  arena_wins : int;
  arena_ties : int;
  kept : bool;
  replay_size : int;
  episodes_failed : int;
}

let random_graph ~rng config =
  match config.instance_generator with
  | Some f -> f ~rng
  | None ->
      let n =
        Generate.sample_n ~rng ~mean:config.n_mean ~stddev:config.n_stddev
          ~min:config.n_min
      in
      let gcfg = { config.graph with Generate.n } in
      if config.planted then fst (Generate.planted ~rng gcfg)
      else Generate.erdos_renyi ~rng gcfg

(* Search guidance: compare against the Scholz cost of this graph, shaped
   so that near-misses still rank (see .mli). *)
let search_mode config g =
  if config.graph.Generate.zero_inf then Game.Feasibility
  else
    let _, ref_cost, _ = Solvers.Scholz.solve_with_cost g in
    let reference = if Cost.is_finite ref_cost then ref_cost else Cost.inf in
    Game.Minimize { reference; shaping = config.shaping }

let play_once ?(collect = false) ?cache ?serve ~rng ~net ~temperature_moves
    config g =
  let mode = search_mode config g in
  let ist = Istate.of_graph g in
  (* AlphaZero-style: the training run explores with Dirichlet root noise;
     inference runs (temperature 0) play clean *)
  let root_noise = if temperature_moves > 0 then Some (0.25, 0.5) else None in
  Episode.play ~collect ?cache ?serve ~rng ~net ~mode
    { Episode.mcts = config.mcts; temperature_moves; root_noise }
    ist

(* With [config.check]: certify an episode's claim against the original
   graph — the solution must be admissible and its recomputed cost must
   equal the cost the episode reports.  A violation is a solver bug, so
   training aborts loudly rather than learning from corrupt labels. *)
let certify_outcome config who g (outcome : Episode.outcome) =
  if config.check then
    match outcome.Episode.solution with
    | None -> ()
    | Some sol ->
        let reported = outcome.Episode.cost in
        let findings =
          if Cost.is_finite reported then
            Check.Certify.solution ~reported g sol
          else Check.Certify.solution g sol
        in
        if Check.Diag.has_errors findings then
          failwith
            (Printf.sprintf "Train: %s episode failed certification:\n%s" who
               (Check.Diag.to_string (Check.Diag.errors_only findings)))

let compare_costs current best =
  if Cost.compare current best < 0 then 1.0
  else if Cost.compare current best > 0 then -1.0
  else 0.0

let checkpoint_paths prefix =
  ( prefix ^ ".best.ckpt",
    prefix ^ ".current.ckpt",
    prefix ^ ".replay.txt",
    prefix ^ ".opt.ckpt" )

let dist_state_path prefix = prefix ^ ".dist.txt"

(* --- episode rng discipline (shared with the distributed trainer) ----- *)

(* Per-episode rngs come from per-actor split streams rooted in a
   manifest seed: actor [i]'s root is the (i+1)-th sequential
   [Random.State.split] of [Random.State.make [|seed|]], and episode G
   (global index) uses split #((G - i) / actors) of the root of actor
   [G mod actors].  The in-process trainer IS the actors=1 topology —
   it draws its episode rngs as successive splits of actor 0's root —
   which is what makes a [--actors 1] distributed run sample-for-sample
   equal to it by construction, and an N-actor run reproducible from
   (seed, N) alone. *)
let actor_root ~manifest_seed actor =
  if actor < 0 then invalid_arg "Train.actor_root: negative actor id";
  let mrng = Random.State.make [| manifest_seed |] in
  let root = ref (Random.State.split mrng) in
  for _ = 1 to actor do
    root := Random.State.split mrng
  done;
  !root

(* One self-play episode: the candidate plays (collecting) against the
   best player's cost on the same graph; returns the stamped training
   tuples and whether the candidate failed to finish.  Safe to run as a
   pool task — or in an actor process — given private net replicas and a
   private rng.  Caches and serving are bitwise-neutral (they return
   what the net would compute), so a plain uncached call produces the
   same tuples as the learner's cached, coalescing configuration. *)
let self_play_episode ?best_cache ?current_cache ?best_serve ?current_serve
    ~rng ~best ~current config =
  let g = random_graph ~rng config in
  let best_outcome, _ =
    play_once ?cache:best_cache ?serve:best_serve ~rng ~net:best
      ~temperature_moves:0 config g
  in
  let cur_outcome, samples =
    play_once ~collect:true ?cache:current_cache ?serve:current_serve ~rng
      ~net:current ~temperature_moves:config.temperature_moves config g
  in
  certify_outcome config "best" g best_outcome;
  certify_outcome config "current" g cur_outcome;
  (* In the no-spill (0/∞) setting the game is feasibility: finishing is
     the win condition itself, so the label is absolute.  In the general
     setting the label is the paper's comparison against the best
     player. *)
  let z =
    if config.graph.Generate.zero_inf then
      Game.reward Game.Feasibility cur_outcome.Episode.cost
    else compare_costs cur_outcome.Episode.cost best_outcome.Episode.cost
  in
  (Episode.set_values z samples, cur_outcome.Episode.solution = None)

(* --- episode/replay source ------------------------------------------- *)

type episode_result = {
  er_samples : Nn.Pvnet.sample list;
  er_failed : bool;
  er_generation : int;
  er_origin : int;
}

type source = {
  src_pipeline : int;
  src_broadcast : generation:int -> unit;
  src_dispatch : iteration:int -> unit;
  src_collect : iteration:int -> episode_result array;
  src_add : episode_result array -> unit;
  src_seed : Nn.Pvnet.sample list -> unit;
  src_sample :
    rng:Random.State.t -> int -> Nn.Pvnet.sample list * float array option;
  src_length : unit -> int;
  src_save : string -> unit;
  src_load : string -> unit;
  src_shutdown : unit -> unit;
}

let run ?(on_iteration = fun _ -> ()) ?make_source ~rng config =
  (* resume from a checkpoint prefix when the three original files exist
     (the optimizer file is optional for back-compat with older runs) *)
  let resume =
    match config.checkpoint with
    | Some prefix ->
        let b, c, r, _ = checkpoint_paths prefix in
        if Sys.file_exists b && Sys.file_exists c && Sys.file_exists r then
          Some (Nn.Pvnet.load b, Nn.Pvnet.load c)
        else None
    | None -> None
  in
  let best, current =
    match resume with
    | Some (b, c) -> (b, c)
    | None ->
        let best = Nn.Pvnet.create ~rng config.net in
        (best, Nn.Pvnet.clone best)
  in
  (* The episode-stream manifest (see [actor_root]).  A fresh run draws
     the seed from the main rng at this fixed point — identically in the
     in-process and distributed modes, so both consume the same rng
     prefix.  A resumed run reads the seed and the episode-stream
     position back from the checkpoint (drawing a fresh seed would
     desynchronize both the main rng and the episode streams from an
     uninterrupted run). *)
  let manifest_seed, resume_episodes =
    let resumed =
      match (resume, config.checkpoint) with
      | Some _, Some prefix when Sys.file_exists (dist_state_path prefix) -> (
          let ic = open_in (dist_state_path prefix) in
          let line =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> input_line ic)
          in
          match String.split_on_char ' ' line with
          | [ "manifest"; seed; episodes ] -> (
              match (int_of_string_opt seed, int_of_string_opt episodes) with
              | Some s, Some e -> Some (s, e)
              | _ -> invalid_arg "Train: malformed dist-state checkpoint")
          | _ -> invalid_arg "Train: malformed dist-state checkpoint")
      | _ -> None
    in
    match resumed with
    | Some se -> se
    | None -> (Random.State.bits rng, 0)
  in
  let episodes_collected = ref resume_episodes in
  let opt = Nn.Adam.create config.adam in
  (* Only the current net is ever trained, so its params key the moments. *)
  (match (resume, config.checkpoint) with
  | Some _, Some prefix ->
      let _, _, _, o = checkpoint_paths prefix in
      if Sys.file_exists o then
        Nn.Adam.load opt ~params:(Nn.Pvnet.params current) o
  | _ -> ());
  (* One persistent pool for the whole run: self-play episodes, the
     data-parallel gradient step and arena games all share it, instead
     of paying a [Domain.spawn] + net re-clone per iteration. *)
  let pool = Par.Pool.create ~domains:config.domains in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let nw = Par.Pool.size pool in
  (* Per-worker net replicas (a net's arena, which holds the instance
     encoding and buffers of its inference forward, is single-owner),
     allocated once for the whole run.  Worker 0 is the
     submitting domain and uses the real nets; workers >= 1 get clones
     refreshed in place — and only when the source weights actually
     changed, which the version counters below track. *)
  let bests =
    Array.init nw (fun w -> if w = 0 then best else Nn.Pvnet.clone best)
  in
  let currents =
    Array.init nw (fun w -> if w = 0 then current else Nn.Pvnet.clone current)
  in
  (* One shared evaluation cache per net role, striped over mutex-guarded
     shards when the pool has several workers (one stripe, the plain LRU,
     at nw = 1) — a position solved by one worker is a hit for every
     other.  Sharing cannot perturb results: hits return bitwise what the
     network would compute under the same weights version, so only the
     hit/miss counters — never run outputs — depend on the task→worker
     mapping.  Version stamps make entries from pre-step weights
     self-invalidating; the promotion/reset [sync]s below copy stamps with
     weights, so no explicit clearing is needed. *)
  let make_cache () =
    if config.eval_cache > 0 then
      Some
        (Nn.Cache.striped
           ~stripes:(if nw > 1 then max 1 config.cache_stripes else 1)
           ~capacity:config.eval_cache)
    else None
  in
  let best_cache = make_cache () and current_cache = make_cache () in
  (* Two inference services, one per net role, so a coalesced batch never
     mixes best-player and candidate leaves: within a pool region each
     role's tickets all carry the same weights version (versions only
     move between regions), which is what lets the server drain a FIFO
     prefix.  Workers' waves coalesce into larger trunk/head GEMMs; the
     floating-server protocol (Nn.Infer) keeps results bit-identical to
     per-worker batching. *)
  let make_serve () =
    if config.serve_batch > 0 then
      Some
        (Nn.Infer.create ~max_batch:config.serve_batch
           ~wait_us:config.serve_wait_us ~workers:nw ())
    else None
  in
  let best_serve = make_serve () and current_serve = make_serve () in
  let best_version = ref 0 and current_version = ref 0 in
  let bver = Array.make nw 0 and cver = Array.make nw 0 in
  let refresh_replicas () =
    for w = 1 to nw - 1 do
      if bver.(w) <> !best_version then begin
        Nn.Pvnet.copy_into ~src:best ~dst:bests.(w);
        bver.(w) <- !best_version
      end;
      if cver.(w) <> !current_version then begin
        Nn.Pvnet.copy_into ~src:current ~dst:currents.(w);
        cver.(w) <- !current_version
      end
    done
  in
  (* Per-task rng derivation: split one child stream per episode/game off
     the main stream, sequentially, on the submitting domain.  Unlike
     seeding from [Random.State.int] draws, split streams cannot collide,
     and keying them by task index (not worker index) makes the streams —
     and with the fixed merge order below, the whole run — independent of
     [config.domains] and of scheduling. *)
  let split_rngs n = Array.init n (fun _ -> Random.State.split rng) in
  let indices n = Array.init n (fun i -> i) in
  (* An arena round: each game generates its own graph from its own split
     stream and pits the two nets at temperature 0; outcomes come back in
     game order. *)
  let arena () =
    refresh_replicas ();
    let rngs = split_rngs config.arena_games in
    Par.Pool.map pool (indices config.arena_games) ~f:(fun ~worker i ->
        let rng = rngs.(i) in
        let g = random_graph ~rng config in
        let b, _ =
          play_once ?cache:best_cache ?serve:best_serve ~rng
            ~net:bests.(worker) ~temperature_moves:0 config g
        in
        let c, _ =
          play_once ?cache:current_cache ?serve:current_serve ~rng
            ~net:currents.(worker) ~temperature_moves:0 config g
        in
        compare_costs c.Episode.cost b.Episode.cost)
  in
  (* --- episode/replay source --- *)
  (* The in-process default source plays episodes on the run's own pool
     and stores them in a plain [Replay] ring: the actors=1 topology of
     the distributed trainer, executed inline.  [make_source] (the
     distributed learner) swaps in actor processes and a sharded replay
     behind the same interface; the iteration loop below is shared. *)
  let in_process_source () =
    let root = actor_root ~manifest_seed 0 in
    for _ = 1 to resume_episodes do
      ignore (Random.State.split root : Random.State.t)
    done;
    let replay = ref (Replay.create ~capacity:config.replay_capacity) in
    {
      src_pipeline = 0;
      src_broadcast = (fun ~generation:_ -> ());
      src_dispatch = (fun ~iteration:_ -> ());
      src_collect =
        (fun ~iteration:_ ->
          refresh_replicas ();
          let rngs =
            Array.init config.episodes_per_iteration (fun _ ->
                Random.State.split root)
          in
          Par.Pool.map pool (indices config.episodes_per_iteration)
            ~f:(fun ~worker i ->
              let samples, failed =
                self_play_episode ~rng:rngs.(i) ~best:bests.(worker)
                  ~current:currents.(worker) ?best_cache ?current_cache
                  ?best_serve ?current_serve config
              in
              {
                er_samples = samples;
                er_failed = failed;
                er_generation = 0;
                er_origin = 0;
              }));
      src_add =
        (fun results ->
          Array.iter (fun r -> Replay.add_list !replay r.er_samples) results);
      src_seed = (fun ss -> Replay.add_list !replay ss);
      src_sample =
        (fun ~rng n -> (Replay.sample_batch ~rng !replay n, None));
      src_length = (fun () -> Replay.length !replay);
      src_save = (fun path -> Replay.save !replay path);
      src_load = (fun path -> replay := Replay.load path);
      src_shutdown = (fun () -> ());
    }
  in
  let source =
    match make_source with
    | Some f ->
        f ~manifest_seed ~resume_episodes ~best ~current
    | None -> in_process_source ()
  in
  Fun.protect ~finally:(fun () -> source.src_shutdown ())
  @@ fun () ->
  (* Replay contents: resumed runs reload the checkpointed buffer;
     fresh runs optionally seed it with supervised pretraining tuples —
     each exact-optimal label expands into one tuple per move, so the
     first gradient batches already train on proven-optimal decisions.
     (Fresh runs only: a resumed replay already contains possibly the
     same data, and re-seeding would break bit-identical resumption.) *)
  (match (resume, config.checkpoint) with
  | Some _, Some prefix ->
      let _, _, r, _ = checkpoint_paths prefix in
      source.src_load r
  | _ -> (
      match config.pretrain_labels with
      | Some path ->
          source.src_seed
            (List.concat_map (fun l -> Labels.to_samples l) (Labels.load path))
      | None -> ()));
  let save_checkpoint () =
    match config.checkpoint with
    | None -> ()
    | Some prefix ->
        let b, c, r, o = checkpoint_paths prefix in
        Nn.Pvnet.save best b;
        Nn.Pvnet.save current c;
        source.src_save r;
        Nn.Adam.save opt ~params:(Nn.Pvnet.params current) o;
        let oc = open_out (dist_state_path prefix) in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            Printf.fprintf oc "manifest %d %d\n" manifest_seed
              !episodes_collected)
  in
  (* Dispatch runs [src_pipeline] iterations ahead of collection — the
     assignment for iteration t+p is sent before the snapshot that
     follows iteration t's optimizer step enters the (FIFO) stream, so
     pipelined episodes are played under weights exactly p generations
     stale: the staleness schedule is part of the message order, not of
     wall-clock scheduling, which keeps pipelined runs bit-reproducible.
     The in-process source pipelines by 0 (episodes run inline). *)
  let dispatched = ref 0 in
  let ensure_dispatched upto =
    while !dispatched < upto do
      incr dispatched;
      source.src_dispatch ~iteration:!dispatched
    done
  in
  for iteration = 1 to config.iterations do
    (* --- self-play data generation --- *)
    source.src_broadcast ~generation:!current_version;
    ensure_dispatched (min (iteration + source.src_pipeline) config.iterations);
    let results = source.src_collect ~iteration in
    (* Merge in episode order: replay contents and [episodes_failed] are
       reproducible for a fixed seed regardless of scheduling. *)
    let episodes_failed = ref 0 in
    Array.iter (fun r -> if r.er_failed then incr episodes_failed) results;
    source.src_add results;
    episodes_collected := !episodes_collected + Array.length results;
    (* --- gradient training (data-parallel, bit-identical to serial) --- *)
    let losses = ref [] in
    for _ = 1 to config.batches_per_iteration do
      let batch, weights = source.src_sample ~rng config.batch_size in
      if batch <> [] then
        losses :=
          Nn.Pvnet.train_batch_parallel ?weights ~pool ~replicas:currents
            current opt batch
          :: !losses
    done;
    if !losses <> [] then incr current_version;
    let mean_loss =
      match !losses with
      | [] -> 0.0
      | ls -> List.fold_left ( +. ) 0.0 ls /. float_of_int (List.length ls)
    in
    (* --- arena gate --- *)
    let wins = ref 0 and ties = ref 0 in
    Array.iter
      (fun outcome ->
        if outcome = 1.0 then incr wins else if outcome = 0.0 then incr ties)
      (arena ());
    (* Promote the candidate when it wins the majority of the games that
       were decisive at all, requiring at least one decisive win.  (A
       fixed ">5 of 10" threshold as in the paper needs large arenas to
       ever engage; with ties counted out, small arenas gate sensibly.) *)
    let losses = config.arena_games - !wins - !ties in
    let kept = !wins > losses in
    if kept then begin
      Nn.Pvnet.sync ~src:current ~dst:best;
      incr best_version
    end
    else if config.reset_on_reject then begin
      Nn.Pvnet.sync ~src:best ~dst:current;
      incr current_version
    end;
    on_iteration
      {
        iteration;
        mean_loss;
        arena_wins = !wins;
        arena_ties = !ties;
        kept;
        replay_size = source.src_length ();
        episodes_failed = !episodes_failed;
      };
    save_checkpoint ()
  done;
  (* Final gate: the candidate carries all accumulated training; return it
     unless the incumbent actually beats it head-to-head (with an all-tie
     arena the candidate's extra training is the better bet). *)
  let wins = ref 0 and losses = ref 0 in
  Array.iter
    (fun outcome ->
      if outcome = 1.0 then incr wins
      else if outcome = -1.0 then incr losses)
    (arena ());
  if !losses > !wins then best else current
