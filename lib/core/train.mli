(** The self-play training loop (paper §IV-A, §V-A).

    One {e iteration} = [episodes_per_iteration] self-plays on fresh
    random Erdős–Rényi PBQP graphs, each contributing one tuple per move
    to the replay queue, followed by gradient training of the current net
    and an arena gate: the candidate plays the incumbent best net on
    [arena_games] fresh graphs and replaces it only with more than
    [arena_wins_needed] wins (paper: >5 of 10); otherwise the candidate is
    reset to the incumbent.

    Rewards: each episode's graph is first colored by the best net; the
    training tuples of the current net's coloring are stamped with
    +1/0/−1 by cost comparison (§III-B).  Search guidance {e inside}
    both colorings uses a [Minimize] mode whose reference is the
    Scholz–Eckstein cost of the graph — a fixed, cheap yardstick that
    makes terminal values meaningful from iteration zero (an engineering
    choice documented in DESIGN.md; the training labels themselves follow
    the paper exactly). *)

type config = {
  iterations : int;
  episodes_per_iteration : int;
  graph : Pbqp.Generate.config;  (** template; [n] is resampled per episode *)
  n_mean : float;
  n_stddev : float;
  n_min : int;
  mcts : Mcts.config;
      (** [mcts.k] is the paper's k_train *)
  net : Nn.Pvnet.config;
  adam : Nn.Adam.config;
  batch_size : int;
  batches_per_iteration : int;
  replay_capacity : int;
  arena_games : int;
  arena_wins_needed : int;
  temperature_moves : int;
  shaping : float;  (** reward shaping scale for search guidance *)
  planted : bool;
      (** generate guaranteed-solvable planted instances instead of plain
          Erdős–Rényi — used when training nets for the no-spill ATE
          setting, where unsolvable instances teach nothing *)
  reset_on_reject : bool;
      (** paper-faithful gating: discard the candidate's weights whenever
          the arena rejects it.  Off by default: with small arenas the
          reset destroys all learning, so the candidate keeps training and
          only the data-generation (best) net is gated. *)
  instance_generator : (rng:Random.State.t -> Pbqp.Graph.t) option;
      (** when set, overrides the built-in Erdős–Rényi/planted sampling —
          e.g. to train the ATE net on PBQP graphs of small synthetic ATE
          programs (the target distribution). *)
  domains : int;
      (** size of the run's persistent domain pool ([Par.Pool], OCaml 5
          parallelism): self-play episodes, arena games and the
          data-parallel gradient step all share it, with per-worker
          network replicas kept alive across iterations and refreshed in
          place only when weights change.  Every per-task rng is a
          [Random.State.split] child keyed by episode/game index (never
          by worker), and all merges happen in task-index order — so for
          a fixed seed the run (replay contents, [episodes_failed],
          trained weights) is bit-identical for {e every} value of
          [domains], 1 included. *)
  checkpoint : string option;
      (** checkpoint file prefix: after every iteration both networks, the
          replay buffer and the Adam optimizer state are saved to
          [<prefix>.best.ckpt], [<prefix>.current.ckpt],
          [<prefix>.replay.txt] and [<prefix>.opt.ckpt]; {!run} resumes
          when the first three exist (the optimizer file is optional for
          back-compat — when present, moments and step count are restored
          and a resumed run continues bit-identically). *)
  check : bool;
      (** certify every self-play episode's solution with
          [Check.Certify.solution] against the original graph (the
          episode's incremental cost bookkeeping must match an
          independent recomputation); any violation aborts training with
          [Failure].  Off by default — it adds a per-episode
          recomputation. *)
  eval_cache : int;
      (** total capacity of the shared per-net-role evaluation cache
          ([Nn.Cache]: [cache_stripes] shards when [domains > 1], one
          otherwise); 0 (the default)
          disables caching.  Entries are versioned by [Nn.Pvnet.version],
          so optimizer steps and promotions invalidate them implicitly;
          hits return bitwise-identical results, so runs are unchanged by
          the cache at every [domains] value. *)
  serve_batch : int;
      (** ignored, except that it must be positive (default 16): each
          worker evaluates its own leaves ([Nn.Infer]).  Kept only because
          the benchmark sets it; goes with its next change. *)
  serve_wait_us : int;  (** ignored; kept, like [serve_batch], for the benchmark *)
  cache_stripes : int;
      (** number of mutex-guarded shards of the shared striped cache
          (rounded up to a power of two; only meaningful with
          [eval_cache > 0] and [domains > 1]). *)
  pretrain_labels : string option;
      (** path to a {!Labels} file of exact-optimal [(graph, assignment,
          cost)] records: each label is expanded into one training tuple
          per move and enqueued into the replay buffer {e before} any
          self-play, so early gradient batches learn from proven-optimal
          decisions (RL4ReAl-style supervised warm-up).  Fresh runs only
          — ignored when resuming from a checkpoint.  [None] (the
          default) disables seeding. *)
}

val default_config : m:int -> config
(** Laptop-scale defaults (see DESIGN.md §6); raise the knobs toward the
    paper's 200 × 100 schedule with the [bin/train] CLI. *)

type progress = {
  iteration : int;
  mean_loss : float;
  arena_wins : int;
  arena_ties : int;
  kept : bool;  (** candidate accepted as the new best *)
  replay_size : int;
  episodes_failed : int;  (** self-plays that dead-ended *)
}

(** {1 Episode rng discipline (shared with the distributed trainer)}

    Per-episode rngs come from per-actor split streams rooted in a
    {e manifest seed}: actor [i]'s root is the (i+1)-th sequential
    [Random.State.split] of [Random.State.make [|seed|]], and global
    episode [G] uses split #[(G - i) / actors] of actor [G mod actors]'s
    root.  The in-process trainer is the actors=1 topology (successive
    splits of actor 0's root), so a [--actors 1] distributed run is
    sample-for-sample equal to it by construction, and an N-actor run is
    bit-reproducible from [(seed, N)] alone.  The seed itself is drawn
    from the main rng once per fresh run and checkpointed (with the
    episode-stream position) in [<prefix>.dist.txt]. *)

val actor_root : manifest_seed:int -> int -> Random.State.t
(** The root rng of one actor's episode stream.
    @raise Invalid_argument on a negative actor id. *)

val self_play_episode :
  ?best_cache:Nn.Cache.t ->
  ?current_cache:Nn.Cache.t ->
  ?best_serve:Nn.Infer.t ->
  ?current_serve:Nn.Infer.t ->
  rng:Random.State.t ->
  best:Nn.Pvnet.t ->
  current:Nn.Pvnet.t ->
  config ->
  Nn.Pvnet.sample list * bool
(** One self-play episode exactly as the training loop plays it (best
    player sets the cost reference, candidate collects tuples): the
    stamped samples and whether the candidate dead-ended.  Exposed for
    actor processes; caches and services are bitwise-neutral, so an
    uncached actor call yields the same tuples as the learner's
    configuration.  A role given no service plays through a one-worker
    {!Nn.Infer} service created for the episode. *)

(** {1 Episode/replay source}

    The training loop is abstracted over where episodes come from and
    where replay tuples live.  The in-process default plays episodes on
    the run's own domain pool into a plain {!Replay} ring; the
    distributed learner ([Dist.Learner]) substitutes actor processes
    and a sharded replay behind the same record.  The loop drives it as:
    broadcast parameters, dispatch [src_pipeline] iterations ahead,
    collect, add, sample (with optional per-sample staleness weights fed
    to [Nn.Pvnet.train_batch_parallel]). *)

type episode_result = {
  er_samples : Nn.Pvnet.sample list;
  er_failed : bool;
  er_generation : int;  (** generation the episode was played under *)
  er_origin : int;  (** producing actor id (0 in-process) *)
}

type source = {
  src_pipeline : int;
      (** iterations dispatch runs ahead of collection (0 in-process);
          pipelined episodes are played under weights exactly this many
          generations stale, deterministically *)
  src_broadcast : generation:int -> unit;
  src_dispatch : iteration:int -> unit;
  src_collect : iteration:int -> episode_result array;
      (** blocks until the iteration's episodes are in, returned in
          global episode order *)
  src_add : episode_result array -> unit;
  src_seed : Nn.Pvnet.sample list -> unit;  (** pretraining tuples *)
  src_sample :
    rng:Random.State.t -> int -> Nn.Pvnet.sample list * float array option;
      (** a training batch plus optional per-sample staleness weights
          ([None] means all ones) *)
  src_length : unit -> int;
  src_save : string -> unit;  (** replay checkpoint (Replay text format) *)
  src_load : string -> unit;
  src_shutdown : unit -> unit;
}

val run :
  ?on_iteration:(progress -> unit) ->
  ?make_source:
    (manifest_seed:int ->
    resume_episodes:int ->
    best:Nn.Pvnet.t ->
    current:Nn.Pvnet.t ->
    source) ->
  rng:Random.State.t ->
  config ->
  Nn.Pvnet.t
(** Returns the final best network.  Every search of the run goes
    through one {!Nn.Infer} service per net role, sized to the pool.
    [make_source] (default: the in-process source) receives the run's
    manifest seed, the number of episodes already consumed by a resumed
    checkpoint (its streams must fast-forward past them), and the two
    live nets it will broadcast.
    @raise Invalid_argument if [serve_batch <= 0], before any episode. *)
