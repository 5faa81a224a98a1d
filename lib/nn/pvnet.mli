(** The policy/value network for PBQP states (paper §III-D, §IV-D).

    Architecture, following the paper: GCN layers whose messages are
    modulated by the edge cost matrices (Fig. 4), a residual MLP trunk
    (the paper's "ResNet"), and two heads — P-Net (softmax over the [m]
    colors of the next vertex) and V-Net (tanh scalar in [-1, 1]).

    Cost encoding: an entry [c] of a cost vector or matrix enters the
    network as [1 / (1 + c / cost_scale)] (so ∞ → 0): a soft
    availability / compatibility weight whose rational decay keeps the
    wide dynamic range of spill weights distinguishable.  Hidden GCN features live in ℝ^m exactly as in
    the paper, so the [m × m] edge matrices apply to messages directly.
    The readout for heads is [h_next ‖ mean_v h_v ‖ φ(C_next)] — the
    paper's μ concatenation is not fixed-size across graphs, so we use the
    next-vertex embedding plus a global mean pool (see DESIGN.md).

    Deviation from the paper: normalization layers are LayerNorm, not
    BatchNorm (training is per-sample; see DESIGN.md). *)

type config = {
  m : int;  (** number of colors; the network is specific to it *)
  gcn_layers : int;
  trunk_width : int;
  trunk_blocks : int;
  cost_scale : float;  (** the [s] in [1/(1 + c/s)] *)
}

val default_config : m:int -> config
(** 2 GCN layers, width 32, 2 residual blocks, cost_scale 10. *)

type t

val create : rng:Random.State.t -> config -> t
val config : t -> config
val params : t -> Var.t list
val param_count : t -> int

val sync : src:t -> dst:t -> unit
(** Copy all parameter values from [src] into [dst].
    @raise Invalid_argument if the two nets have different configs. *)

val clone : t -> t
(** A deep copy with independent parameters. *)

val copy_into : src:t -> dst:t -> unit
(** {!sync} that is a physical no-op when [src == dst]: the idiom for
    refreshing long-lived per-worker replicas (of which worker 0's may
    alias the source net) without re-allocating clones. *)

val version : t -> int
(** The weights-identity stamp that versions {!Evalcache} entries.
    Globally fresh at {!create}/{!load} and after every optimizer step
    ({!train_batch}/{!train_batch_parallel} bump it); {!sync} copies the
    source's stamp along with the weights.  Equal stamps therefore imply
    bitwise-equal weights — a cache entry stamped with a stale version is
    never served. *)

val bump_version : t -> unit
(** Install a globally fresh stamp — for callers that mutate parameters
    directly (the training functions call this themselves). *)

(** {1 Inference}

    One inference forward serves every leaf evaluation: {!prepare} per
    state, then {!predict_prepared} over the batch, in the net's arena.
    {!predict} is the autodiff-tape forward that training differentiates,
    kept as the reference the tests compare the arena forward against. *)

val predict : t -> Pbqp.Graph.t -> next:int -> float array * float
(** [(priors, value)] for coloring vertex [next] of a reduced-graph state,
    computed on the autodiff tape over [Graph.freeze g] — the one tape
    forward, which [loss] runs over a sample's frozen instance; the test
    suite and [test/oracle] compare
    {!prepare} + {!predict_prepared} against, bit for bit.  Priors are a
    distribution over the [m] colors with zero mass on colors whose
    vertex cost is ∞ (all-zero if the vertex is a dead end).
    @raise Invalid_argument if the graph's [m] differs from the net's or
    [next] is not a live vertex. *)

type prepared
(** One state's contribution to a batched forward, captured while its
    graph was live: the GCN readout row and a private copy of the next
    vertex's cost vector (the output mask). *)

val prepare : t -> Pbqp.Graph.t -> next:int -> prepared
(** The per-state stage: the GCN runs as a flat CSR message pass in the
    net's arena (per-vertex transforms as packed GEMMs over the live
    vertices), without building an autodiff tape, reading the arena's
    encoding of the instance (the edge set [Graph.uid g] names, with
    every directed edge's message matrix), which is rebuilt only when the
    uid changes or a live vertex is not covered.  Safe to call
    on a graph that is subsequently mutated (the incremental-search
    pattern: seek the shared trail graph to each leaf, prepare, move
    on); the returned value owns its data.
    @raise Invalid_argument with ["Pvnet.prepare: m mismatch"] if the
    graph's [m] differs from the net's, or if [next] is not a live
    vertex. *)

val predict_prepared : t -> prepared array -> (float array * float) array
(** The batched trunk/heads stage: one [(priors, value)] per prepared
    state, in order, as {!predict} would return it — bit for bit.  The
    pass runs in the net's arena: rows blitted into a persistent stack,
    every GEMM through the packed fused kernel into preallocated buffers,
    packed weight panels memoized per {!version}, so nothing is allocated
    in steady state beyond the result arrays.  Every output row depends
    only on its own input row, so results are the same for every batch
    composition; duplicate states and states from different graphs may
    mix in one batch.  [[||]] maps to [[||]].

    Not thread-safe (the arena belongs to the replica's owning worker)
    — but safe for {!Infer}'s floating server
    to run on a submitter's replica, because the owner blocks for the
    result while its ticket is in flight. *)

val eval_count : t -> int
(** Lifetime number of leaf evaluations this net (replica) has served:
    one per {!predict} call, one per row of {!predict_prepared}. *)

val reset_eval_count : t -> unit

(** {1 Message matrices}

    The GCN's message from [u] into [v] applies [φ(M)/m] to [h_u], where
    [M] is the edge matrix oriented with [v]'s colors as rows.  On the
    0/∞ ATE family nearly every such matrix is [a·J + diag(d)] — one
    value everywhere off the diagonal — and is kept as [m + 1] floats;
    every other matrix is kept dense.  {!prepare} classifies each
    directed edge once per instance encoding; {!predict} and {!loss}
    classify each undirected edge once per call, the far endpoint's
    message reading the entry transposed. *)

type msg

val classify : config -> Pbqp.Mat.t -> msg
(** The message matrix of an edge matrix, not memoized: the
    [a·J + diag(d)] form when [m > 1] and every off-diagonal cost of [M]
    is equal (so every off-diagonal cell of [φ(M)/m] has the same bits),
    dense otherwise.  Both forms give the same message bits. *)

val is_jdiag : msg -> bool

val message_apply : msg -> Ad.t -> Ad.t
(** The tape op {!predict} and {!loss} run per edge: bitwise [Ad.mv]
    on the constant dense matrix, in value and in [h]'s gradient,
    without expanding the matrix or forming its gradient. *)

(** {1 Training} *)

type sample = {
  instance : Pbqp.Graph.frozen;
      (** the reduced state, frozen: it outlives the trail graph it was
          taken from *)
  next : int;  (** the vertex the action colors *)
  policy : float array;  (** MCTS visit distribution π (length m) *)
  value : float;  (** final reward z ∈ {-1, 0, +1} *)
}

val loss : t -> Ad.ctx -> sample -> Ad.t
(** Scalar node: cross-entropy(policy, P-Net) + (value − V-Net)².  The L2
    term of the paper's loss is applied as decoupled weight decay in
    {!Adam}. *)

val train_batch : t -> Adam.t -> sample list -> float
(** One optimizer step on the mean gradient of the batch; returns the mean
    loss.  Gradients reach Adam in [params] order (via
    [Grads.to_list_ordered]), the reduction order {!train_batch_parallel}
    reproduces. *)

val train_batch_parallel :
  ?weights:float array ->
  pool:Par.Pool.t -> replicas:t array -> t -> Adam.t -> sample list -> float
(** {!train_batch} with per-sample forward/backward passes sharded
    across the pool.  [replicas] must hold one net per pool worker
    (worker 0's may alias [t]); each is refreshed from [t] via
    {!copy_into} before the shard runs, so the same array can live for a
    whole training run.  Per-sample gradients are merged on the calling
    domain in ascending sample order and handed to Adam in [params]
    order — exactly the serial reduction — so the step is bit-identical
    to {!train_batch} for any pool size.

    [weights] (default all ones) scales each sample's loss and gradient
    contribution before the merge — the distributed learner's staleness
    down-weighting.  An all-ones array short-circuits to the unweighted
    path, so passing explicit 1.0s is bit-identical to omitting the
    argument.
    @raise Invalid_argument if [Array.length replicas] differs from the
    pool size, a replica's config differs from [t]'s, or [weights] and
    the batch have different lengths. *)

(** {1 Persistence} *)

val save : t -> string -> unit
val load : string -> t
(** Read a text checkpoint written by {!save}.  Every parameter must
    appear exactly once.
    @raise Invalid_argument on a malformed token, a missing, unknown or
    duplicated parameter, or a shape or value-count mismatch. *)

(** {1 Binary snapshots (parameter broadcast)}

    The compact wire form the distributed learner broadcasts to actors
    after optimizer steps: raw IEEE-754 parameter bits (bitwise
    round-trip by construction, ~3x smaller than the text checkpoint),
    excluding Adam moments — actors only run inference. *)

val snapshot : t -> string
(** Serialize config + all parameters. *)

val load_snapshot : t -> string -> unit
(** Overwrite [t]'s parameters from a snapshot and install a fresh
    {!version} stamp.  [load_snapshot t (snapshot src)] makes [t]'s
    parameters bitwise-equal to [src]'s.  The whole snapshot is
    validated before anything is written — every parameter exactly once
    — so a rejected snapshot leaves [t]'s weights and {!version}
    untouched.
    @raise Invalid_argument on malformed or truncated snapshots, a
    missing, unknown or duplicated parameter, or config mismatch. *)

val snapshot_of_string : string -> t
(** A fresh net built from a snapshot (actor-side first receive). *)
