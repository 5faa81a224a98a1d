(** The PBQP game: rewards and the MCTS bridge (paper §III).

    Terminal rewards (§III-B): the single-player game is scored by
    comparison.  {!Feasibility} is the ATE setting, where every cost is
    0 or ∞ — a finite finish wins (+1), a dead end or infinite cost
    loses (−1).  {!Minimize} compares the final cost sum against a
    reference (during training, the best player's cost on the same
    graph): smaller wins (+1), equal ties (0), larger loses (−1); a
    positive [shaping] replaces the step by [tanh ((ref − cost)/shaping)]
    so search can rank near-ties (0 keeps the paper's exact ±1/0). *)

open Pbqp

type mode =
  | Feasibility
  | Minimize of { reference : Cost.t; shaping : float }

val reward : mode -> Cost.t -> float
(** Terminal reward for a final cost ([inf] = failed/dead end). *)

val make :
  ?rollouts:bool ->
  ?cache:Nn.Cache.t ->
  serve:Nn.Infer.t ->
  net:Nn.Pvnet.t ->
  mode:mode ->
  m:int ->
  unit ->
  Istate.Cursor.t Mcts.game
(** The game record MCTS searches, over trail cursors (see {!Istate}):
    legality from the cursor's position, transitions as pure O(1)
    cursor extensions, leaf evaluation from the network.  Every query
    seeks the shared trail state; all cursors in one search must come
    from a single {!Istate.t} (MCTS guarantees this by construction:
    children come from [apply]).

    [rollouts] (default [false]) makes leaf values the mean of the
    network's estimate and the reward of a greedy completion of the leaf
    (see {!Rollout}, run on the trail and undone) — an opt-in extension
    beyond the paper, applied to cache hits and misses alike.

    [evaluate] takes one leaf (Algorithm 1): it looks the leaf up in
    [cache]; on a miss it captures the leaf as an {!Nn.Pvnet.prepared},
    takes the roll-out, and forwards the row through [serve]
    ({!Nn.Infer.submit}) on [net], the caller's own replica.

    [cache] consults an {!Nn.Cache} (single-owner or striped-shared)
    before every network forward, keyed by
    [(Istate.Cursor.hash, next vertex)] and versioned by
    {!Nn.Pvnet.version}; hits skip the forward, misses are stored.  The
    cache holds the raw network output; the roll-out blend is applied
    after lookup.  Search results are bit-identical with or without
    it. *)

val final_cost : Istate.Cursor.t -> Cost.t
(** [base_cost] if complete, [inf] otherwise. *)
