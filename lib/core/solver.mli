(** The user-facing Deep-RL PBQP solver (the paper's contribution,
    assembled).

    Two entry points mirroring the paper's two settings:
    {!solve_feasible} is the ATE register-allocation mode — 0/∞ costs,
    any zero-cost solution acceptable, backtracking on by default;
    {!minimize} is the general LLVM-style mode — minimize the cost sum,
    no backtracking (§V-C: there are no dead ends when spilling is
    possible). *)

open Pbqp

type stats = {
  nodes : int;  (** states generated in the game tree (Fig. 6 metric) *)
  backtracks : int;
}

val solve_exact :
  ?max_nodes:int ->
  ?max_seconds:float ->
  Graph.t ->
  Solvers.Exact.outcome * stats
(** The exact branch-and-bound solver ({!Solvers.Exact}) behind the same
    stats surface as the Deep-RL entry points — proves the optimum (or
    infeasibility) within its budget, or returns
    [Solvers.Exact.Timeout incumbent].  [backtracks] reports pruned
    subtrees. *)

val solve_feasible :
  net:Nn.Pvnet.t ->
  ?mcts:Mcts.config ->
  ?order:Order.kind ->
  ?backtracking:bool ->
  ?replan:bool ->
  ?max_backtracks:int ->
  ?exact_reduce:bool ->
  ?rollouts:bool ->
  ?cache:Nn.Cache.t ->
  ?serve:Nn.Infer.t ->
  ?rng:Random.State.t ->
  Graph.t ->
  Solution.t option * stats
(** Find any finite-cost solution.  Default order: decreasing liberty
    (§IV-E); default [mcts.k]: 50.  [rng] is only needed for
    [~order:Random].

    The search runs on the trail-based {!Istate}: O(deg) apply/undo
    instead of a graph copy per tree node.  [rollouts] (default false)
    blends greedy roll-out values into leaf evaluation (see {!Rollout}).

    [cache] gives the solve a transposition cache of network evaluations
    (repeated positions appear across backtracking replans and retreats;
    possibly striped and pool-shared, see {!Nn.Cache}).  Every leaf
    that misses it goes through the {!Nn.Infer} service [serve], which
    counts the forward rows of every solve sharing it; without [serve]
    the solve creates a one-worker service of its own.  Results are
    bitwise the same for every cache and service.

    [exact_reduce] (default false) is a hybrid extension beyond the
    paper: the equivalence-preserving R0/R1/R2 reductions strip the easy
    periphery first, the Deep-RL search runs only on the residual hard
    core, and the periphery is reconstructed exactly — fewer game-tree
    nodes for the same answers. *)

val minimize :
  net:Nn.Pvnet.t ->
  ?mcts:Mcts.config ->
  ?order:Order.kind ->
  ?reference:Cost.t ->
  ?shaping:float ->
  ?exact_reduce:bool ->
  ?rollouts:bool ->
  ?cache:Nn.Cache.t ->
  ?serve:Nn.Infer.t ->
  ?rng:Random.State.t ->
  Graph.t ->
  (Solution.t * Cost.t) option * stats
(** Minimize the cost sum.  [cache]/[serve] as in
    {!solve_feasible}.  [reference] anchors the search's terminal
    values (defaults to the Scholz–Eckstein cost of the graph);
    [shaping] (default 5.0) smooths the comparison reward.  [rollouts]
    blends greedy roll-out values into leaf evaluation (see {!Rollout}; an
    extension beyond the paper, default off).  [None] only on instances
    with dead ends (impossible when a spill option keeps every cost vector
    finite). *)
