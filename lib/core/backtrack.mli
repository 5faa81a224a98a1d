(** The backtracking coloring driver (paper §IV-E).

    Plain Deep-RL coloring is a one-way walk; on the 0/∞ ATE instances it
    can reach a dead end even with MCTS look-ahead.  This driver cancels
    the most recent coloring when that happens, re-plans the parent state
    with additional MCTS simulations (the dead end "was probably due to a
    lack of thinking time"), and tries the next-best untried color —
    chronological backtracking over the whole game, with the accumulated
    game tree (and its node counter) shared across retries.

    [replan = false] is the §V-B ablation: on a dead end just take the
    next-highest-probability color from the original ranking without
    extending the tree.

    The search runs on a trail state ({!Istate}): MCTS holds cursors into
    one shared mutable graph and walks it with O(deg) push/pop, so no
    tree node copies the graph. *)

open Pbqp

type config = {
  mcts : Mcts.config;
  enabled : bool;  (** [false] = the paper's variant (a): fail on dead end *)
  replan : bool;
  max_backtracks : int;
  rollouts : bool;
      (** blend greedy roll-outs into leaf values (see {!Game.make}) *)
}

val default_config : config
(** backtracking on, replanning on, [max_backtracks = 100_000], no
    roll-outs. *)

type result = {
  solution : Solution.t option;
  cost : Cost.t;
  nodes : int;  (** total states created in the game tree, incl. re-plans *)
  backtracks : int;
  budget_exhausted : bool;
}

val solve :
  ?cache:Nn.Cache.t ->
  serve:Nn.Infer.t ->
  net:Nn.Pvnet.t -> mode:Game.mode -> config -> Istate.t -> result
(** Color the trail state from its root position.  [cache] and [serve]
    are forwarded to {!Game.make} — backtracking revisits tree ancestors,
    so repeated leaf evaluations short-circuit, and every leaf that
    misses is evaluated through [serve] on the calling worker's [net]. *)
