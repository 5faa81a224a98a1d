(** One self-play of the PBQP game without backtracking (paper §IV-A,
    Fig. 1): repeat { run MCTS on the current state; pick a color from the
    visit distribution; transition } until the game ends.

    With [collect = true] the per-move training tuples are returned; their
    [value] fields are placeholders (0) — the caller fills in the final
    reward once it is known (the comparison with the best player happens
    outside the episode). *)

open Pbqp

type config = {
  mcts : Mcts.config;
  temperature_moves : int;
      (** sample actions from π for this many opening moves, then play
          argmax (0 = always argmax, the inference behavior) *)
  root_noise : (float * float) option;
      (** [(epsilon, alpha)]: AlphaZero Dirichlet noise mixed into root
          priors before each move's search — self-play exploration;
          [None] for inference *)
}

val default_config : config

type outcome = {
  solution : Solution.t option;  (** [None] on a dead end *)
  cost : Cost.t;  (** [inf] on a dead end *)
  nodes : int;  (** states created in the game tree *)
}

val play :
  ?collect:bool ->
  ?cache:Nn.Cache.t ->
  serve:Nn.Infer.t ->
  rng:Random.State.t ->
  net:Nn.Pvnet.t ->
  mode:Game.mode ->
  config ->
  Istate.t ->
  outcome * Nn.Pvnet.sample list
(** Play from the trail state's root position.  MCTS holds cursors into
    its one shared mutable graph, so each simulated move costs O(deg)
    push/pop instead of a graph copy.  The collected samples share the
    root position's {!Pbqp.Graph.freeze}, and each keeps only the moves
    played from it ({!Pbqp.Graph.play}).  [cache] and [serve] are
    forwarded to {!Game.make}: [cache] short-circuits repeated leaf
    evaluations, and every miss goes through [serve] on [net].
    Search results are bit-identical with or without a cache and for
    every service. *)

val set_values : float -> Nn.Pvnet.sample list -> Nn.Pvnet.sample list
(** Stamp the final reward on every tuple of the episode (§II-C: "all
    tuples of this game will have the same v value"). *)
