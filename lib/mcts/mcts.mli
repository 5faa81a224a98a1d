(** AlphaZero-style Monte Carlo tree search (paper §II-C, Algorithm 1).

    Single-player, maximizing variant: values are always from the one
    player's perspective, so there is no sign alternation.  The tree is
    kept across moves — {!advance} moves the root to a child and reuses
    the subtree (and its Q/N statistics), and moving the root {e back} up
    with {!retreat} is what the paper's backtracking driver relies on.

    The search is generic over the game through a record of functions;
    states must be immutable identities: [apply] returns a new value and
    never changes the one it was given.  Cursors into a shared trail (the
    PBQP game's states) qualify; the mutable structure behind them may
    move, as long as every query on a state answers for that state. *)

type 'a game = {
  num_actions : int;  (** actions are [0 .. num_actions-1] *)
  is_terminal : 'a -> bool;
      (** complete games {e and} dead ends — any state with no moves *)
  terminal_value : 'a -> float;  (** reward of a terminal state *)
  legal : 'a -> int -> bool;
  apply : 'a -> int -> 'a;
  evaluate : 'a -> float array * float;
      (** DNN roll-out of one leaf: priors over actions (illegal entries
          ignored) and value estimate [v̂].  Each SIMULATE that reaches
          an unexpanded node calls it exactly once. *)
}

type config = {
  k : int;  (** simulations per {!run} *)
  c_puct : float;  (** exploration constant of Eq. 2 *)
  epsilon : float;  (** the [ε] under the square root of Eq. 2 *)
}

val default_config : config
(** [k = 50; c_puct = 1.5; epsilon = 1e-8] *)

type 'a t

val create : config -> 'a game -> 'a -> 'a t

val root_state : 'a t -> 'a

val run : 'a t -> unit
(** [config.k] SIMULATE calls on the current root (fewer effective
    expansions if simulations hit terminal states). *)

val add_root_noise :
  rng:Random.State.t -> epsilon:float -> alpha:float -> 'a t -> unit
(** Mix Dirichlet(α) noise into the root's priors:
    [p ← (1−ε)·p + ε·Dir(α)] over the legal actions — AlphaZero's
    self-play exploration device.  Evaluates the root first if the search
    has not yet.  No-op on terminal roots. *)

val run_n : 'a t -> int -> unit
(** Like {!run} with an explicit simulation count (backtracking re-plans
    use this). *)

val policy : 'a t -> float array
(** Eq. 3: visit counts normalized over the root's edges.  If the root has
    no visits yet, a uniform distribution over legal actions. *)

val root_value : 'a t -> float
(** Mean value of the root's visited edges (the DNN estimate before any
    visit). *)

val visit_counts : 'a t -> int array

val root_qs : 'a t -> float array
(** Per-edge mean action values Q at the root (0 for unvisited edges) —
    exposed so equivalence tests can compare search statistics exactly. *)

val advance : 'a t -> int -> unit
(** Make action [a]: the corresponding child becomes the root.  The child
    is created if the search never reached it.
    @raise Invalid_argument on an illegal action or terminal root. *)

val retreat : 'a t -> unit
(** Undo the last {!advance}: the parent becomes the root again, with its
    full subtree intact.  @raise Invalid_argument at the initial root. *)

val depth : 'a t -> int
(** Number of {!advance}s minus {!retreat}s from the initial root. *)

val nodes_created : 'a t -> int
(** Total states materialized in this game tree — the paper's search-space
    metric (Fig. 6). *)

val validate : 'a t -> string list
(** Re-verify every invariant the search maintains by construction, over
    the {e whole} materialized tree (including retreat-able ancestors):
    expanded nodes carry finite non-negative priors with mass on some
    legal action; visit counts are non-negative, unvisited edges carry
    [Q = 0], illegal actions are never visited or expanded; parent links
    are coherent; reachable nodes never exceed {!nodes_created}.  Returns
    {e all} violations, [[]] on a healthy tree — a debugging aid for new
    games; it costs a full tree walk. *)
