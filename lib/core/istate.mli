(** Incremental (trail-based) PBQP game states.

    The mutable counterpart of {!State}: one shared graph is mutated in
    place, every {!apply} records an O(deg) memo of the move's effect on
    its move-tree node — the detached vertex with its physical incident
    matrices, the neighbors' cost vectors before {e and} after the move,
    the base cost before and after — and {!undo} restores the before
    side exactly (saved values are re-installed wholesale, never
    recomputed, so a pop is bit-exact in floating point).  Replaying an
    already-memoized tree edge — the common case when MCTS re-descends an
    existing branch — re-installs the after side the same way: no float
    recomputation, no allocation.  An MCTS simulation walks down and back
    up the move tree with {e zero} graph copies.

    {!Cursor} values are pure identities of positions in the move tree
    (shared parent-linked paths); any query on a cursor first {e seeks}
    the trail to that position (pop to the lowest common ancestor, replay
    the suffix).  MCTS stores cursors in its nodes and its root-to-leaf
    access pattern makes seeking O(1) amortized trail moves per query.
    This is the only state MCTS searches over.  The persistent {!State}
    remains the oracle: states reached by the same moves are structurally
    bit-equal, as the differential tests assert. *)

open Pbqp

type t

val of_graph : ?order:int array -> Graph.t -> t
(** Mirror of {!State.of_graph}: copies the graph, validates [order].
    @raise Invalid_argument if [order] is not a permutation of the live
    vertices. *)

val of_state : State.t -> t
(** Trail twin of a fresh persistent state — same instance (uid), same
    order, so {!hash}/{!Cursor.hash} agree with {!State.hash} move for
    move.  @raise Invalid_argument if the state has colored vertices. *)

(** {1 Direct trail operations} *)

val apply : t -> int -> unit
(** Color the next vertex (the transition 𝒯 of §IV-B), recording the
    undo/redo memo.  Same float operations as {!State.apply}.
    @raise Invalid_argument if complete or the color is illegal. *)

val undo : t -> unit
(** Revert the most recent {!apply} exactly.
    @raise Invalid_argument at the root. *)

val m : t -> int
val depth : t -> int
val next_vertex : t -> int option
val legal : t -> int -> bool
val is_complete : t -> bool
val is_dead_end : t -> bool
val is_terminal : t -> bool
val base_cost : t -> Cost.t
val assignment : t -> Solution.t
(** A copy. *)

val graph : t -> Graph.t
(** The live shared graph — valid only until the next apply/undo/seek. *)

val hash : t -> int
(** {!Zhash} key of the current position (= {!State.hash} of the
    equivalent persistent state). *)

(** {1 Cursors — what MCTS holds} *)

module Cursor : sig
  type istate := t
  type t

  val root : istate -> t
  (** Cursor at the trail state's initial (empty-prefix) position. *)

  val apply : t -> int -> t
  (** Pure tree extension: returns the child cursor, O(1) plus a seek.
      @raise Invalid_argument if complete or the color is illegal. *)

  val istate : t -> istate
  val depth : t -> int
  val color : t -> int  (** move that produced this position; -1 at root *)

  val hash : t -> int
  (** O(1), no seek — cursors carry their hash. *)

  val next_vertex : t -> int option
  val legal : t -> int -> bool
  val is_complete : t -> bool
  val is_dead_end : t -> bool
  val is_terminal : t -> bool
  val base_cost : t -> Cost.t
  val assignment : t -> Solution.t

  val graph : t -> Graph.t
  (** Seeks, then returns the live shared graph — valid only until any
      other cursor of the same trail state is queried. *)

  val sync : t -> unit
  (** Seek the trail to this cursor explicitly (queries do it
      implicitly).  All cursors must come from the same trail state. *)
end
