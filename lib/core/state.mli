(** PBQP game states in reduced-graph form (paper §III-C, §IV-B).

    A state is the yet-uncolored remainder of the instance: colored
    vertices have been {e detached}, their selected matrix rows folded
    into the neighbors' cost vectors, and their own selected costs
    accumulated into [base_cost].  By the equivalence of Fig. 3, the cost
    of the final assignment on the original graph equals the accumulated
    [base_cost] when the game completes.

    States are persistent (transitions copy the graph).  Search runs on
    the trail state ({!Istate}), which performs the same float operations
    in place; this module is the transition oracle it is checked against,
    and the walk behind exact-label samples ({!Labels}). *)

open Pbqp

type t

val of_graph : ?order:int array -> Graph.t -> t
(** Initial state.  [order] is the fixed coloring order (a permutation of
    the vertex ids, see {!Order}); defaults to increasing id.  The graph is
    copied.  @raise Invalid_argument if [order] is not a permutation of
    the live vertices. *)

val m : t -> int

val next_vertex : t -> int option
(** The vertex the next action colors; [None] when all are colored. *)

val next_cost_vector : t -> Vec.t option
(** Current (reduced) cost vector of the next vertex. *)

val legal : t -> int -> bool
(** Color [c] is legal iff the next vertex's entry for [c] is finite. *)

val is_complete : t -> bool

val is_dead_end : t -> bool
(** Some vertex still to color has an all-∞ cost vector.  Checking every
    remaining vertex (not just the next) detects failures as early as the
    information exists, like the graph manager of §IV-B.  Stops at the
    first dead vertex found. *)

val has_dead_vertex : Pbqp.Graph.t -> int array -> pos:int -> bool
(** The scan behind {!is_dead_end}, shared with the incremental state:
    does any vertex of [order.(pos ..)] have an all-∞ cost vector in [g]?
    Short-circuits on the first hit. *)

val is_terminal : t -> bool
(** Complete or dead end. *)

val apply : t -> int -> t
(** The transition 𝒯 of §IV-B: color the next vertex, fold its selected
    row into each live neighbor, detach it.
    @raise Invalid_argument if complete or the color is illegal. *)

val base_cost : t -> Cost.t
(** Accumulated cost of the colored prefix (the final Equation-1 cost when
    complete). *)

val assignment : t -> Solution.t
(** Colors chosen so far (over original vertex ids). *)

val graph : t -> Graph.t
(** The reduced graph itself (do not mutate). *)

val order : t -> int array
(** The fixed coloring order (a copy). *)

val colored_count : t -> int

val remaining : t -> int

val hash : t -> int
(** Incrementally maintained {!Zhash} key of (graph instance, colored
    prefix) — equal for states reached by the same moves on copies of the
    same instance, including [Istate] cursors.  Keys the evaluation
    cache. *)

val pp : Format.formatter -> t -> unit
