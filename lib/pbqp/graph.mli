(** PBQP graphs.

    A PBQP problem instance [G(V, E, C^V, C^E)] over [m] colors: every
    vertex carries an [m]-entry cost vector, every edge an [m × m] cost
    matrix.  The structure is mutable — graph reductions and RL transitions
    delete vertices and fold costs in place — and {!copy} gives
    persistent snapshots (the persistent game state), {!freeze} compact
    read-only ones (training samples).

    Vertices are identified by dense integer ids [0 .. capacity-1]; deleted
    vertices stay allocated but dead.  Each undirected edge is stored in
    both orientations (the matrix at [v]'s side is the transpose of the one
    at [u]'s side), kept coherent by this module.  An edge whose matrix is
    all-zero carries no constraint and is removed eagerly, so [degree]
    counts only meaningful edges — matching the paper's convention that
    [u, v] are disconnected iff [C_uv = O]. *)

type t

val create : m:int -> n:int -> t
(** [create ~m ~n] is a graph with [n] live vertices, zero cost vectors and
    no edges. @raise Invalid_argument if [m <= 0] or [n < 0]. *)

val uid : t -> int
(** A process-unique identity of an {e edge set}, minted by {!create},
    {!add_edge} and {!remove_edge}; everything else (copies, vertex
    removal, trail primitives, cost updates) keeps it.  Two graphs with
    one uid hold equal matrices between every pair of vertices both hold
    alive.  Keys the evaluation cache's Zobrist base and the GCN's
    instance encoding. *)

val m : t -> int
(** Number of colors. *)

val capacity : t -> int
(** Size of the id space (original vertex count). *)

val n_alive : t -> int

val is_alive : t -> int -> bool

val vertices : t -> int list
(** Live vertex ids, increasing. *)

val cost : t -> int -> Vec.t
(** The live cost vector itself (not a copy) — mutate with care.
    @raise Invalid_argument if the vertex is dead or out of range. *)

val set_cost : t -> int -> Vec.t -> unit
(** Replaces the vector (takes a copy). *)

val add_to_cost : t -> int -> Vec.t -> unit
(** Accumulates into the vertex's cost vector. *)

val edge : t -> int -> int -> Mat.t option
(** [edge g u v] is the cost matrix oriented with [u]'s colors as rows, or
    [None] if there is no (non-zero) edge.  The returned matrix is a copy. *)

val edge_ref : t -> int -> int -> Mat.t option
(** Like {!edge} but returns the graph's own matrix without copying — for
    read-only hot paths (solvers, the GCN encoder).  Callers must not
    mutate it. *)

val add_edge : t -> int -> int -> Mat.t -> unit
(** [add_edge g u v muv] accumulates [muv] (oriented [u]-rows) into the
    edge, creating it if absent; if the resulting matrix is all-zero the
    edge is removed.  @raise Invalid_argument on self-edges, dead endpoints
    or shape mismatch. *)

val remove_edge : t -> int -> int -> unit

val neighbors : t -> int -> int list
(** Live neighbors, increasing. *)

val iter_neighbors : t -> int -> (int -> Mat.t -> unit) -> unit
(** [iter_neighbors g u f] calls [f v muv] for every live neighbor [v] of
    [u] with the stored matrix oriented [u]-rows, in unspecified order and
    without allocating the sorted {!neighbors} list.  The matrices are the
    graph's own — do not mutate.  [f] must not add or remove edges of [u]
    (it iterates the live adjacency table). *)

val degree : t -> int -> int

val remove_vertex : t -> int -> unit
(** Kills the vertex and detaches all its edges. *)

(** {1 Trail primitives}

    Constant-bookkeeping mutators for incremental apply/undo states
    (see [Core.Istate]): a move detaches a vertex keeping enough to put it
    back, and swaps neighbor cost vectors wholesale so undo restores the
    {e original} float contents bit for bit (never by subtracting). *)

val swap_cost : t -> int -> Vec.t -> Vec.t
(** [swap_cost g u v] installs [v] as [u]'s cost vector {e without
    copying} and returns the previous vector.  The caller owns the
    returned vector and must not mutate [v] afterwards.
    @raise Invalid_argument on a dead vertex or length mismatch. *)

type detached
(** Undo record of one {!detach_vertex}: the vertex and its incident
    matrix pairs (physical, both orientations). *)

val detach_vertex : t -> int -> detached
(** Like {!remove_vertex} but returns the undo record, in O(deg). *)

val redetach_vertex : t -> detached -> unit
(** Detach again a vertex previously detached with {!detach_vertex} and
    restored with {!reattach_vertex}: the record already lists the
    incident edges, so the redo builds no list — O(deg), allocation-free.
    Only valid when the graph is back in the exact state the record was
    made in.  @raise Invalid_argument on a dead vertex. *)

val reattach_vertex : t -> detached -> unit
(** Restores a detached vertex and its edges, re-installing the {e same}
    physical matrices and keeping {!uid}.  Only valid on
    the graph that produced the record, with the neighbors alive again —
    i.e. undo in LIFO order.  @raise Invalid_argument if the vertex is
    alive. *)

val liberty : t -> int -> int
(** Number of admissible colors of a vertex (finite cost-vector entries). *)

val copy : t -> t
(** Deep copy (fresh vectors and matrices). *)

val copy_shared : t -> t
(** Copy with fresh cost vectors and adjacency tables but {e shared}
    matrix objects.  Sound because no graph operation mutates a matrix in
    place ([add_edge] replaces with a freshly-built sum); the RL state
    transition uses this so that MCTS states share matrices instead of
    copying them. *)

val fold_edges : (int -> int -> Mat.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over each live undirected edge exactly once, with [u < v] and the
    matrix oriented [u]-rows (the internal matrix, not a copy). *)

val edge_count : t -> int

(** {1 Frozen instances}

    A compact, read-only copy of a graph's live part — what a replay
    sample keeps of its state.  It holds no dead vertices, no adjacency
    tables and one orientation of each matrix, so it is a few times
    smaller than a {!copy_shared} snapshot, and it outlives any later
    mutation of the source graph.  [Io] prints it exactly as the source
    graph; [Nn.Pvnet] runs its tape forward over it. *)

type frozen = private {
  f_m : int;  (** number of colors *)
  f_capacity : int;  (** the source graph's {!capacity} *)
  f_verts : int array;  (** live vertex ids, increasing; index = row *)
  f_costs : floatarray;
      (** row [r]'s cost vector at [r * f_m .. r * f_m + f_m - 1] *)
  f_ends : int array;
      (** edge [k] joins rows [f_ends.(2k) < f_ends.(2k + 1)]; edges in
          {!fold_edges} order *)
  f_mats : Mat.t array;
      (** edge [k]'s matrix, oriented with [f_ends.(2k)]'s colors as
          rows — the source graph's own matrix, not a copy *)
}

val freeze : t -> frozen
(** The live part of [g] as a frozen instance: fresh arrays for the
    vertices, costs and edge ends, the edge matrices shared. *)

val iter_adjacency : (int -> int -> Mat.t -> unit) -> t -> unit
(** Iterates over every {e stored} directed adjacency entry [(u, v, muv)],
    without the liveness and orientation filtering of {!fold_edges}: a
    symmetric edge is visited in both orientations, and entries dangling
    on dead vertices (which {!check} would reject) are visited too.  This
    exposes the raw representation for external invariant checkers; the
    matrices are the graph's own — do not mutate. *)

val equal : t -> t -> bool
(** Structural equality on live vertices, costs and edges (exact). *)

val approx_equal : ?eps:float -> t -> t -> bool

val check : t -> unit
(** Validates internal invariants (orientation coherence, symmetry, no
    dead-edge references); raises [Failure] describing the first violation.
    Used by tests. *)

val pp : Format.formatter -> t -> unit
