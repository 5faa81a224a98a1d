(** PBQP solutions: one color per vertex.

    A solution assigns each original vertex a color in [0 .. m-1], or
    {!unassigned}.  {!cost} evaluates Equation 1 of the paper: the sum of
    selected cost-vector entries plus, for each edge counted once, the
    selected cost-matrix entry. *)

type t

val unassigned : int
(** The sentinel color [-1]. *)

val make : int -> t
(** All vertices unassigned. *)

val of_array : int array -> t
(** Copies. Entries must be [>= -1]. *)

val to_array : t -> int array

val copy : t -> t

val length : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit

val is_complete : t -> bool
(** Every vertex assigned. *)

val cost : Graph.t -> t -> Cost.t
(** Equation 1 on the {e original} (fully live) graph.  Unassigned vertices
    contribute [inf] (an incomplete solution is not a solution).
    @raise Invalid_argument if lengths differ or a color is out of range. *)

val partial_cost : Graph.t -> t -> Cost.t
(** Like {!cost} but unassigned vertices and their edges contribute zero —
    the cost of the colored prefix. *)

val valid : Graph.t -> t -> bool
(** Complete and of finite cost. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
