(** Cost matrices.

    A cost matrix on edge [(u, v)] has [rows] = number of colors of [u] and
    [cols] = number of colors of [v]; entry [(i, j)] is the additional cost
    of coloring [u] with [i] {e and} [v] with [j].  The all-zero matrix
    means the two vertices do not interact (the edge is redundant). *)

type t = private { id : int; rows : int; cols : int; data : float array }
(** Entry [(i, j)] is [data.(i * cols + j)], read directly on hot paths like
    {!Vec.t}.  Written only through this module. *)

val make : rows:int -> cols:int -> Cost.t -> t

val init : rows:int -> cols:int -> (int -> int -> Cost.t) -> t

val of_arrays : float array array -> t
(** Row-major copy. @raise Invalid_argument on ragged input, empty input or
    NaN entries. *)

val id : t -> int
(** A unique identity minted at construction.  Every constructor
    ([init], [copy], [add], [map], [transpose], …) returns a fresh id;
    matrix contents are immutable except through {!set}, so the id is a
    sound memoization key for callers that never call [set] (the exact
    solver caches per-matrix row minima by it). *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> Cost.t

val set : t -> int -> int -> Cost.t -> unit

val copy : t -> t

val transpose : t -> t

val row : t -> int -> Vec.t
(** [row m i] is a fresh vector of row [i]. *)

val col : t -> int -> Vec.t

val add : t -> t -> t
(** Pointwise sum. @raise Invalid_argument on shape mismatch. *)

val add_into : t -> t -> unit

val add_row_into : t -> int -> Vec.t -> unit
(** [add_row_into m i v] accumulates row [i] of [m] into [v] in place,
    entry by entry in ascending column order — the same float additions
    as [Vec.add_into v (Mat.row m i)], without allocating the row.
    @raise Invalid_argument on a bad row index or length mismatch. *)

val is_zero : t -> bool
(** True iff every entry is exactly [0.] — the edge carries no constraint. *)

val has_inf : t -> bool

val min_value : t -> Cost.t

val interference : int -> t
(** [interference m] is the classic graph-coloring matrix: [inf] on the
    diagonal, [0] elsewhere. *)

val equal : t -> t -> bool

val approx_equal : ?eps:float -> t -> t -> bool

val map : (Cost.t -> Cost.t) -> t -> t

val iteri : (int -> int -> Cost.t -> unit) -> t -> unit

val pp : Format.formatter -> t -> unit
