(** Dense float tensors (rank 1 and 2), flat unboxed row-major storage.

    The minimal numeric substrate for the neural-network stack: no BLAS, no
    broadcasting — shapes must match exactly, and shape errors raise
    [Invalid_argument] eagerly.  Data is mutable; functions return fresh
    tensors unless suffixed [_into] or documented otherwise.

    Storage is one flat [floatarray] per tensor (unboxed float64; rank-2
    element [(i, j)] at flat index [i * cols + j]).  The serving-tier hot
    path additionally uses {!packed} (Bigarray float64 column panels for
    the fused GEMM). *)

type t

(** {1 Construction} *)

val zeros : int array -> t
(** @raise Invalid_argument unless the shape is [[|n|]] or [[|r; c|]] with
    positive dims. *)

val full : int array -> float -> t

val init1 : int -> (int -> float) -> t

val init2 : int -> int -> (int -> int -> float) -> t

val of_array1 : float array -> t
(** Copies. *)

val of_array2 : float array array -> t
(** Row-major copy. @raise Invalid_argument on ragged input. *)

val of_float_array : floatarray -> t
(** Rank-1 tensor copying an unboxed [floatarray].
    @raise Invalid_argument on empty input. *)

val scalar : float -> t
(** A 1-element rank-1 tensor. *)

(** {1 Shape} *)

val shape : t -> int array
val rank : t -> int
val numel : t -> int
val dim1 : t -> int
(** Length of a rank-1 tensor. @raise Invalid_argument on rank 2. *)

val dims2 : t -> int * int
(** (rows, cols) of a rank-2 tensor. @raise Invalid_argument on rank 1. *)

val same_shape : t -> t -> bool

(** {1 Access} *)

val get1 : t -> int -> float
val set1 : t -> int -> float -> unit
val get2 : t -> int -> int -> float
val set2 : t -> int -> int -> float -> unit
val to_array1 : t -> float array
val to_float_array : t -> floatarray
(** Copy of the flat storage, any rank (row-major for rank 2). *)

val data : t -> floatarray
(** The underlying flat buffer itself (no copy) — for in-place optimizer
    updates.  Rank-2 element [(i, j)] is at index [i * cols + j]. *)

val copy : t -> t
val fill : t -> float -> unit

(** {1 Elementwise} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add_into : t -> t -> unit
(** [add_into dst src]: [dst += src]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y]: [y += a * x]. *)

(** {1 Linear algebra} *)

val matmul_naive : t -> t -> t
(** rank-2 × rank-2, the straightforward three-loop kernel — the
    reference the packed kernels are equivalence-tested against. *)

(** {1 Packed-panel GEMM with fused epilogues}

    The serving-tier hot path: the B operand (in practice a transposed
    weight matrix, memoized per network version) is repacked once into
    contiguous width-8 column panels backed by a float64 [Bigarray], and
    the fused kernel computes [A × B] with the epilogue (bias add,
    residual add, relu) folded into the same pass — each output cell is
    accumulated in registers and written exactly once, so the forward
    makes one pass over memory instead of three. *)

type packed
(** A rank-2 operand repacked into contiguous column panels. *)

val pack : t -> packed
(** Pack a [k × n] matrix as the B operand. *)

val pack_transposed : t -> packed
(** [pack_transposed w] packs [wᵀ] without materializing the transpose:
    for an [n × k] weight matrix this yields the packed [k × n] B operand
    such that [matmul_packed_into out x (pack_transposed w)] computes
    [x × wᵀ] — the linear-layer forward. *)

val packed_dims : packed -> int * int
(** [(k, n)] dims of the packed operand. *)

val matmul_packed_into :
  ?bias:t -> ?residual:t -> ?relu:bool -> t -> t -> packed -> unit
(** [matmul_packed_into ?bias ?residual ?relu out a bp] writes
    [a × bp] into [out] with the optional epilogue applied per cell in
    this order: [+ bias.(j)], then [residual.(i, j) + ·], then relu.
    Bit-identical to the unfused {!matmul_naive} followed by separate
    bias/residual/relu passes (same float operations in the same order;
    each cell accumulates ascending-k with the same zero-skip).
    [out == residual] aliasing is allowed (each cell is read before its
    single write); [out] must not alias [a]. *)

val matmul_packed_prefix_into :
  rows:int -> bias:t -> relu:bool -> t -> t -> packed -> unit
(** [matmul_packed_prefix_into ~rows ~bias ~relu out a bp] is
    {!matmul_packed_into} over the first [rows] rows of [a] and [out],
    which may each have more: rows past [rows] are neither read nor
    written.  Lets a caller keep one capacity-sized buffer for products
    whose row count changes call to call (the GCN message pass, one row
    per live vertex).  Bit-identical, row for row, to
    {!matmul_packed_into} on exact-shape operands, and allocates
    nothing.
    @raise Invalid_argument if [rows] is negative or exceeds a buffer,
    or as {!matmul_packed_into}. *)

val matmul_packed_prefix_residual_into :
  rows:int -> bias:t -> residual:t -> relu:bool -> t -> t -> packed -> unit
(** {!matmul_packed_prefix_into} with a residual, whose first [rows]
    rows are read. *)

val mv : t -> t -> t
(** rank-2 × rank-1 → rank-1. *)

val tmv : t -> t -> t
(** [tmv m v] is [transpose m × v] without materializing the transpose. *)

val outer : t -> t -> t
(** [outer u v] is the rank-2 tensor [u vᵀ]. *)

val dot : t -> t -> float
val transpose : t -> t

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_value : t -> float
val argmax1 : t -> int
val l2norm_sq : t -> float

(** {1 Random initialization} *)

val uniform : rng:Random.State.t -> lo:float -> hi:float -> int array -> t
val gaussian : rng:Random.State.t -> mean:float -> stddev:float -> int array -> t

val xavier : rng:Random.State.t -> fan_in:int -> fan_out:int -> int array -> t
(** Glorot-uniform initialization. *)

(** {1 Misc} *)

val concat1 : t list -> t
(** Concatenation of rank-1 tensors. *)

val blit_row_into : t -> int -> t -> unit
(** [blit_row_into src i dst] copies the rank-1 tensor [src] into row [i]
    of the rank-2 tensor [dst] in place (unsafe inner loop, no allocation).
    @raise Invalid_argument on a width mismatch or row out of bounds. *)

val stack_rows : t list -> t
(** Stack rank-1 tensors of equal length as the rows of a rank-2 tensor
    (a thin wrapper over {!blit_row_into}).
    @raise Invalid_argument on an empty list or ragged lengths. *)

val row : t -> int -> t
(** [row m i] is a fresh rank-1 copy of row [i] of a rank-2 tensor. *)

val approx_equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
