(** Reverse-mode automatic differentiation over {!Tensor}s.

    Build a computation as a DAG of nodes, call {!backward} on a scalar
    root, then read gradients with {!grad} (or {!var_grad} for trainable
    parameters).  One DAG per sample: nodes are cheap and thrown away.

    Trainable parameters enter a DAG through a {!ctx}: [of_var ctx v]
    returns the {e same} leaf node every time it is called with the same
    var in the same context, so a weight used at several places (e.g. the
    shared GCN weights applied at every vertex) accumulates all its
    gradient contributions in one place. *)

type t
(** A node: an immutable value plus a gradient slot. *)

type ctx

val ctx : unit -> ctx

val value : t -> Tensor.t

val grad : t -> Tensor.t
(** Zeros if the node was not reached by {!backward}. *)

val const : Tensor.t -> t
(** A leaf that accepts but ignores gradient. *)

val scalar : float -> t

val of_var : ctx -> Var.t -> t
(** Memoized leaf for a parameter (see above). *)

val var_grad : ctx -> Var.t -> Tensor.t option
(** The parameter's accumulated gradient after {!backward}; [None] if the
    var never entered this context or received no gradient. *)

(** {1 Operations} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Elementwise; shapes must match. *)

val scale : float -> t -> t
val neg : t -> t
val relu : t -> t
val tanh_ : t -> t
val mv : t -> t -> t
(** Matrix–vector product. *)

val linear :
  apply:(Tensor.t -> Tensor.t) -> transpose:(Tensor.t -> Tensor.t) -> t -> t
(** [linear ~apply ~transpose x] is [A x] for a constant linear map [A]
    given by its action, [apply v = A v], and its transpose's,
    [transpose g = Aᵀ g].  Gradient flows to [x] only: unlike {!mv} on a
    {!const} matrix, no [m × m] gradient is formed for [A].  With
    [apply = Tensor.mv a] and [transpose = Tensor.tmv a] it is bitwise
    [mv (const a) x], value and [x]'s gradient. *)

val matmul : t -> t -> t
val sum : t -> t
(** → scalar node. *)

val mean : t -> t
val concat1 : t list -> t
val mean_list : t list -> t
(** Elementwise mean of same-shape rank-1 nodes (GCN aggregation).
    @raise Invalid_argument on the empty list. *)

val softmax_xent : t -> Tensor.t -> t
(** [softmax_xent logits target] is the scalar
    [- Σ_i target_i · log softmax(logits)_i].  [target] is a constant
    distribution.  Gradient to logits: [softmax(logits) - target]. *)

val layernorm : ?eps:float -> gain:t -> bias:t -> t -> t
(** [layernorm ~gain ~bias x] normalizes a rank-1 [x] to zero mean / unit
    variance, then applies the learnable elementwise affine. *)

val backward : t -> unit
(** @raise Invalid_argument unless the root is a 1-element tensor. *)

val softmax : Tensor.t -> Tensor.t
(** Plain (non-differentiating) numerically-stable softmax, for
    inference. *)
