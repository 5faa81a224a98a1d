(** PBQP-based register allocation for the VCPU (the paper's §V-C setup:
    "the cost values are provided by the PBQP module of LLVM" — here, by
    this module).

    Colors: [0 .. Target.num_regs-1] are the physical registers, the last
    color is the {e spill option}.  Vertex vectors: ∞ for registers the
    vreg's constraints exclude, a small cost for callee-saved registers,
    and the spill weight on the spill entry.  Edge matrices: ∞ where two
    interfering vregs would share a register; a negative coalescing
    credit on the diagonal for move-related pairs. *)

type t = {
  graph : Pbqp.Graph.t;
  vregs : int array;  (** vertex index → vreg *)
  vertex_of_vreg : (int, int) Hashtbl.t;
}

val spill_color : int
(** [Target.num_regs]. *)

val num_colors : int

val build : Liveness.t -> t

val allocation_of_solution : t -> Ir.func -> Pbqp.Solution.t -> Regalloc.allocation

val solve_scholz : Liveness.t -> Regalloc.allocation * Pbqp.Cost.t
(** The paper's PBQP allocator: Scholz–Eckstein on the graph. *)

val solve_rl :
  net:Nn.Pvnet.t ->
  ?mcts:Mcts.config ->
  Liveness.t ->
  Regalloc.allocation * Pbqp.Cost.t
(** PBQP-RL: the Deep-RL solver in minimization mode (no backtracking,
    §V-C), run on the R0/R1/R2-exact residual as the LLVM PBQP framework
    would.  Falls back to the Scholz solution in the (theoretically
    impossible, since the spill color is always admissible) event of a
    dead end. *)
