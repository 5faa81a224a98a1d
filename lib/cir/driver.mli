(** End-to-end compilation pipeline: MiniC source → IR → liveness →
    chosen register allocator → spill rewriting → VCPU simulation. *)

type alloc_kind =
  | Fast
  | Basic
  | Greedy
  | Pbqp  (** Scholz–Eckstein solver *)
  | Pbqp_rl of Nn.Pvnet.t * Mcts.config  (** this paper's solver *)

val alloc_kind_name : alloc_kind -> string

type result = {
  outcome : Msim.outcome;
  spills : int;  (** total spilled vregs across functions *)
  pbqp_cost : Pbqp.Cost.t option;
      (** total Equation-1 cost of the PBQP solutions (PBQP kinds only) *)
}

val allocate : alloc_kind -> Liveness.t -> Regalloc.allocation * Pbqp.Cost.t option

val run : alloc_kind -> Ir.program -> result
(** Compile every function with the given allocator and execute [main]
    on the VCPU simulator. *)

val reference : Ir.program -> Interp.outcome
(** The virtual-register reference semantics. *)
