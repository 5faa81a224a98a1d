(** Deterministic generator for the product-level ATE benchmark programs.

    The paper evaluates on 10 proprietary programs (PRO1–PRO10) whose PBQP
    graphs have 28–241 vertices with ≈40% of vertices at liberty ≤ 4
    (§II-B, §V-B).  This generator synthesizes loop-structured
    test-pattern programs — counter-driven loops over ALU chains, shifts
    into data registers, and pattern emissions — whose PBQP graphs match
    that profile.  The generator carries a concrete register assignment
    (a {e witness}) along while it generates, so every emitted program is
    allocatable by construction — mirroring the fact that the paper's
    programs are real, compilable products — while the witness itself
    never appears in the program, leaving a planted-solution search
    problem. *)

val pro_sizes : int array
(** Target PBQP vertex counts for PRO1..PRO10: 28 … 241. *)

val generate_with_witness :
  ?machine:Machine.t ->
  rng:Random.State.t ->
  target_vregs:int ->
  unit ->
  Ast.program * (int -> int option)
(** A program and its feasibility witness (vreg → physical register). *)

val generate :
  ?machine:Machine.t ->
  rng:Random.State.t ->
  target_vregs:int ->
  unit ->
  Ast.program
(** The program only. *)

val pro : ?machine:Machine.t -> int -> Ast.program
(** [pro k] for [k ∈ 1..10]: the deterministic, feasible PRO[k].
    @raise Invalid_argument on an out-of-range index. *)

