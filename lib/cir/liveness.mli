(** Liveness analysis for the IR: block-level dataflow fixpoint, then
    per-instruction live sets on a linearization of the function.  Also
    derives everything the allocators consume: interference pairs (with
    Chaitin's move refinement), move pairs for coalescing, the set of
    vregs live across calls, loop-depth-weighted spill weights, and live
    intervals over the linear order. *)

module Iset : Set.S with type elt = int

type t = {
  func : Ir.func;
  intervals : (int * int) array;
      (** per vreg, [(first, last)] linear positions, [(-1, -1)] if the
          vreg never occurs *)
  interference : (int * int) list;  (** unordered pairs, [u < v] *)
  moves : (int * int) list;
      (** (dst, src) of reg-to-reg moves whose ends do not interfere *)
  across_call : Iset.t;  (** vregs live through at least one call *)
  weights : float array;
      (** spill weights: Σ over occurrences of 10^depth *)
  max_pressure : int;
}

val analyze : Ir.func -> t
