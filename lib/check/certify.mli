(** Solution certifier: accepts a solver's output only after recomputing
    everything from the original graph with its own (deliberately
    independent) cost loop — a bug in [Pbqp.Solution.cost] or in a
    solver's incremental bookkeeping shows up as a certification
    failure here. *)

val default_eps : float

(** Independent cost recomputation over the raw representation: vertex
    terms for every live vertex, each symmetric edge counted once via
    the [u < v] orientation, accumulated in a fixed ascending
    [(u, v)] order so the float sum is reproducible. *)
val recompute : Pbqp.Graph.t -> Pbqp.Solution.t -> Pbqp.Cost.t

(** Well-formedness + admissibility of a claimed solution; with
    [?reported], also recomputed-vs-reported cost agreement within a
    relative [eps]. *)
val solution :
  ?eps:float ->
  ?reported:Pbqp.Cost.t ->
  Pbqp.Graph.t ->
  Pbqp.Solution.t ->
  Diag.finding list

(** [valid g s] iff [solution g s] has no errors. *)
val valid : Pbqp.Graph.t -> Pbqp.Solution.t -> bool

type brute_verdict =
  | Optimal of Pbqp.Cost.t  (** exhaustive search completed *)
  | Skipped of string
      (** The search did not complete and no verdict exists; the payload
          says why (budget exhausted, and at what state count).  An
          explicit non-verdict: callers must surface it rather than
          treat it as a pass. *)
  | Infeasible

val brute_optimum : ?max_states:int -> Pbqp.Graph.t -> brute_verdict

(** A reported cost may not beat the brute-force optimum (when the
    search completes within budget; a [Skipped] verdict surfaces as a
    warning finding, never as a silent pass). *)
val against_brute :
  ?max_states:int ->
  ?eps:float ->
  Pbqp.Graph.t ->
  reported:Pbqp.Cost.t ->
  Diag.finding list

(** {1 Exact-solver oracle} *)

type oracle =
  | Proven of Pbqp.Cost.t
      (** The proven optimum; [Cost.inf] means proven infeasible. *)
  | Oracle_skipped of string
      (** The exact search hit its budget: optimality was {e not}
          certified (surfaced as a warning finding, never a vacuous
          pass). *)

(** [certify_optimal g ~reported] proves the optimum of [g] with the
    branch-and-bound solver ({!Solvers.Exact}) and certifies that
    [reported] does not beat it.  The oracle itself is not trusted: its
    witness solution is re-certified with {!solution} (findings prefixed
    ["exact/"]), and on graphs of at most [brute_cap] live vertices
    (default 8) its optimum is cross-checked against the independent
    exhaustive search — any disagreement is a [certify-exact-vs-brute]
    error. *)
val certify_optimal :
  ?max_nodes:int ->
  ?brute_cap:int ->
  ?eps:float ->
  Pbqp.Graph.t ->
  reported:Pbqp.Cost.t ->
  oracle * Diag.finding list

type solver_run = {
  solver : string;
  cost : Pbqp.Cost.t option;  (** [None]: solver found no solution *)
  findings : Diag.finding list;
}

(** Run the four classic solvers; certify every claimed solution, and
    when the brute-force search completes within budget, cross-check
    the heuristic costs against the optimum and the feasibility claims
    against each other. *)
val classic_solvers :
  ?max_states:int ->
  Pbqp.Graph.t ->
  solver_run list * Diag.finding list

(** [classic_solvers] flattened into one finding list, each rule
    prefixed with the solver's name. *)
val classic_findings :
  ?max_states:int -> Pbqp.Graph.t -> Diag.finding list
