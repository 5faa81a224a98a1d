(** PBQP well-formedness analyzer.

    [Pbqp.Graph.check] fail-fasts on the first broken internal
    invariant; this pass instead scans the raw representation (the
    adjacency tables, the alive mask, the cost vectors) and reports
    {e every} violation as a finding, plus semantic diagnostics the
    kernel cannot enforce locally: NaN / -inf entries, vertices with no
    admissible color, and arc inconsistency. *)

(** Full scan of a graph: representation invariants (symmetric storage,
    transposed reverse matrices, no self-loops / duplicates / dangling
    entries, clean dead vertices), per-vertex cost sanity, and — once
    the representation itself is sane — arc consistency. *)
val graph : Pbqp.Graph.t -> Diag.finding list

(** Parse a textual instance; parse errors come back as findings that
    point at the offending input line. *)
val parse_string : string -> (Pbqp.Graph.t, Diag.finding list) result

val parse_file : string -> (Pbqp.Graph.t, Diag.finding list) result

(** [parse_string] followed by [graph]; parse errors are findings. *)
val lint_string : string -> Diag.finding list
