(** Exact supervision labels: [(graph, assignment, cost)] records whose
    assignment is a {e proven-optimal} coloring (from {!Solvers.Exact}),
    for supervised pretraining of the policy/value net.

    A label expands into one training tuple per move ({!to_samples}): the
    state walk replays the optimal assignment in a coloring order, with a
    one-hot policy at the optimal color and value +1 (the optimal line of
    play wins-or-ties any opponent under the comparison reward of
    §III-B).  {!Train} can seed its replay buffer from a label file
    before self-play begins (the [pretrain_labels] config field /
    [bin/train --pretrain-labels]). *)

open Pbqp

type t = {
  graph : Graph.t;
  assignment : Solution.t;  (** complete over the graph's live vertices *)
  cost : Cost.t;  (** the proven optimum (Equation 1 of [assignment]) *)
}

val of_exact :
  ?max_nodes:int -> ?max_seconds:float -> Graph.t -> t option
(** Solve [g] exactly and wrap the proven optimum; [None] when the exact
    search times out or the instance is infeasible. *)

val to_samples :
  ?order:Order.kind ->
  ?rng:Random.State.t ->
  t ->
  Nn.Pvnet.sample list
(** One tuple per move of the optimal assignment replayed in [order]
    (default [By_id], matching self-play), each with value [+1.0].
    @raise Invalid_argument if the assignment is not a legal play of its
    graph. *)

(** {1 Persistence}

    Line-oriented text, one record per [label .. endlabel] block:
    {v
    label <cost>
    assign <c_0> ... <c_{capacity-1}>   # -1 = unassigned (dead vertex)
    <graph in Pbqp.Io format>
    endlabel
    v} *)

val save : string -> t list -> unit
val load : string -> t list
(** @raise Invalid_argument with a descriptive message on malformed
    input. *)
