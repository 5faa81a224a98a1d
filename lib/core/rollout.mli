(** Greedy roll-out evaluation (an extension beyond the paper).

    AlphaZero — and the paper — evaluate MCTS leaves with the value
    network alone.  At our laptop-scale training budget the value head is
    a weak ranker mid-game, so minimization-mode inference can optionally
    blend it with the reward of a {e greedy completion} of the leaf state
    (always picking the locally cheapest legal color, ties to the smaller
    color), in the spirit of AlphaGo's fast roll-out policy.
    Deterministic and disabled by default.

    A roll-out runs on the trail: from the current position it
    {!Istate.apply}s the greedy color until the game is complete or dead,
    reads the result, then {!Istate.undo}s every move it made.  Each step
    costs O(deg · m) for the fold into the neighbors plus O(remaining · m)
    for the dead-end scan, so a roll-out of [r] remaining vertices is
    O(r · (deg + r) · m) — no graph copy.  {!Istate.apply} performs exactly
    {!State.apply}'s float operations and undo re-installs the saved
    objects, so the cost is bitwise the one the persistent state would
    reach, and the trail ends on the same path node, with the same graph
    and hash, that it started from. *)

open Pbqp

val greedy_cost : Istate.t -> Cost.t
(** Complete the trail's current position greedily and return the final
    cost; [inf] on a dead end.  The trail is restored before returning. *)

val greedy_solution : Istate.t -> (Solution.t * Cost.t) option
(** The greedy completion itself (colors for every vertex the position
    still had to color, plus whatever was already assigned) and its cost;
    [None] on a dead end.  The trail is restored before returning. *)
