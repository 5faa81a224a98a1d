(** Independent checker for ATE register assignments.

    Re-verifies every machine constraint directly on the program — operand
    classes, pairing, liveness interference, and the major-cycle rules —
    without going through the PBQP encoding.  The tests use it to
    cross-validate {!Pbqp_build}: any zero-cost PBQP solution must pass
    this checker, and vice versa. *)

val check :
  Machine.t ->
  Program.info ->
  assignment:(int -> int option) ->
  (unit, string) result
(** [assignment v] is the physical register of virtual register [v]. *)
