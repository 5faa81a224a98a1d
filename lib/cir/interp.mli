(** Reference interpreter over virtual registers.

    The semantic ground truth: every register allocator's generated code
    must reproduce exactly the outputs this interpreter produces (the
    end-to-end property the test suite checks). *)

type value = I of int | F of float

type outcome = {
  output : string list;  (** one entry per [print], in order *)
  ret : value option;
  steps : int;  (** instructions executed *)
}

exception Runtime_error of string
(** Division by zero, array index out of bounds, missing entry function,
    or fuel exhaustion. *)

val run : ?fuel:int -> Ir.program -> outcome
(** Runs [main] with no arguments; fuel defaults to [50_000_000]. *)

val value_to_string : value -> string
(** The exact formatting [print] uses. *)
