(** The VCPU simulator: executes machine code with a shared physical
    register file, per-frame spill slots, and a cycle cost model
    ({!Target}).  Speedups over the FAST allocator are the §V-C metric.

    The calling convention is enforced adversarially: after every call the
    caller-saved registers and the scratch registers are deliberately
    clobbered with garbage, so any allocation that wrongly keeps a live
    value there produces wrong output (and is caught by the end-to-end
    output-equality tests) rather than silently working. *)

type outcome = {
  output : string list;
  ret : Interp.value option;
  cycles : int;
  steps : int;
}

exception Runtime_error of string

val run : ?fuel:int -> Mach.mprogram -> outcome
(** Runs [main] with no arguments; fuel defaults to [200_000_000]. *)
