(** Abstract syntax of ATE test-pattern programs.

    A small ALPG-style instruction set: register moves, binary ALU
    operations (whose register sources must be a compatible pair),
    shifts, pattern emission onto the pins, and counter-driven loops.
    Programs manipulate either virtual registers ([Virt], before
    allocation / translation) or physical registers ([Phys], after). *)

type reg = Virt of int | Phys of int

type operand = Reg of reg | Imm of int

type instr =
  | Mov of { dst : reg; src : operand }
  | Add of { dst : reg; src1 : reg; src2 : reg }
  | Sub of { dst : reg; src1 : reg; src2 : reg }
  | And of { dst : reg; src1 : reg; src2 : reg }
  | Shl of { dst : reg; src : reg; amount : int }
  | Emit of reg list  (** drive pattern registers onto the pins *)
  | Jnz of { counter : reg; target : string }
  | Jmp of string
  | Halt
  | Nop

type line = Instr of instr | Label of string

type program = { name : string; lines : line array }

val defs : instr -> reg list
val uses : instr -> reg list

val pair_sources : instr -> (reg * reg) option
(** The two sources that must form a compatible pair (binary ALU ops). *)

val operand_classes : instr -> (reg * Machine.rclass) list
(** Register occurrences with a non-[Any] class constraint. *)

val map_regs : (reg -> reg) -> instr -> instr

val pp_reg : Format.formatter -> reg -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit
val to_string : program -> string
