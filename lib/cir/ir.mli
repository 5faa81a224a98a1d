(** The compiler's intermediate representation: a control-flow graph of
    basic blocks over typed virtual registers (three-address code).

    Lowered from MiniC; the register allocators and the VCPU backend
    consume it.  Each block records the syntactic loop depth it was
    created at (used for spill weights). *)

type vreg = int

type typ = Tint | Tfloat

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | Fadd | Fsub | Fmul | Fdiv
  | Flt | Fle | Fgt | Fge | Feq | Fne

type value = VReg of vreg | VInt of int | VFloat of float

type instr =
  | Bin of binop * vreg * value * value
  | Mov of vreg * value
  | I2f of vreg * value
  | F2i of vreg * value
  | Load of vreg * string * value  (** d = array[idx] *)
  | Store of string * value * value  (** array[idx] = v *)
  | Load_var of vreg * string  (** d = global scalar *)
  | Store_var of string * value
  | Call of vreg option * string * value list
  | Print of typ * value

type terminator =
  | Ret of value option
  | Jmp of int
  | Br of value * int * int  (** if v ≠ 0 then first else second *)

type block = {
  id : int;
  mutable instrs : instr list;  (** in execution order *)
  mutable term : terminator;
  depth : int;  (** syntactic loop nesting depth *)
}

type func = {
  name : string;
  params : vreg list;
  ret : typ option;
  mutable blocks : block array;  (** [blocks.(i).id = i]; entry is 0 *)
  mutable vreg_types : typ array;  (** indexed by vreg *)
}

type global = Array of typ * int | Scalar of typ

type program = { globals : (string * global) list; funcs : func list }

val nvregs : func -> int
val vreg_type : func -> vreg -> typ
val block : func -> int -> block

val defs : instr -> vreg list
val uses_instr : instr -> vreg list
val uses_term : terminator -> vreg list
val successors : terminator -> int list

val find_func : program -> string -> func option

val pp_func : Format.formatter -> func -> unit
val pp_program : Format.formatter -> program -> unit

val check : program -> (unit, string) result
(** Structural sanity: block ids match indices, branch targets exist,
    vregs within range, called functions defined with matching arity. *)
