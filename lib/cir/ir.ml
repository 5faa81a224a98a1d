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
  | Load of vreg * string * value
  | Store of string * value * value
  | Load_var of vreg * string
  | Store_var of string * value
  | Call of vreg option * string * value list
  | Print of typ * value

type terminator = Ret of value option | Jmp of int | Br of value * int * int

type block = {
  id : int;
  mutable instrs : instr list;
  mutable term : terminator;
  depth : int;
}

type func = {
  name : string;
  params : vreg list;
  ret : typ option;
  mutable blocks : block array;
  mutable vreg_types : typ array;
}

type global = Array of typ * int | Scalar of typ
type program = { globals : (string * global) list; funcs : func list }

let nvregs f = Array.length f.vreg_types
let vreg_type f v = f.vreg_types.(v)
let block f i = f.blocks.(i)

let defs = function
  | Bin (_, d, _, _) | Mov (d, _) | I2f (d, _) | F2i (d, _)
  | Load (d, _, _) | Load_var (d, _) ->
      [ d ]
  | Call (Some d, _, _) -> [ d ]
  | Call (None, _, _) | Store _ | Store_var _ | Print _ -> []

let vregs_of_values vals =
  List.filter_map (function VReg v -> Some v | _ -> None) vals

let uses_instr = function
  | Bin (_, _, a, b) -> vregs_of_values [ a; b ]
  | Mov (_, a) | I2f (_, a) | F2i (_, a) -> vregs_of_values [ a ]
  | Load (_, _, idx) -> vregs_of_values [ idx ]
  | Store (_, idx, v) -> vregs_of_values [ idx; v ]
  | Load_var _ -> []
  | Store_var (_, v) -> vregs_of_values [ v ]
  | Call (_, _, args) -> vregs_of_values args
  | Print (_, v) -> vregs_of_values [ v ]

let uses_term = function
  | Ret (Some v) -> vregs_of_values [ v ]
  | Ret None -> []
  | Jmp _ -> []
  | Br (v, _, _) -> vregs_of_values [ v ]

let successors = function
  | Ret _ -> []
  | Jmp l -> [ l ]
  | Br (_, a, b) -> if a = b then [ a ] else [ a; b ]

let find_func p name = List.find_opt (fun f -> f.name = name) p.funcs

(* --- printing --- *)

let binop_str = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq" | Ne -> "ne"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Flt -> "flt" | Fle -> "fle" | Fgt -> "fgt" | Fge -> "fge" | Feq -> "feq"
  | Fne -> "fne"

let pp_value ppf = function
  | VReg v -> Format.fprintf ppf "%%%d" v
  | VInt i -> Format.fprintf ppf "%d" i
  | VFloat f -> Format.fprintf ppf "%g" f

let pp_instr ppf = function
  | Bin (op, d, a, b) ->
      Format.fprintf ppf "%%%d = %s %a, %a" d (binop_str op) pp_value a
        pp_value b
  | Mov (d, a) -> Format.fprintf ppf "%%%d = %a" d pp_value a
  | I2f (d, a) -> Format.fprintf ppf "%%%d = i2f %a" d pp_value a
  | F2i (d, a) -> Format.fprintf ppf "%%%d = f2i %a" d pp_value a
  | Load (d, g, i) -> Format.fprintf ppf "%%%d = %s[%a]" d g pp_value i
  | Store (g, i, v) -> Format.fprintf ppf "%s[%a] = %a" g pp_value i pp_value v
  | Load_var (d, g) -> Format.fprintf ppf "%%%d = %s" d g
  | Store_var (g, v) -> Format.fprintf ppf "%s = %a" g pp_value v
  | Call (d, name, args) ->
      (match d with
      | Some d -> Format.fprintf ppf "%%%d = call %s(" d name
      | None -> Format.fprintf ppf "call %s(" name);
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        pp_value ppf args;
      Format.fprintf ppf ")"
  | Print (_, v) -> Format.fprintf ppf "print %a" pp_value v

let pp_term ppf = function
  | Ret None -> Format.fprintf ppf "ret"
  | Ret (Some v) -> Format.fprintf ppf "ret %a" pp_value v
  | Jmp l -> Format.fprintf ppf "jmp b%d" l
  | Br (v, a, b) -> Format.fprintf ppf "br %a, b%d, b%d" pp_value v a b

let pp_func ppf f =
  Format.fprintf ppf "@[<v>func %s(%a):" f.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf v -> Format.fprintf ppf "%%%d" v))
    f.params;
  Array.iter
    (fun b ->
      Format.fprintf ppf "@,b%d (depth %d):" b.id b.depth;
      List.iter (fun i -> Format.fprintf ppf "@,  %a" pp_instr i) b.instrs;
      Format.fprintf ppf "@,  %a" pp_term b.term)
    f.blocks;
  Format.fprintf ppf "@]"

let pp_program ppf p =
  List.iter
    (fun (name, g) ->
      match g with
      | Array (t, n) ->
          Format.fprintf ppf "global %s %s[%d]@,"
            (match t with Tint -> "int" | Tfloat -> "float")
            name n
      | Scalar t ->
          Format.fprintf ppf "global %s %s@,"
            (match t with Tint -> "int" | Tfloat -> "float")
            name)
    p.globals;
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
    pp_func ppf p.funcs

(* --- structural check --- *)

let check p =
  let result = ref (Ok ()) in
  let fail fmt =
    Printf.ksprintf (fun s -> if !result = Ok () then result := Error s) fmt
  in
  List.iter
    (fun f ->
      let n = Array.length f.blocks in
      let nv = nvregs f in
      let check_vreg v = if v < 0 || v >= nv then fail "%s: vreg %%%d out of range" f.name v in
      let check_target l =
        if l < 0 || l >= n then fail "%s: branch target b%d out of range" f.name l
      in
      List.iter check_vreg f.params;
      Array.iteri
        (fun i b ->
          if b.id <> i then fail "%s: block id mismatch at %d" f.name i;
          List.iter
            (fun instr ->
              List.iter check_vreg (defs instr);
              List.iter check_vreg (uses_instr instr);
              match instr with
              | Call (_, name, args) -> (
                  match find_func p name with
                  | None -> fail "%s: call to undefined %s" f.name name
                  | Some callee ->
                      if List.length callee.params <> List.length args then
                        fail "%s: call to %s with wrong arity" f.name name)
              | Load (_, g, _) | Store (g, _, _) -> (
                  match List.assoc_opt g p.globals with
                  | Some (Array _) -> ()
                  | _ -> fail "%s: %s is not a global array" f.name g)
              | Load_var (_, g) | Store_var (g, _) -> (
                  match List.assoc_opt g p.globals with
                  | Some (Scalar _) -> ()
                  | _ -> fail "%s: %s is not a global scalar" f.name g)
              | _ -> ())
            b.instrs;
          List.iter check_vreg (uses_term b.term);
          List.iter check_target (successors b.term))
        f.blocks)
    p.funcs;
  !result
