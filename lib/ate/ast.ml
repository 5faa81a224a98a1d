type reg = Virt of int | Phys of int
type operand = Reg of reg | Imm of int

type instr =
  | Mov of { dst : reg; src : operand }
  | Add of { dst : reg; src1 : reg; src2 : reg }
  | Sub of { dst : reg; src1 : reg; src2 : reg }
  | And of { dst : reg; src1 : reg; src2 : reg }
  | Shl of { dst : reg; src : reg; amount : int }
  | Emit of reg list
  | Jnz of { counter : reg; target : string }
  | Jmp of string
  | Halt
  | Nop

type line = Instr of instr | Label of string
type program = { name : string; lines : line array }

let defs = function
  | Mov { dst; _ } | Add { dst; _ } | Sub { dst; _ } | And { dst; _ }
  | Shl { dst; _ } ->
      [ dst ]
  | Emit _ | Jnz _ | Jmp _ | Halt | Nop -> []

let uses = function
  | Mov { src = Reg r; _ } -> [ r ]
  | Mov { src = Imm _; _ } -> []
  | Add { src1; src2; _ } | Sub { src1; src2; _ } | And { src1; src2; _ } ->
      [ src1; src2 ]
  | Shl { src; _ } -> [ src ]
  | Emit rs -> rs
  | Jnz { counter; _ } -> [ counter ]
  | Jmp _ | Halt | Nop -> []

let pair_sources = function
  | Add { src1; src2; _ } | Sub { src1; src2; _ } | And { src1; src2; _ } ->
      Some (src1, src2)
  | _ -> None

let operand_classes = function
  | Jnz { counter; _ } -> [ (counter, Machine.Counter) ]
  | Shl { dst; _ } -> [ (dst, Machine.Data) ]
  | Emit rs -> List.map (fun r -> (r, Machine.Pattern)) rs
  | _ -> []

let map_regs f = function
  | Mov { dst; src } ->
      Mov { dst = f dst; src = (match src with Reg r -> Reg (f r) | i -> i) }
  | Add { dst; src1; src2 } -> Add { dst = f dst; src1 = f src1; src2 = f src2 }
  | Sub { dst; src1; src2 } -> Sub { dst = f dst; src1 = f src1; src2 = f src2 }
  | And { dst; src1; src2 } -> And { dst = f dst; src1 = f src1; src2 = f src2 }
  | Shl { dst; src; amount } -> Shl { dst = f dst; src = f src; amount }
  | Emit rs -> Emit (List.map f rs)
  | Jnz { counter; target } -> Jnz { counter = f counter; target }
  | (Jmp _ | Halt | Nop) as i -> i

let pp_reg ppf = function
  | Virt v -> Format.fprintf ppf "v%d" v
  | Phys p -> Format.fprintf ppf "r%d" p

let pp_operand ppf = function
  | Reg r -> pp_reg ppf r
  | Imm i -> Format.fprintf ppf "#%d" i

let pp_instr ppf = function
  | Mov { dst; src } -> Format.fprintf ppf "mov %a, %a" pp_reg dst pp_operand src
  | Add { dst; src1; src2 } ->
      Format.fprintf ppf "add %a, %a, %a" pp_reg dst pp_reg src1 pp_reg src2
  | Sub { dst; src1; src2 } ->
      Format.fprintf ppf "sub %a, %a, %a" pp_reg dst pp_reg src1 pp_reg src2
  | And { dst; src1; src2 } ->
      Format.fprintf ppf "and %a, %a, %a" pp_reg dst pp_reg src1 pp_reg src2
  | Shl { dst; src; amount } ->
      Format.fprintf ppf "shl %a, %a, %d" pp_reg dst pp_reg src amount
  | Emit rs ->
      Format.fprintf ppf "emit %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_reg)
        rs
  | Jnz { counter; target } -> Format.fprintf ppf "jnz %a, %s" pp_reg counter target
  | Jmp target -> Format.fprintf ppf "jmp %s" target
  | Halt -> Format.pp_print_string ppf "halt"
  | Nop -> Format.pp_print_string ppf "nop"

let pp_program ppf p =
  Format.fprintf ppf ".name %s@\n" p.name;
  Array.iter
    (function
      | Label l -> Format.fprintf ppf "%s:@\n" l
      | Instr i -> Format.fprintf ppf "  %a@\n" pp_instr i)
    p.lines

let to_string p = Format.asprintf "%a" pp_program p
