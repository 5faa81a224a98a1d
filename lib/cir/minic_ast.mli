(** Abstract syntax of MiniC, the C-subset source language of the
    compiler substrate (see DESIGN.md: it stands in for the C programs of
    llvm-test-suite).

    Features: [int] and [float] scalars, global one-dimensional arrays,
    functions with parameters and recursion, [if]/[while]/[for], the
    usual arithmetic/comparison/logical operators, and [print]. *)

type typ = Tint | Tfloat

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | LAnd | LOr

type unop = Neg | LNot

type expr =
  | Int_lit of int
  | Float_lit of float
  | Var of string
  | Index of string * expr  (** [a[e]] — global arrays only *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list
  | Cast of typ * expr

type stmt =
  | Decl of typ * string * expr option
  | Assign of string * expr
  | Store of string * expr * expr  (** [a[e1] = e2] *)
  | If of expr * block * block option
  | While of expr * block
  | For of stmt option * expr option * stmt option * block
  | Return of expr option
  | Break
  | Continue
  | Expr_stmt of expr
  | Print of expr
  | Block of block

and block = stmt list

type func = {
  name : string;
  params : (typ * string) list;
  ret : typ option;
  body : block;
}

type global = Garray of typ * string * int | Gvar of typ * string * expr option

type program = { globals : global list; funcs : func list }
