type value = I of int | F of float
type outcome = { output : string list; ret : value option; steps : int }

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let value_to_string = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.6f" f

let as_int = function I i -> i | F _ -> err "expected int value"
let as_float = function F f -> f | I _ -> err "expected float value"

type genv = {
  arrays : (string, value array) Hashtbl.t;
  scalars : (string, value ref) Hashtbl.t;
}

let make_genv (p : Ir.program) =
  let g = { arrays = Hashtbl.create 8; scalars = Hashtbl.create 8 } in
  List.iter
    (fun (name, glob) ->
      match glob with
      | Ir.Array (Ir.Tint, n) -> Hashtbl.replace g.arrays name (Array.make n (I 0))
      | Ir.Array (Ir.Tfloat, n) ->
          Hashtbl.replace g.arrays name (Array.make n (F 0.0))
      | Ir.Scalar Ir.Tint -> Hashtbl.replace g.scalars name (ref (I 0))
      | Ir.Scalar Ir.Tfloat -> Hashtbl.replace g.scalars name (ref (F 0.0)))
    p.Ir.globals;
  g

let eval_binop op a b =
  let bi f = I (f (as_int a) (as_int b)) in
  let bf f = F (f (as_float a) (as_float b)) in
  let ci f = I (if f (as_int a) (as_int b) then 1 else 0) in
  let cf f = I (if f (as_float a) (as_float b) then 1 else 0) in
  match op with
  | Ir.Add -> bi ( + )
  | Ir.Sub -> bi ( - )
  | Ir.Mul -> bi ( * )
  | Ir.Div -> if as_int b = 0 then err "integer division by zero" else bi ( / )
  | Ir.Mod -> if as_int b = 0 then err "integer modulo by zero" else bi (mod)
  | Ir.Lt -> ci ( < )
  | Ir.Le -> ci ( <= )
  | Ir.Gt -> ci ( > )
  | Ir.Ge -> ci ( >= )
  | Ir.Eq -> ci ( = )
  | Ir.Ne -> ci ( <> )
  | Ir.Fadd -> bf ( +. )
  | Ir.Fsub -> bf ( -. )
  | Ir.Fmul -> bf ( *. )
  | Ir.Fdiv -> bf ( /. )
  | Ir.Flt -> cf ( < )
  | Ir.Fle -> cf ( <= )
  | Ir.Fgt -> cf ( > )
  | Ir.Fge -> cf ( >= )
  | Ir.Feq -> cf ( = )
  | Ir.Fne -> cf ( <> )

let run ?(fuel = 50_000_000) (p : Ir.program) =
  let genv = make_genv p in
  let output = ref [] in
  let steps = ref 0 in
  let tick () =
    incr steps;
    if !steps > fuel then err "out of fuel (infinite loop?)"
  in
  let array_get name idx =
    match Hashtbl.find_opt genv.arrays name with
    | None -> err "no such array %s" name
    | Some a ->
        if idx < 0 || idx >= Array.length a then
          err "index %d out of bounds for %s[%d]" idx name (Array.length a)
        else a.(idx)
  in
  let array_set name idx v =
    match Hashtbl.find_opt genv.arrays name with
    | None -> err "no such array %s" name
    | Some a ->
        if idx < 0 || idx >= Array.length a then
          err "index %d out of bounds for %s[%d]" idx name (Array.length a)
        else a.(idx) <- v
  in
  let rec call fname args =
    match Ir.find_func p fname with
    | None -> err "call to undefined function %s" fname
    | Some f ->
        let regs =
          Array.init (Ir.nvregs f) (fun v ->
              match Ir.vreg_type f v with Ir.Tint -> I 0 | Ir.Tfloat -> F 0.0)
        in
        if List.length args <> List.length f.Ir.params then
          err "arity mismatch calling %s" fname;
        List.iter2 (fun v a -> regs.(v) <- a) f.Ir.params args;
        let value = function
          | Ir.VReg v -> regs.(v)
          | Ir.VInt i -> I i
          | Ir.VFloat f -> F f
        in
        let rec exec_block bid =
          let b = Ir.block f bid in
          List.iter
            (fun instr ->
              tick ();
              match instr with
              | Ir.Bin (op, d, a, c) -> regs.(d) <- eval_binop op (value a) (value c)
              | Ir.Mov (d, a) -> regs.(d) <- value a
              | Ir.I2f (d, a) -> regs.(d) <- F (float_of_int (as_int (value a)))
              | Ir.F2i (d, a) -> regs.(d) <- I (int_of_float (as_float (value a)))
              | Ir.Load (d, g, i) -> regs.(d) <- array_get g (as_int (value i))
              | Ir.Store (g, i, v) -> array_set g (as_int (value i)) (value v)
              | Ir.Load_var (d, g) -> regs.(d) <- !(Hashtbl.find genv.scalars g)
              | Ir.Store_var (g, v) -> Hashtbl.find genv.scalars g := value v
              | Ir.Call (d, name, cargs) -> (
                  let r = call name (List.map value cargs) in
                  match d with
                  | Some d -> regs.(d) <- Option.value r ~default:(I 0)
                  | None -> ())
              | Ir.Print (_, v) ->
                  output := value_to_string (value v) :: !output)
            b.Ir.instrs;
          tick ();
          match b.Ir.term with
          | Ir.Ret None -> None
          | Ir.Ret (Some v) -> Some (value v)
          | Ir.Jmp l -> exec_block l
          | Ir.Br (v, a, c) ->
              if (match value v with I 0 -> false | I _ -> true | F f -> f <> 0.0)
              then exec_block a
              else exec_block c
        in
        exec_block 0
  in
  let ret = call "main" [] in
  { output = List.rev !output; ret; steps = !steps }
