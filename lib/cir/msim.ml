open Mach

type outcome = {
  output : string list;
  ret : Interp.value option;
  cycles : int;
  steps : int;
}

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt
let garbage = Interp.I 999999937

type genv = {
  arrays : (string, Interp.value array) Hashtbl.t;
  scalars : (string, Interp.value ref) Hashtbl.t;
}

let make_genv (p : mprogram) =
  let g = { arrays = Hashtbl.create 8; scalars = Hashtbl.create 8 } in
  List.iter
    (fun (name, glob) ->
      match glob with
      | Ir.Array (Ir.Tint, n) ->
          Hashtbl.replace g.arrays name (Array.make n (Interp.I 0))
      | Ir.Array (Ir.Tfloat, n) ->
          Hashtbl.replace g.arrays name (Array.make n (Interp.F 0.0))
      | Ir.Scalar Ir.Tint -> Hashtbl.replace g.scalars name (ref (Interp.I 0))
      | Ir.Scalar Ir.Tfloat ->
          Hashtbl.replace g.scalars name (ref (Interp.F 0.0)))
    p.globals;
  g

let as_int = function Interp.I i -> i | Interp.F _ -> err "expected int"
let as_float = function Interp.F f -> f | Interp.I _ -> err "expected float"

let eval_binop op a b =
  let bi f = Interp.I (f (as_int a) (as_int b)) in
  let bf f = Interp.F (f (as_float a) (as_float b)) in
  let ci f = Interp.I (if f (as_int a) (as_int b) then 1 else 0) in
  let cf f = Interp.I (if f (as_float a) (as_float b) then 1 else 0) in
  match op with
  | Ir.Add -> bi ( + )
  | Ir.Sub -> bi ( - )
  | Ir.Mul -> bi ( * )
  | Ir.Div -> if as_int b = 0 then err "division by zero" else bi ( / )
  | Ir.Mod -> if as_int b = 0 then err "modulo by zero" else bi (mod)
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

let run ?(fuel = 200_000_000) (p : mprogram) =
  let genv = make_genv p in
  let regs = Array.make Target.total_regs garbage in
  let output = ref [] in
  let cycles = ref 0 in
  let steps = ref 0 in
  let charge c =
    cycles := !cycles + c;
    incr steps;
    if !steps > fuel then err "out of fuel"
  in
  let array_get name idx =
    match Hashtbl.find_opt genv.arrays name with
    | None -> err "no such array %s" name
    | Some a ->
        if idx < 0 || idx >= Array.length a then
          err "index %d out of bounds for %s" idx name
        else a.(idx)
  in
  let array_set name idx v =
    match Hashtbl.find_opt genv.arrays name with
    | None -> err "no such array %s" name
    | Some a ->
        if idx < 0 || idx >= Array.length a then
          err "index %d out of bounds for %s" idx name
        else a.(idx) <- v
  in
  let rec call fname (argv : Interp.value list) : Interp.value option =
    match find_func p fname with
    | None -> err "call to undefined function %s" fname
    | Some f ->
        if List.length argv <> List.length f.params_loc then
          err "arity mismatch calling %s" fname;
        let slots = Array.make (max 1 f.nslots) garbage in
        (* deliver incoming arguments *)
        List.iter2
          (fun loc v ->
            match loc with
            | PReg r -> regs.(r) <- v
            | PSlot s -> slots.(s) <- v)
          f.params_loc argv;
        let mval = function
          | MReg r -> regs.(r)
          | MInt i -> Interp.I i
          | MFloat x -> Interp.F x
          | MSlot s -> slots.(s)
        in
        let rec exec bid =
          let b = f.blocks.(bid) in
          List.iter
            (fun instr ->
              match instr with
              | MBin (op, d, a, c) ->
                  charge (Target.cycles_of_binop op);
                  regs.(d) <- eval_binop op (mval a) (mval c)
              | MMov (d, a) ->
                  charge Target.cycles_alu;
                  regs.(d) <- mval a
              | MI2f (d, a) ->
                  charge Target.cycles_alu;
                  regs.(d) <- Interp.F (float_of_int (as_int (mval a)))
              | MF2i (d, a) ->
                  charge Target.cycles_alu;
                  regs.(d) <- Interp.I (int_of_float (as_float (mval a)))
              | MLoad (d, g, i) ->
                  charge Target.cycles_mem;
                  regs.(d) <- array_get g (as_int (mval i))
              | MStore (g, i, v) ->
                  charge Target.cycles_mem;
                  array_set g (as_int (mval i)) (mval v)
              | MLoad_var (d, g) ->
                  charge Target.cycles_mem;
                  regs.(d) <- !(Hashtbl.find genv.scalars g)
              | MStore_var (g, v) ->
                  charge Target.cycles_mem;
                  Hashtbl.find genv.scalars g := mval v
              | MSpill_load (r, s) ->
                  charge Target.cycles_mem;
                  regs.(r) <- slots.(s)
              | MSpill_store (r, s) ->
                  charge Target.cycles_mem;
                  slots.(s) <- regs.(r)
              | MPrint (_, v) ->
                  charge Target.cycles_alu;
                  output := Interp.value_to_string (mval v) :: !output
              | MCall (dst, name, margs) ->
                  let callee =
                    match find_func p name with
                    | Some c -> c
                    | None -> err "call to undefined function %s" name
                  in
                  charge
                    (Target.cycles_call
                    + List.length callee.callee_saved_used
                      * Target.cycles_save_restore);
                  (* slot-addressed arguments pay memory cost *)
                  List.iter
                    (function
                      | MSlot _ -> charge Target.cycles_mem | _ -> ())
                    margs;
                  let argv = List.map mval margs in
                  let saved =
                    List.map (fun r -> (r, regs.(r))) Target.callee_saved
                  in
                  let r = call name argv in
                  List.iter (fun (i, v) -> regs.(i) <- v) saved;
                  (* adversarial clobber of caller-saved + scratch *)
                  List.iter (fun i -> regs.(i) <- garbage) Target.caller_saved;
                  regs.(Target.scratch0) <- garbage;
                  regs.(Target.scratch1) <- garbage;
                  (match dst with
                  | Some d -> (
                      charge Target.cycles_alu;
                      match r with
                      | Some v -> regs.(d) <- v
                      | None -> regs.(d) <- garbage)
                  | None -> ()))
            b.instrs;
          match b.term with
          | MRet None ->
              charge Target.cycles_branch;
              None
          | MRet (Some v) ->
              charge Target.cycles_branch;
              Some (mval v)
          | MJmp l ->
              charge Target.cycles_branch;
              exec l
          | MBr (v, a, c) ->
              charge Target.cycles_branch;
              if
                (match mval v with
                | Interp.I 0 -> false
                | Interp.I _ -> true
                | Interp.F f -> f <> 0.0)
              then exec a
              else exec c
        in
        exec 0
  in
  let ret = call "main" [] in
  { output = List.rev !output; ret; cycles = !cycles; steps = !steps }
