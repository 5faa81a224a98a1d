(* Output checks, run outside every timed region.  Each recomputes the
   answer's validity from the inputs the benchmark generated, with the
   repo's independent checkers: Check.Certify for PBQP solutions,
   Ate.Validate for ATE register assignments, Cir.Driver.reference for
   MiniC program output. *)

(* A claimed solution passes when it is well-formed, admissible and its
   recomputed cost matches the reported one. *)
let certified g sol ~reported =
  not (Check.Diag.has_errors (Check.Certify.solution ~reported g sol))

(* Recover the vreg -> physical register map from an allocated ATE
   program by walking it alongside the virtual-register original (the
   allocator rewrites registers in place, so the two align line by
   line).  [None] when they do not align or a vreg maps to two
   registers. *)
let assignment_of_allocated (orig : Ate.Ast.program) (alloc : Ate.Ast.program)
    =
  let map = Hashtbl.create 64 in
  let ok = ref (Array.length orig.lines = Array.length alloc.lines) in
  let pair a b =
    match (a, b) with
    | Ate.Ast.Virt v, Ate.Ast.Phys r -> (
        match Hashtbl.find_opt map v with
        | Some r' when r' <> r -> ok := false
        | _ -> Hashtbl.replace map v r)
    | Ate.Ast.Phys a, Ate.Ast.Phys b when a = b -> ()
    | _ -> ok := false
  in
  if !ok then
    Array.iteri
      (fun i line ->
        match (line, alloc.lines.(i)) with
        | Ate.Ast.Instr a, Ate.Ast.Instr b ->
            let ra = Ate.Ast.defs a @ Ate.Ast.uses a
            and rb = Ate.Ast.defs b @ Ate.Ast.uses b in
            if List.length ra = List.length rb then List.iter2 pair ra rb
            else ok := false
        | Ate.Ast.Label a, Ate.Ast.Label b when a = b -> ()
        | _ -> ok := false)
      orig.lines;
  if !ok then Some (Hashtbl.find_opt map) else None

(* An ATE allocation passes when the independent machine-rule checker
   accepts it and, as a PBQP solution of the program's graph, it
   certifies at cost 0 (every cost is 0 or infinite). *)
let ate_assignment_ok machine (info : Ate.Program.info) built ~assignment =
  Ate.Validate.check machine info ~assignment = Ok ()
  &&
  let sol =
    Pbqp.Solution.of_array
      (Array.map
         (fun v -> Option.value (assignment v) ~default:Pbqp.Solution.unassigned)
         built.Ate.Pbqp_build.vreg_of_vertex)
  in
  certified built.Ate.Pbqp_build.graph sol ~reported:Pbqp.Cost.zero

(* A MiniC allocation as the PBQP solution it encodes: each vreg's
   register, or the spill color. *)
let minic_solution (t : Cir.Alloc_pbqp.t) (alloc : Cir.Regalloc.allocation) =
  Pbqp.Solution.of_array
    (Array.map
       (fun v ->
         match alloc.(v) with
         | Cir.Regalloc.Reg r -> r
         | Cir.Regalloc.Spill -> Cir.Alloc_pbqp.spill_color)
       t.Cir.Alloc_pbqp.vregs)
