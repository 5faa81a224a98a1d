let vregs_of regs =
  List.filter_map (function Ast.Virt v -> Some v | Ast.Phys _ -> None) regs

let check machine info ~assignment =
  let result = ref (Ok ()) in
  let fail fmt = Printf.ksprintf (fun s -> if !result = Ok () then result := Error s) fmt in
  let phys v =
    match assignment v with
    | Some p when p >= 0 && p < machine.Machine.nregs -> p
    | Some p ->
        fail "v%d assigned out-of-range register r%d" v p;
        0
    | None ->
        fail "v%d has no assignment" v;
        0
  in
  (* every vreg mapped *)
  List.iter (fun v -> ignore (phys v)) info.Program.vregs;
  (* operand classes *)
  Array.iter
    (fun instr ->
      List.iter
        (fun (r, cls) ->
          match r with
          | Ast.Virt v ->
              if not (Machine.class_allowed machine cls (phys v)) then
                fail "v%d -> r%d violates class %s" v (phys v)
                  (Machine.rclass_to_string cls)
          | Ast.Phys p ->
              if not (Machine.class_allowed machine cls p) then
                fail "r%d violates class %s" p (Machine.rclass_to_string cls))
        (Ast.operand_classes instr))
    info.Program.instrs;
  (* pairing *)
  Array.iter
    (fun instr ->
      match Ast.pair_sources instr with
      | Some (Ast.Virt a, Ast.Virt b) ->
          if not (Machine.pair_compatible machine (phys a) (phys b)) then
            fail "sources v%d (r%d) and v%d (r%d) are not a compatible pair" a
              (phys a) b (phys b)
      | _ -> ())
    info.Program.instrs;
  (* interference *)
  let live = Liveness.compute info in
  List.iter
    (fun (u, v) ->
      if phys u = phys v then
        fail "interfering v%d and v%d share r%d" u v (phys u))
    (Liveness.interference_pairs info live);
  (* major cycles: physical write-once and read-before-write *)
  let n = Array.length info.Program.instrs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Program.cycle_of machine i = Program.cycle_of machine j then begin
        let pdefs k =
          List.map phys (vregs_of (Ast.defs info.Program.instrs.(k)))
        in
        let puses k =
          List.map phys (vregs_of (Ast.uses info.Program.instrs.(k)))
        in
        List.iter
          (fun p ->
            if List.mem p (pdefs j) then
              fail "r%d written twice in major cycle %d" p
                (Program.cycle_of machine i))
          (pdefs i);
        List.iter
          (fun p ->
            if List.mem p (pdefs j) then
              fail "r%d read at %d before its write at %d (major cycle %d)" p i
                j (Program.cycle_of machine i))
          (puses i)
      end
    done
  done;
  !result
