module Iset = Set.Make (Int)

type t = {
  func : Ir.func;
  intervals : (int * int) array;
  interference : (int * int) list;
  moves : (int * int) list;
  across_call : Iset.t;
  weights : float array;
  max_pressure : int;
}

module Pset = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let analyze (f : Ir.func) =
  let nb = Array.length f.Ir.blocks in
  let nv = Ir.nvregs f in
  (* block-level use/def *)
  let buse = Array.make nb Iset.empty in
  let bdef = Array.make nb Iset.empty in
  Array.iteri
    (fun i b ->
      let use = ref Iset.empty and def = ref Iset.empty in
      List.iter
        (fun instr ->
          List.iter
            (fun v -> if not (Iset.mem v !def) then use := Iset.add v !use)
            (Ir.uses_instr instr);
          List.iter (fun v -> def := Iset.add v !def) (Ir.defs instr))
        b.Ir.instrs;
      List.iter
        (fun v -> if not (Iset.mem v !def) then use := Iset.add v !use)
        (Ir.uses_term b.Ir.term);
      buse.(i) <- !use;
      bdef.(i) <- !def)
    f.Ir.blocks;
  (* live-in/out fixpoint *)
  let live_in = Array.make nb Iset.empty in
  let live_out = Array.make nb Iset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = nb - 1 downto 0 do
      let out =
        List.fold_left
          (fun acc s -> Iset.union acc live_in.(s))
          Iset.empty
          (Ir.successors f.Ir.blocks.(i).Ir.term)
      in
      let inn = Iset.union buse.(i) (Iset.diff out bdef.(i)) in
      if not (Iset.equal out live_out.(i)) then begin
        live_out.(i) <- out;
        changed := true
      end;
      if not (Iset.equal inn live_in.(i)) then begin
        live_in.(i) <- inn;
        changed := true
      end
    done
  done;
  (* linear walk: positions, per-instruction live-after sets, products *)
  let intervals = Array.make nv (-1, -1) in
  let touch v pos =
    let lo, hi = intervals.(v) in
    intervals.(v) <- ((if lo = -1 then pos else min lo pos), max hi pos)
  in
  let interference = ref Pset.empty in
  let moves = ref [] in
  let across_call = ref Iset.empty in
  let weights = Array.make nv 0.0 in
  let max_pressure = ref 0 in
  let pos = ref 0 in
  Array.iteri
    (fun bi b ->
      let depth_w = 10.0 ** float_of_int b.Ir.depth in
      let block_start = !pos in
      (* per-instruction live-after sets, computed backward *)
      let instrs = Array.of_list b.Ir.instrs in
      let n = Array.length instrs in
      let live_after = Array.make (n + 1) Iset.empty in
      (* slot n is the terminator's live-after = block live-out *)
      live_after.(n) <- live_out.(bi);
      let term_live =
        Iset.union live_out.(bi) (Iset.of_list (Ir.uses_term b.Ir.term))
      in
      (* live set before the terminator = after the last instruction *)
      let cur = ref term_live in
      for i = n - 1 downto 0 do
        live_after.(i) <- !cur;
        let instr = instrs.(i) in
        List.iter (fun v -> cur := Iset.remove v !cur) (Ir.defs instr);
        List.iter (fun v -> cur := Iset.add v !cur) (Ir.uses_instr instr)
      done;
      (* walk forward assigning positions and collecting products *)
      Array.iteri
        (fun i instr ->
          let p = !pos in
          incr pos;
          List.iter
            (fun v ->
              touch v p;
              weights.(v) <- weights.(v) +. depth_w)
            (Ir.defs instr @ Ir.uses_instr instr);
          max_pressure := max !max_pressure (Iset.cardinal live_after.(i));
          let move_src =
            match instr with
            | Ir.Mov (_, Ir.VReg s) -> Some s
            | _ -> None
          in
          List.iter
            (fun d ->
              Iset.iter
                (fun v ->
                  if v <> d && Some v <> move_src then
                    interference :=
                      Pset.add (if d < v then (d, v) else (v, d)) !interference)
                live_after.(i);
              (match (instr, move_src) with
              | Ir.Mov (d', _), Some s when d' = d && s <> d ->
                  moves := (d, s) :: !moves
              | _ -> ()))
            (Ir.defs instr);
          match instr with
          | Ir.Call (dst, _, _) ->
              let crossing =
                match dst with
                | Some d -> Iset.remove d live_after.(i)
                | None -> live_after.(i)
              in
              across_call := Iset.union !across_call crossing
          | _ -> ())
        instrs;
      (* the terminator occupies a position too *)
      let p = !pos in
      incr pos;
      List.iter
        (fun v ->
          touch v p;
          weights.(v) <- weights.(v) +. depth_w)
        (Ir.uses_term b.Ir.term);
      (* intervals must cover live-through ranges (loop back edges would
         otherwise punch holes a linear scan cannot see) *)
      Iset.iter (fun v -> touch v block_start) live_in.(bi);
      Iset.iter (fun v -> touch v p) live_out.(bi))
    f.Ir.blocks;
  (* keep only move pairs whose ends do not interfere *)
  let interference_set = !interference in
  let moves =
    List.filter
      (fun (d, s) ->
        not (Pset.mem (if d < s then (d, s) else (s, d)) interference_set))
      !moves
    |> List.sort_uniq compare
  in
  (* params are live (and implicitly defined) from function entry: cover
     their start and make simultaneously-live params interfere *)
  List.iter (fun v -> touch v 0) f.Ir.params;
  let interference_set =
    List.fold_left
      (fun acc p ->
        Iset.fold
          (fun v acc ->
            if v <> p then Pset.add (if p < v then (p, v) else (v, p)) acc
            else acc)
          (if nb > 0 then live_in.(0) else Iset.empty)
          acc)
      interference_set f.Ir.params
  in
  {
    func = f;
    intervals;
    interference = Pset.elements interference_set;
    moves;
    across_call = !across_call;
    weights;
    max_pressure = !max_pressure;
  }
