let pro_sizes = [| 28; 41; 60; 77; 95; 118; 142; 170; 205; 241 |]

(* The generator maintains an actual register assignment (the "witness")
   while it generates: every new virtual register is given a concrete
   physical register consistent with every machine constraint — classes,
   pairing, interference and the major-cycle rules — at the moment its
   defining instruction is emitted.  Programs are therefore allocatable by
   construction (like the paper's real, compilable products), yet the
   witness never appears in the emitted program, so the PBQP instance is a
   planted-solution search problem. *)

type gen = {
  machine : Machine.t;
  rng : Random.State.t;
  mutable next_vreg : int;
  mutable lines : Ast.line list;  (* reversed *)
  mutable pos : int;  (* next instruction position *)
  mutable cur_cycle : int;
  occupied : bool array;  (* physical registers held by live vregs *)
  phys : (int, int) Hashtbl.t;  (* vreg -> witness register *)
  mutable cyc_writes : int list;  (* physical regs written this cycle *)
  mutable cyc_reads : int list;  (* physical regs read this cycle *)
  mutable pool : int list;  (* live general-purpose vregs, newest first *)
  mutable label_id : int;
  mutable cur_loop : int;  (* id of the loop being generated, -1 outside *)
  def_loop : (int, int) Hashtbl.t;  (* vreg -> loop it was defined in *)
  mutable deferred : int list;  (* releases postponed to the loop's end *)
}

let create machine rng =
  {
    machine;
    rng;
    next_vreg = 0;
    lines = [];
    pos = 0;
    cur_cycle = 0;
    occupied = Array.make machine.Machine.nregs false;
    phys = Hashtbl.create 64;
    cyc_writes = [];
    cyc_reads = [];
    pool = [];
    label_id = 0;
    cur_loop = -1;
    def_loop = Hashtbl.create 64;
    deferred = [];
  }

let refresh g =
  let c = Program.cycle_of g.machine g.pos in
  if c <> g.cur_cycle then begin
    g.cur_cycle <- c;
    g.cyc_writes <- [];
    g.cyc_reads <- []
  end

let preg g v = Hashtbl.find g.phys v

(* Can the witness register [r] be written at the current position? *)
let writable g r = not (List.mem r g.cyc_writes || List.mem r g.cyc_reads)

(* Pick a witness register for a fresh vreg defined at the current
   position: free, in [cls], compatible with every register in
   [pair_with], and not violating the major-cycle rules. *)
let alloc g ?(cls = Machine.Any) ?(pair_with = []) () =
  refresh g;
  let candidates =
    Machine.class_regs g.machine cls
    |> List.filter (fun r ->
           (not g.occupied.(r))
           && writable g r
           && List.for_all (Machine.pair_compatible g.machine r) pair_with)
  in
  match candidates with
  | [] -> None
  | cs -> Some (List.nth cs (Random.State.int g.rng (List.length cs)))

let take g v r =
  Hashtbl.replace g.phys v r;
  Hashtbl.replace g.def_loop v g.cur_loop;
  g.occupied.(r) <- true

let release g v =
  let r = preg g v in
  g.occupied.(r) <- false

(* A vreg defined before the current loop but used inside it is live
   across the whole loop (back edge), so its register must stay occupied
   until the loop closes. *)
let release_smart g v =
  if g.cur_loop >= 0 && Hashtbl.find g.def_loop v <> g.cur_loop then
    g.deferred <- v :: g.deferred
  else release g v

(* Emit an instruction, recording its witness-level reads and writes in
   the current major cycle. *)
let emit g instr =
  refresh g;
  let vr = function Ast.Virt v -> preg g v | Ast.Phys p -> p in
  g.cyc_reads <- List.map vr (Ast.uses instr) @ g.cyc_reads;
  g.cyc_writes <- List.map vr (Ast.defs instr) @ g.cyc_writes;
  g.lines <- Ast.Instr instr :: g.lines;
  g.pos <- g.pos + 1

let emit_label g l = g.lines <- Ast.Label l :: g.lines

let pad_to_writable g r =
  (* Nop until the major cycle allows writing [r] (a fresh cycle always
     does). *)
  refresh g;
  while not (writable g r) do
    emit g Ast.Nop;
    refresh g
  done

let fresh g =
  let v = g.next_vreg in
  g.next_vreg <- v + 1;
  v

let fresh_label g prefix =
  let l = Printf.sprintf "%s%d" prefix g.label_id in
  g.label_id <- g.label_id + 1;
  l

let pool_cap = 6

let push_pool g v =
  g.pool <- v :: g.pool;
  if List.length g.pool > pool_cap then begin
    let keep, drop = (List.filteri (fun i _ -> i < pool_cap) g.pool,
                      List.filteri (fun i _ -> i >= pool_cap) g.pool) in
    List.iter (release_smart g) drop;
    g.pool <- keep
  end

let imm g = Ast.Imm (Random.State.int g.rng 256)

let new_value g =
  match alloc g () with
  | None -> false
  | Some r ->
      let v = fresh g in
      take g v r;
      emit g (Ast.Mov { dst = Ast.Virt v; src = imm g });
      push_pool g v;
      true

(* All (a, b) pool pairs whose witness registers are pairing-compatible. *)
let compatible_pairs g =
  let rec go acc = function
    | [] -> acc
    | a :: rest ->
        let acc =
          List.fold_left
            (fun acc b ->
              if Machine.pair_compatible g.machine (preg g a) (preg g b) then
                (a, b) :: acc
              else acc)
            acc rest
        in
        go acc rest
  in
  go [] g.pool

let binary_op g =
  match compatible_pairs g with
  | [] -> ignore (new_value g)
  | pairs -> (
      let a, b = List.nth pairs (Random.State.int g.rng (List.length pairs)) in
      match alloc g () with
      | None -> ignore (new_value g)
      | Some r ->
          let d = fresh g in
          take g d r;
          let mk =
            match Random.State.int g.rng 3 with
            | 0 -> fun dst src1 src2 -> Ast.Add { dst; src1; src2 }
            | 1 -> fun dst src1 src2 -> Ast.Sub { dst; src1; src2 }
            | _ -> fun dst src1 src2 -> Ast.And { dst; src1; src2 }
          in
          emit g (mk (Ast.Virt d) (Ast.Virt a) (Ast.Virt b));
          push_pool g d)

(* shl into a data-bank register, then route it to the pins through a
   pattern register; both are short-lived. *)
let shift_op g =
  match g.pool with
  | src :: _ -> (
      match alloc g ~cls:Machine.Data () with
      | None -> ignore (new_value g)
      | Some rd -> (
          let d = fresh g in
          take g d rd;
          emit g
            (Ast.Shl
               { dst = Ast.Virt d; src = Ast.Virt src;
                 amount = 1 + Random.State.int g.rng 4 });
          match alloc g ~cls:Machine.Pattern () with
          | None ->
              release_smart g d;
              ignore (new_value g)
          | Some rp ->
              let p = fresh g in
              take g p rp;
              emit g (Ast.Mov { dst = Ast.Virt p; src = Ast.Reg (Ast.Virt d) });
              release_smart g d;
              emit g (Ast.Emit [ Ast.Virt p ]);
              release_smart g p))
  | [] -> ignore (new_value g)

let emit_op g =
  let k = 1 + Random.State.int g.rng 2 in
  let patterns =
    List.filter_map
      (fun _ ->
        match alloc g ~cls:Machine.Pattern () with
        | None -> None
        | Some rp ->
            let p = fresh g in
            take g p rp;
            let src =
              match g.pool with
              | v :: _ when Random.State.bool g.rng -> Ast.Reg (Ast.Virt v)
              | _ -> imm g
            in
            emit g (Ast.Mov { dst = Ast.Virt p; src });
            Some p)
      (List.init k Fun.id)
  in
  match patterns with
  | [] -> ignore (new_value g)
  | ps ->
      emit g (Ast.Emit (List.map (fun p -> Ast.Virt p) ps));
      List.iter (release_smart g) ps

let body_op g =
  match Random.State.int g.rng 10 with
  | 0 | 1 | 2 | 3 -> binary_op g
  | 4 | 5 -> shift_op g
  | 6 | 7 -> emit_op g
  | _ -> ignore (new_value g)

let segment g =
  (* a mostly segment-local pool: carry a couple of values across the
     boundary for long live ranges, release the rest *)
  (match g.pool with
  | a :: b :: rest ->
      List.iter (release g) rest;
      g.pool <- [ a; b ]
  | _ -> ());
  match alloc g ~cls:Machine.Counter () with
  | None -> (* counters exhausted: pathological; just emit filler *) emit g Ast.Nop
  | Some rc -> (
      let c = fresh g in
      take g c rc;
      emit g (Ast.Mov { dst = Ast.Virt c; src = Ast.Imm (2 + Random.State.int g.rng 14) });
      match alloc g ~pair_with:[ rc ] () with
      | None ->
          release g c;
          emit g Ast.Nop
      | Some rdec ->
          let dec = fresh g in
          take g dec rdec;
          emit g (Ast.Mov { dst = Ast.Virt dec; src = Ast.Imm 1 });
          let l = fresh_label g "loop" in
          emit_label g l;
          g.cur_loop <- g.label_id;
          let body_len = 7 + Random.State.int g.rng 6 in
          for _ = 1 to body_len do
            body_op g
          done;
          (* the counter must be writable here (write-once per cycle) *)
          pad_to_writable g rc;
          emit g
            (Ast.Sub { dst = Ast.Virt c; src1 = Ast.Virt c; src2 = Ast.Virt dec });
          emit g (Ast.Jnz { counter = Ast.Virt c; target = l });
          g.cur_loop <- -1;
          List.iter (release g) g.deferred;
          g.deferred <- [];
          release g c;
          release g dec)

let generate_with_witness ?(machine = Machine.default) ~rng ~target_vregs () =
  let g = create machine rng in
  (* Long-lived globals defined up front and consumed at the very end.
     They stay out of the pool so no eviction ever releases their
     registers while they are live. *)
  let globals =
    List.filter_map
      (fun _ ->
        match alloc g () with
        | None -> None
        | Some r ->
            let v = fresh g in
            take g v r;
            emit g (Ast.Mov { dst = Ast.Virt v; src = imm g });
            Some v)
      [ (); () ]
  in
  let guard = ref 0 in
  while g.next_vreg < target_vregs - 3 && !guard < 10_000 do
    incr guard;
    segment g
  done;
  (match globals with
  | [ g1; g2 ]
    when Machine.pair_compatible machine (preg g g1) (preg g g2) -> (
      match alloc g () with
      | Some r -> (
          let d = fresh g in
          take g d r;
          emit g
            (Ast.Add { dst = Ast.Virt d; src1 = Ast.Virt g1; src2 = Ast.Virt g2 });
          match alloc g ~cls:Machine.Pattern () with
          | Some rp ->
              let p = fresh g in
              take g p rp;
              emit g (Ast.Mov { dst = Ast.Virt p; src = Ast.Reg (Ast.Virt d) });
              emit g (Ast.Emit [ Ast.Virt p ])
          | None -> ())
      | None -> ())
  | _ -> ());
  emit g Ast.Halt;
  let program =
    { Ast.name = "generated"; lines = Array.of_list (List.rev g.lines) }
  in
  let witness v = Hashtbl.find_opt g.phys v in
  (program, witness)

let generate ?machine ~rng ~target_vregs () =
  fst (generate_with_witness ?machine ~rng ~target_vregs ())

let pro ?(machine = Machine.default) k =
  if k < 1 || k > Array.length pro_sizes then
    invalid_arg "Progen.pro: index must be in 1..10";
  let target_vregs = pro_sizes.(k - 1) in
  let rng = Random.State.make [| 7919 * k; 104729 |] in
  let p, witness = generate_with_witness ~machine ~rng ~target_vregs () in
  let p = { p with Ast.name = Printf.sprintf "PRO%d" k } in
  (* defensive: the witness must pass the independent validator *)
  let info = Program.analyze_exn p in
  (match Validate.check machine info ~assignment:witness with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Progen.pro: witness invalid: %s" e));
  p
