(* batch_corpus: sequential in-process passes over both fixture corpora,
   calling the library in the order the minicc and atec CLIs do.

   - The 24 MiniC programs: Lower.compile -> Liveness.analyze ->
     Driver.allocate (PBQP-RL, cpu_k24, k = 60) -> Regalloc.validate ->
     Rewrite.rewrite -> Msim.run.
   - PRO1..PRO8: Program.analyze -> Pbqp_build.build ->
     Solver.solve_feasible (ate_k25, k = 25, backtracking, increasing
     liberty, exact reduction, fixed backtrack budget) -> Translate.apply.

   PRO graphs reach 174 vertices, so this workload is GCN- and
   search-bound, and it bypasses the daemon, Nn.Infer and the shared
   cache: for optimisations to those layers it is the "no change"
   workload.  The corpus is fixed, so the seed changes nothing: runs on
   different seeds repeat the same work, in the same order. *)

open Common

let cpu_net_path = "bench_cache/cpu_k24.ckpt"
let ate_net_path = "bench_cache/ate_k25.ckpt"
let minic_k = 60
let pro_k = 25
let pro_count = 8
let max_backtracks = 2500
let machine = Ate.Machine.default

type item = Minic of string * string | Pro of string * Ate.Ast.program

let item_name = function Minic (n, _) | Pro (n, _) -> n

type minic_func = {
  live : Cir.Liveness.t;
  alloc : Cir.Regalloc.allocation;
  cost : Pbqp.Cost.t option;
  valid : (unit, string) Stdlib.result;
}

type output =
  | Minic_out of Cir.Ir.program * minic_func list * Cir.Msim.outcome
  | Pro_out of Ate.Program.info * Ate.Pbqp_build.t
               * (Pbqp.Solution.t * Ate.Ast.program) option
      (* the solution and the translated program, when one was found *)
  | Crashed of string

type nets = { cpu : Nn.Pvnet.t; ate : Nn.Pvnet.t; items : item array }

let setup () =
  let cpu = Nn.Pvnet.load cpu_net_path and ate = Nn.Pvnet.load ate_net_path in
  let items =
    Array.of_list
      (List.map (fun (n, src) -> Minic (n, src)) Cir.Programs.all
      @ List.init pro_count (fun i ->
            Pro (Printf.sprintf "PRO%d" (i + 1), Ate.Progen.pro ~machine (i + 1))))
  in
  { cpu; ate; items }

let run_minic tr ~op ~net src =
  let span name f = Trace.span tr ~op name f in
  let ir = span "cir.lower" (fun () -> Cir.Lower.compile src) in
  let kind = Cir.Driver.Pbqp_rl (net, { Mcts.default_config with k = minic_k }) in
  let funcs =
    List.map
      (fun (f : Cir.Ir.func) ->
        let live = span "cir.liveness" (fun () -> Cir.Liveness.analyze f) in
        let alloc, cost = span "cir.alloc" (fun () -> Cir.Driver.allocate kind live) in
        let valid = span "cir.validate" (fun () -> Cir.Regalloc.validate live alloc) in
        (f.name, { live; alloc; cost; valid }))
      ir.funcs
  in
  let mp =
    span "cir.rewrite" (fun () ->
        Cir.Rewrite.rewrite ir (fun name -> (List.assoc name funcs).alloc))
  in
  let outcome = span "cir.msim" (fun () -> Cir.Msim.run mp) in
  Minic_out (ir, List.map snd funcs, outcome)

let run_pro tr sr ~op ~net p =
  let span name f = Trace.span tr ~op name f in
  match span "ate.analyze" (fun () -> Ate.Program.analyze p) with
  | Error e -> Crashed e
  | Ok info ->
      let built = span "ate.build" (fun () -> Ate.Pbqp_build.build machine info) in
      let sol =
        Probe.solve sr tr ~net ~op (fun () ->
            Core.Solver.solve_feasible ~net
              ~mcts:{ Mcts.default_config with k = pro_k }
              ~order:Core.Order.Increasing_liberty ~backtracking:true
              ~exact_reduce:true ~max_backtracks built.graph)
      in
      Pro_out
        ( info,
          built,
          Option.map
            (fun s ->
              let assignment = Ate.Pbqp_build.assignment_of_solution built s in
              (s, span "ate.translate" (fun () -> Ate.Translate.apply p ~assignment)))
            sol )

(* --- output checks --- *)

(* [ok, solved]: every function's allocation passes Regalloc.validate and
   certifies as a solution of its PBQP graph, and the program prints what
   the virtual-register reference interpreter prints. *)
let check_minic ir funcs (outcome : Cir.Msim.outcome) =
  let alloc_ok f =
    f.valid = Ok ()
    &&
    match f.cost with
    | None -> false
    | Some reported ->
        let t = Cir.Alloc_pbqp.build f.live in
        Checks.certified t.graph (Checks.minic_solution t f.alloc) ~reported
  in
  let reference = Cir.Driver.reference ir in
  List.for_all alloc_ok funcs && reference.Cir.Interp.output = outcome.output

(* [ok, solved]: the solution certifies against the PRO's graph, and the
   translated program's registers pass the machine-rule checker. *)
let check_pro p info built = function
  | None -> (true, false)
  | Some (s, translated) ->
      let ok =
        Checks.certified built.Ate.Pbqp_build.graph s
          ~reported:(Pbqp.Solution.cost built.graph s)
        &&
        match Checks.assignment_of_allocated p translated with
        | Some assignment -> Checks.ate_assignment_ok machine info built ~assignment
        | None -> false
      in
      (ok, ok)

let run ~seed:_ ~seconds ~tr =
  (* set-up = net loads, inputs, and a warm pass over one program of each
     corpus (PRO1 and Fib) *)
  let warm nets =
    let find name = Array.to_list nets.items |> List.find (fun it -> item_name it = name) in
    List.iter
      (fun it ->
        ignore
          (match it with
           | Minic (_, src) -> run_minic None ~op:(-1) ~net:nets.cpu src
           | Pro (_, p) -> run_pro None (Probe.search ()) ~op:(-1) ~net:nets.ate p
            : output))
      [ find "Fib"; find "PRO1" ]
  in
  let setups, nets =
    let times = ref [] and last = ref None in
    for _ = 1 to setups do
      let n, dt =
        time (fun () ->
            let n = setup () in
            warm n;
            n)
      in
      times := dt :: !times;
      last := Some n
    done;
    (Array.of_list !times, Option.get !last)
  in
  let sr = Probe.search () in
  let evals () = Nn.Pvnet.eval_count nets.cpu + Nn.Pvnet.eval_count nets.ate in
  let e0 = evals () in
  (* The operation a batch user waits for is the corpus pass. *)
  let pass_s = ref [] and outputs = ref [] and passes = ref 0 in
  let t0 = now () in
  while !passes = 0 || now () -. t0 < float_of_int seconds do
    let (), dt =
      time (fun () ->
          Array.iteri
            (fun i it ->
              let op = (!passes * Array.length nets.items) + i in
              let out =
                Trace.span tr ~op ("item." ^ item_name it) (fun () ->
                    try
                      match it with
                      | Minic (_, src) -> run_minic tr ~op ~net:nets.cpu src
                      | Pro (_, p) -> run_pro tr sr ~op ~net:nets.ate p
                    with e -> Crashed (Printexc.to_string e))
              in
              outputs := (it, out) :: !outputs)
            nets.items)
    in
    pass_s := dt :: !pass_s;
    incr passes
  done;
  let timed_s = now () -. t0 in
  let evals_total = evals () - e0 in
  (* --- checks, and FAST cycles for the speedup (outside the timed passes) --- *)
  let t = tally () in
  let solved = ref 0 and feasible = ref 0 and spills = ref 0 in
  let speedups = Hashtbl.create 32 in
  List.iter
    (fun (it, out) ->
      let ok, wrong =
        match (it, out) with
        | Minic (name, _), Minic_out (ir, funcs, outcome) ->
            let ok = check_minic ir funcs outcome in
            List.iter (fun f -> spills := !spills + Cir.Regalloc.spill_count f.alloc) funcs;
            if not (Hashtbl.mem speedups name) then begin
              let fast = Cir.Driver.run Cir.Driver.Fast ir in
              Hashtbl.replace speedups name
                (float_of_int fast.outcome.cycles /. float_of_int outcome.cycles)
            end;
            (ok, not ok)
        | Pro (_, p), Pro_out (info, built, sol) ->
            let ok, is_solved = check_pro p info built sol in
            incr feasible;
            if is_solved then incr solved;
            (ok, not ok)
        | _, Crashed e ->
            note "batch_corpus: %s failed: %s" (item_name it) e;
            if (match it with Pro _ -> true | Minic _ -> false) then incr feasible;
            (false, false)
        | _ -> (false, true)
      in
      count t ~ok ~wrong)
    !outputs;
  let pass_ms = Array.of_list (List.map (fun s -> 1000.0 *. s) !pass_s) in
  let passes_f = float_of_int !passes in
  let items = float_of_int (Array.length nets.items) *. passes_f in
  let end_to_end =
    [
      ("setup_s", median setups);
      ("peak_rss_mb", self_peak_rss_mb ());
      ("op_p50_ms", median pass_ms);
      ("op_tail_ms", tail pass_ms);
      ("ops_per_s", items /. timed_s);
      ("solved_frac", ratio (float_of_int !solved) (float_of_int !feasible));
    ]
  in
  let layers () =
    let trace = Option.get tr in
    let per_call name = ratio (Trace.total_ms trace name) (float_of_int (Trace.count trace name)) in
    let pro_graphs =
      List.filter_map
        (function _, Pro_out (_, b, _) -> Some b.Ate.Pbqp_build.graph | _ -> None)
        !outputs
      |> List.filteri (fun i _ -> i < pro_count)
    in
    (* the search runs on the exact-reduction residual *)
    let residuals = List.map (fun g -> fst (Solvers.Scholz.reduce_exact g)) pro_graphs in
    let prepare_us, preps =
      Probe.prepare_us tr nets.ate
        (Probe.path_states ~order:Core.Order.Increasing_liberty residuals)
    in
    (* in-process search evaluates one leaf per forward (mcts batch 1) *)
    let trunk_us = Probe.trunk_us_per_row tr nets.ate preps ~batch:1 in
    [
      ("cir.lower_ms", per_call "cir.lower");
      ("cir.liveness_ms", per_call "cir.liveness");
      ("cir.alloc_ms", per_call "cir.alloc");
      ("cir.rewrite_ms", per_call "cir.rewrite");
      ("cir.msim_ms", per_call "cir.msim");
      ("cir.spills", float_of_int !spills /. passes_f);
      ("cir.speedup_geo_vs_fast",
        geomean (Array.of_seq (Hashtbl.to_seq_values speedups)));
      ("ate.analyze_ms", per_call "ate.analyze");
      ("ate.build_ms", per_call "ate.build");
      ("ate.translate_ms", per_call "ate.translate");
      ("pvnet.evals_per_op", float_of_int evals_total /. items);
      ("scholz.reduce_ms", Probe.reduce_ms tr pro_graphs);
    ]
    @ Probe.search_layers sr ~prepare_us ~trunk_us
  in
  ( { correct = t.wrong = 0; attempted = t.attempted; failed = t.failed;
      end_to_end; timed_s },
    layers )
