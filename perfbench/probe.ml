(* Isolated per-layer timings for the traced run: each calls one public
   function of a layer on the workload's own graphs, outside the timed
   region, with a span around every call. *)

open Common

let op = -1

(* States a search visits: each graph's game, in the solver's coloring
   order, walked from the root by taking the first legal color and
   sampled at [per_graph] evenly spaced depths. *)
let path_states ?(per_graph = 6) ~order graphs =
  List.concat_map
    (fun g ->
      let rec walk s acc =
        match Core.State.next_vertex s with
        | Some v when not (Core.State.is_dead_end s) -> (
            let acc = (Core.State.graph s, v) :: acc in
            match List.find_opt (Core.State.legal s) (List.init (Core.State.m s) Fun.id) with
            | Some c -> walk (Core.State.apply s c) acc
            | None -> acc)
        | _ -> acc
      in
      let root = Core.State.of_graph ~order:(Core.Order.compute order g) g in
      let states = Array.of_list (List.rev (walk root [])) in
      let n = Array.length states in
      List.init (min n per_graph) (fun i -> states.(i * n / min n per_graph)))
    graphs

(* µs per Pvnet.prepare (the GCN message pass and readout) once the
   net's per-matrix message cache is warm, as it is inside a search;
   also returns the prepared rows for the trunk probe. *)
let prepare_us tr net states =
  List.iter (fun (g, next) -> ignore (Nn.Pvnet.prepare net g ~next : Nn.Pvnet.prepared)) states;
  let preps, dt =
    time (fun () ->
        List.map
          (fun (g, next) ->
            Trace.span tr ~op "pvnet.prepare" (fun () ->
                Nn.Pvnet.prepare net g ~next))
          states)
  in
  (dt *. 1e6 /. float_of_int (max 1 (List.length preps)), Array.of_list preps)

(* µs per row of Pvnet.predict_prepared (trunk and heads) at the batch
   size the workload was observed to run. *)
let trunk_us_per_row tr net preps ~batch =
  let n = Array.length preps in
  if n = 0 then 0.0
  else begin
    let batch = max 1 (min batch n) in
    let rows = ref 0 in
    let t0 = now () in
    while now () -. t0 < 0.25 || !rows < 64 do
      let b = Array.init batch (fun j -> preps.((!rows + j) mod n)) in
      Trace.span tr ~op "pvnet.trunk" (fun () ->
          ignore (Nn.Pvnet.predict_prepared net b : (float array * float) array));
      rows := !rows + batch
    done;
    (now () -. t0) *. 1e6 /. float_of_int !rows
  end

(* Mean ms per call of [f] over [xs], one span per call. *)
let per_call_ms tr name f xs =
  let (), dt =
    time (fun () -> List.iter (fun x -> Trace.span tr ~op name (fun () -> f x)) xs)
  in
  1000.0 *. dt /. float_of_int (max 1 (List.length xs))

(* Mean ms of Scholz's exact R0/R1/R2 reduction per graph. *)
let reduce_ms tr graphs =
  per_call_ms tr "scholz.reduce"
    (fun g ->
      ignore (Solvers.Scholz.reduce_exact g : Pbqp.Graph.t * Solvers.Scholz.reduction))
    graphs

(* Totals over the solves a workload ran or probed. *)
type search = {
  mutable solves : int;
  mutable solve_s : float;
  mutable nodes : int;
  mutable backtracks : int;
  mutable evals : int;
}

let search () = { solves = 0; solve_s = 0.0; nodes = 0; backtracks = 0; evals = 0 }

(* Run one solve, adding its wall time, tree size and the net's leaf
   evaluations to [s]. *)
let solve s tr ~net ~op f =
  let e0 = Nn.Pvnet.eval_count net in
  let (sol, (stats : Core.Solver.stats)), dt =
    time (fun () -> Trace.span tr ~op "search.solve" f)
  in
  s.solves <- s.solves + 1;
  s.solve_s <- s.solve_s +. dt;
  s.nodes <- s.nodes + stats.nodes;
  s.backtracks <- s.backtracks + stats.backtracks;
  s.evals <- s.evals + (Nn.Pvnet.eval_count net - e0);
  sol

let search_layers s ~prepare_us ~trunk_us =
  let n = float_of_int (max 1 s.solves) in
  let solve_ms = 1000.0 *. s.solve_s /. n in
  let evals_per_solve = float_of_int s.evals /. n in
  (* The GCN reconciliation: what one solve's forward passes cost at
     the isolated per-leaf and per-row rates, against its wall time. *)
  let forward_ms = evals_per_solve *. (prepare_us +. trunk_us) /. 1000.0 in
  [
    ("search.nodes_per_op", float_of_int s.nodes /. n);
    ("search.backtracks", float_of_int s.backtracks);
    ("search.solve_ms", solve_ms);
    ("search.us_per_node", ratio (1e6 *. s.solve_s) (float_of_int s.nodes));
    ("gcn.evals_per_solve", evals_per_solve);
    ("gcn.forward_ms_per_solve", forward_ms);
    ("gcn.share_of_solve", ratio forward_ms solve_ms);
    ("pvnet.prepare_us_per_leaf", prepare_us);
    ("pvnet.trunk_us_per_row", trunk_us);
  ]
