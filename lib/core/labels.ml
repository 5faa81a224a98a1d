open Pbqp

type t = { graph : Graph.t; assignment : Solution.t; cost : Cost.t }

let of_exact ?max_nodes ?max_seconds g =
  match Solvers.Exact.solve ?max_nodes ?max_seconds g with
  | Solvers.Exact.Optimal (sol, cost), _ ->
      Some { graph = Graph.copy g; assignment = sol; cost }
  | (Solvers.Exact.Infeasible | Solvers.Exact.Timeout _), _ -> None

let to_samples ?(order = Order.By_id) ?rng ?(value = 1.0) lbl =
  let m = Graph.m lbl.graph in
  let order = Order.compute ?rng order lbl.graph in
  let rec walk st acc =
    match State.next_vertex st with
    | None -> List.rev acc
    | Some u ->
        let c = Solution.get lbl.assignment u in
        if c < 0 || c >= m || not (State.legal st c) then
          invalid_arg
            (Printf.sprintf
               "Labels.to_samples: color %d of vertex %d is not a legal play"
               c u);
        let policy = Array.make m 0.0 in
        policy.(c) <- 1.0;
        let sample =
          { Nn.Pvnet.instance = Graph.freeze (State.graph st); next = u;
            policy; value }
        in
        walk (State.apply st c) (sample :: acc)
  in
  walk (State.of_graph ~order lbl.graph) []

(* --- persistence ------------------------------------------------------ *)

let to_buffer buf lbl =
  Buffer.add_string buf "label ";
  (* full precision, like Io: the cost must survive a save/load round
     trip bit-for-bit *)
  Buffer.add_string buf
    (if Cost.is_finite lbl.cost then Printf.sprintf "%.17g" lbl.cost
     else "inf");
  Buffer.add_char buf '\n';
  (* the shared one-line solution form of Pbqp.Io ("assign <colors...>") *)
  Buffer.add_string buf (Io.solution_to_string lbl.assignment);
  Buffer.add_string buf (Io.to_string lbl.graph);
  Buffer.add_string buf "endlabel\n"

let save path labels =
  let buf = Buffer.create 4096 in
  List.iter (to_buffer buf) labels;
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let fail fmt = Printf.ksprintf invalid_arg ("Labels.load: " ^^ fmt)

let load path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  (* one record: the "assign" line, then graph lines until "endlabel" *)
  let parse_record cost rest =
    let assignment, rest =
      match rest with
      | line :: rest when String.length (String.trim line) >= 6
                          && String.sub (String.trim line) 0 6 = "assign" -> (
          match Io.solution_of_string line with
          | sol -> (sol, rest)
          | exception Invalid_argument msg -> fail "%s" msg)
      | _ -> fail "expected an assign line after a label header"
    in
    let rec graph_lines acc = function
      | [] -> fail "missing endlabel"
      | line :: rest when String.trim line = "endlabel" -> (List.rev acc, rest)
      | line :: rest -> graph_lines (line :: acc) rest
    in
    let glines, rest = graph_lines [] rest in
    let graph = Io.of_string (String.concat "\n" glines) in
    ({ graph; assignment; cost }, rest)
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        let t = String.trim line in
        if t = "" || t.[0] = '#' then parse acc rest
        else
          match String.split_on_char ' ' t with
          | [ "label"; c ] ->
              let cost =
                try Cost.of_string c
                with Invalid_argument _ -> fail "bad cost %S" c
              in
              let record, rest = parse_record cost rest in
              parse (record :: acc) rest
          | _ -> fail "expected a label header, got %S" t)
  in
  parse [] lines
