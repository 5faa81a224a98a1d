open Pbqp

(* The locally cheapest color of [vec] (ties: the smaller color); -1 when
   every entry is infinite. *)
let cheapest vec m =
  let best = ref (-1) and best_cost = ref Cost.inf in
  for c = 0 to m - 1 do
    let x = Vec.get vec c in
    if Cost.compare x !best_cost < 0 then begin
      best := c;
      best_cost := x
    end
  done;
  !best

(* Push greedy moves until the game is complete or dead; returns whether
   it completed and how many moves were pushed. *)
let rec descend ist pushed =
  if Istate.is_complete ist then (true, pushed)
  else if Istate.is_dead_end ist then (false, pushed)
  else
    match Istate.next_vertex ist with
    | None -> (false, pushed)
    | Some u ->
        let c = cheapest (Graph.cost (Istate.graph ist) u) (Istate.m ist) in
        if c < 0 then (false, pushed)
        else begin
          Istate.apply ist c;
          descend ist (pushed + 1)
        end

(* Run the greedy completion, read [finish] at its end, undo back. *)
let complete ist finish =
  let completed, pushed = descend ist 0 in
  let r = finish completed in
  for _ = 1 to pushed do
    Istate.undo ist
  done;
  r

let greedy_cost ist =
  complete ist (fun completed ->
      if completed then Istate.base_cost ist else Cost.inf)

let greedy_solution ist =
  complete ist (fun completed ->
      if completed then Some (Istate.assignment ist, Istate.base_cost ist)
      else None)
