open Pbqp

type config = {
  mcts : Mcts.config;
  enabled : bool;
  replan : bool;
  max_backtracks : int;
  rollouts : bool;
}

let default_config =
  { mcts = Mcts.default_config; enabled = true; replan = true;
    max_backtracks = 100_000; rollouts = false }

type result = {
  solution : Solution.t option;
  cost : Cost.t;
  nodes : int;
  backtracks : int;
  budget_exhausted : bool;
}

(* Per-depth search bookkeeping: which colors were already tried at this
   position, in which preference order the rest should be taken. *)
type level = { mutable untried : int list; mutable tried : int list }

let rank_actions legal st (p : float array) ~excluding =
  let legal_actions =
    List.filter
      (fun a -> legal st a && not (List.mem a excluding))
      (List.init (Array.length p) Fun.id)
  in
  (* Highest policy mass first; ties on the smaller color. *)
  List.stable_sort (fun a b -> Float.compare p.(b) p.(a)) legal_actions

let solve ?cache ~serve ~net ~mode config ist =
  let game =
    Game.make ~rollouts:config.rollouts ?cache ~serve ~net ~mode
      ~m:(Istate.m ist) ()
  in
  let root = Istate.Cursor.root ist in
  let tree = Mcts.create config.mcts game root in
  let legal = game.Mcts.legal in
  let levels : (int, level) Hashtbl.t = Hashtbl.create 32 in
  let backtracks = ref 0 in
  let budget_exhausted = ref false in
  let success st =
    {
      solution = Some (Istate.Cursor.assignment st);
      cost = Istate.Cursor.base_cost st;
      nodes = Mcts.nodes_created tree;
      backtracks = !backtracks;
      budget_exhausted = false;
    }
  in
  let failure () =
    {
      solution = None;
      cost = Cost.inf;
      nodes = Mcts.nodes_created tree;
      backtracks = !backtracks;
      budget_exhausted = !budget_exhausted;
    }
  in
  let level_at st depth =
    match Hashtbl.find_opt levels depth with
    | Some l -> l
    | None ->
        Mcts.run tree;
        let p = Mcts.policy tree in
        let l = { untried = rank_actions legal st p ~excluding:[]; tried = [] } in
        Hashtbl.replace levels depth l;
        l
  in
  let rec step () =
    let st = Mcts.root_state tree in
    if Istate.Cursor.is_complete st then
      if Cost.is_finite (Istate.Cursor.base_cost st) then success st
      else backtrack ()
    else if Istate.Cursor.is_dead_end st then backtrack ()
    else begin
      let depth = Mcts.depth tree in
      let l = level_at st depth in
      match l.untried with
      | [] -> backtrack ()
      | a :: rest ->
          l.untried <- rest;
          l.tried <- a :: l.tried;
          Mcts.advance tree a;
          step ()
    end
  and backtrack () =
    if Mcts.depth tree = 0 then
      (* the root itself is out of options *)
      failure ()
    else if not config.enabled then failure ()
    else if !backtracks >= config.max_backtracks then begin
      budget_exhausted := true;
      failure ()
    end
    else begin
      incr backtracks;
      let depth = Mcts.depth tree in
      Hashtbl.remove levels depth;
      Mcts.retreat tree;
      let parent_depth = Mcts.depth tree in
      (match Hashtbl.find_opt levels parent_depth with
      | Some l when config.replan && l.untried <> [] ->
          (* Think again about the parent state: extend the game tree and
             re-rank the remaining candidates under the fresh policy. *)
          Mcts.run tree;
          let p = Mcts.policy tree in
          l.untried <-
            rank_actions legal (Mcts.root_state tree) p ~excluding:l.tried
      | _ -> ());
      step ()
    end
  in
  (* Dead-on-arrival instances (some vertex starts all-∞) fail without
     search. *)
  if Istate.Cursor.is_dead_end root then failure () else step ()
