type config = {
  mcts : Mcts.config;
  temperature_moves : int;
  root_noise : (float * float) option;
}

let default_config =
  { mcts = Mcts.default_config; temperature_moves = 0; root_noise = None }

type outcome = {
  solution : Pbqp.Solution.t option;
  cost : Pbqp.Cost.t;
  nodes : int;
}

let sample_index rng (p : float array) =
  let total = Array.fold_left ( +. ) 0.0 p in
  if total <= 0.0 then invalid_arg "Episode: empty policy";
  let x = Random.State.float rng total in
  let acc = ref 0.0 and chosen = ref (-1) in
  Array.iteri
    (fun i pi ->
      if !chosen < 0 then begin
        acc := !acc +. pi;
        if x < !acc then chosen := i
      end)
    p;
  if !chosen < 0 then
    (* float roundoff: fall back to the last positive entry *)
    Array.iteri (fun i pi -> if pi > 0.0 then chosen := i) p;
  !chosen

let argmax (p : float array) =
  let best = ref 0 in
  Array.iteri (fun i pi -> if pi > p.(!best) then best := i) p;
  !best

(* The loop runs on a trail state: MCTS holds cursors into one shared
   mutable graph, so each simulated move is an O(deg) push/pop and each
   collected sample freezes the root's graph.  With a service, the game
   is registered with it as one search for its whole length, so a
   partial batch flushes once every running search is parked in it. *)
let play ?(collect = false) ?cache ?serve ~rng ~net ~mode config ist =
  let game = Game.make ?cache ?serve ~net ~mode ~m:(Istate.m ist) () in
  let tree = Mcts.create config.mcts game (Istate.Cursor.root ist) in
  let samples = ref [] in
  let move = ref 0 in
  let rec loop () =
    let st = Mcts.root_state tree in
    if game.Mcts.is_terminal st then ()
    else begin
      (match config.root_noise with
      | Some (epsilon, alpha) -> Mcts.add_root_noise ~rng ~epsilon ~alpha tree
      | None -> ());
      Mcts.run tree;
      let p = Mcts.policy tree in
      (if collect then
         match Istate.Cursor.next_vertex st with
         | Some next ->
             samples :=
               {
                 Nn.Pvnet.instance = Pbqp.Graph.freeze (Istate.Cursor.graph st);
                 next;
                 policy = Array.copy p;
                 value = 0.0;
               }
               :: !samples
         | None -> ());
      let a =
        if !move < config.temperature_moves then sample_index rng p
        else argmax p
      in
      incr move;
      Mcts.advance tree a;
      loop ()
    end
  in
  (match serve with
  | None -> loop ()
  | Some srv -> Nn.Infer.with_search srv loop);
  let final = Mcts.root_state tree in
  let cost = Game.final_cost final in
  let solution =
    if Istate.Cursor.is_complete final && Pbqp.Cost.is_finite cost then
      Some (Istate.Cursor.assignment final)
    else None
  in
  ({ solution; cost; nodes = Mcts.nodes_created tree }, List.rev !samples)

let set_values v samples =
  List.map (fun s -> { s with Nn.Pvnet.value = v }) samples
