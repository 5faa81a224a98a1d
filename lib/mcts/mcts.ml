type 'a game = {
  num_actions : int;
  is_terminal : 'a -> bool;
  terminal_value : 'a -> float;
  legal : 'a -> int -> bool;
  apply : 'a -> int -> 'a;
  evaluate : 'a -> float array * float;
}

type config = {
  k : int;
  c_puct : float;
  epsilon : float;
}

let default_config = { k = 50; c_puct = 1.5; epsilon = 1e-8 }

type 'a node = {
  state : 'a;
  parent : ('a node * int) option;
  mutable expanded : bool;
  mutable priors : float array;  (* valid once expanded *)
  mutable value_est : float;
  edges : 'a edge array;  (* allocated eagerly, children lazily *)
}

and 'a edge = { mutable n : int; mutable q : float; mutable child : 'a node option }

type 'a t = {
  config : config;
  game : 'a game;
  mutable root : 'a node;
  mutable created : int;
}

let fresh_node num_actions ?parent state =
  {
    state;
    parent;
    expanded = false;
    priors = [||];
    value_est = 0.0;
    edges = Array.init num_actions (fun _ -> { n = 0; q = 0.0; child = None });
  }

let make_node t ?parent state =
  t.created <- t.created + 1;
  fresh_node t.game.num_actions ?parent state

let create config game state =
  { config; game; root = fresh_node game.num_actions state; created = 1 }

let root_state t = t.root.state

let ucb t node a =
  let e = node.edges.(a) in
  let total = Array.fold_left (fun acc e -> acc + e.n) 0 node.edges in
  e.q
  +. t.config.c_puct *. node.priors.(a)
     *. sqrt (t.config.epsilon +. float_of_int total)
     /. (1.0 +. float_of_int e.n)

let select_action t node =
  let best = ref (-1) and best_u = ref neg_infinity in
  for a = 0 to t.game.num_actions - 1 do
    if t.game.legal node.state a then begin
      let u = ucb t node a in
      if u > !best_u then begin
        best := a;
        best_u := u
      end
    end
  done;
  !best

let child_of t node a =
  let e = node.edges.(a) in
  match e.child with
  | Some c -> c
  | None ->
      let c = make_node t ~parent:(node, a) (t.game.apply node.state a) in
      e.child <- Some c;
      c

(* Algorithm 1 (SIMULATE): selection by max-UCB, expansion of the first
   undiscovered node, roll-out by the DNN, and back-propagation on the
   recursion unwind. *)
let rec simulate t node =
  if t.game.is_terminal node.state then t.game.terminal_value node.state
  else if not node.expanded then begin
    let priors, v = t.game.evaluate node.state in
    if Array.length priors <> t.game.num_actions then
      invalid_arg "Mcts: evaluate returned wrong prior length";
    node.priors <- priors;
    node.value_est <- v;
    node.expanded <- true;
    v
  end
  else begin
    let a = select_action t node in
    if a < 0 then
      (* No legal action: the game should have flagged this state as
         terminal; treat it as a loss to stay safe. *)
      t.game.terminal_value node.state
    else begin
      let e = node.edges.(a) in
      let child = child_of t node a in
      let v = simulate t child in
      e.q <- ((float_of_int e.n *. e.q) +. v) /. float_of_int (e.n + 1);
      e.n <- e.n + 1;
      v
    end
  end

let run_n t n =
  for _ = 1 to n do
    ignore (simulate t t.root)
  done

(* Marsaglia-Tsang gamma sampling (shape < 1 handled by boosting). *)
let rec gamma_sample rng shape =
  if shape < 1.0 then
    let u = Float.max 1e-12 (Random.State.float rng 1.0) in
    gamma_sample rng (shape +. 1.0) *. (u ** (1.0 /. shape))
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec draw () =
      let x =
        (* Box-Muller normal *)
        let u1 = Float.max 1e-12 (Random.State.float rng 1.0) in
        let u2 = Random.State.float rng 1.0 in
        sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
      in
      let v = (1.0 +. (c *. x)) ** 3.0 in
      if v <= 0.0 then draw ()
      else
        let u = Float.max 1e-12 (Random.State.float rng 1.0) in
        if log u < (0.5 *. x *. x) +. d -. (d *. v) +. (d *. log v) then d *. v
        else draw ()
    in
    draw ()
  end

let add_root_noise ~rng ~epsilon ~alpha t =
  if not (t.game.is_terminal t.root.state) then begin
    if not t.root.expanded then ignore (simulate t t.root);
    let legal =
      Array.init t.game.num_actions (fun a -> t.game.legal t.root.state a)
    in
    let draws =
      Array.map (fun l -> if l then gamma_sample rng alpha else 0.0) legal
    in
    let total = Array.fold_left ( +. ) 0.0 draws in
    if total > 0.0 then
      t.root.priors <-
        Array.mapi
          (fun a p ->
            if legal.(a) then
              ((1.0 -. epsilon) *. p) +. (epsilon *. draws.(a) /. total)
            else p)
          t.root.priors
  end

(* Tree validity: every invariant the search maintains by construction,
   re-verified over the whole materialized tree.  Returns all violations
   (not just the first) as human-readable strings. *)
let validate t =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* walk up to the initial root so retreat-able ancestors are covered *)
  let rec top n = match n.parent with Some (p, _) -> top p | None -> n in
  let reachable = ref 0 in
  let rec walk path node =
    incr reachable;
    let terminal = t.game.is_terminal node.state in
    if Array.length node.edges <> t.game.num_actions then
      bad "%s: %d edges for %d actions" path (Array.length node.edges)
        t.game.num_actions;
    if node.expanded then begin
      if Array.length node.priors <> t.game.num_actions then
        bad "%s: priors length %d, expected %d" path
          (Array.length node.priors) t.game.num_actions
      else begin
        let legal_mass = ref 0.0 in
        Array.iteri
          (fun a p ->
            if Float.is_nan p || p = infinity || p < 0.0 then
              bad "%s: prior[%d] = %g is not a finite non-negative value"
                path a p
            else if t.game.legal node.state a then
              legal_mass := !legal_mass +. p)
          node.priors;
        if (not terminal) && !legal_mass <= 0.0 then
          bad "%s: no prior mass on any legal action" path
      end;
      if Float.is_nan node.value_est then bad "%s: value estimate is NaN" path
    end;
    Array.iteri
      (fun a e ->
        let where = Printf.sprintf "%s.%d" path a in
        if e.n < 0 then bad "%s: negative visit count %d" where e.n;
        if Float.is_nan e.q then bad "%s: Q is NaN" where;
        if e.n = 0 && e.q <> 0.0 then
          bad "%s: unvisited edge has Q = %g" where e.q;
        if not (t.game.legal node.state a) then begin
          if e.n > 0 then bad "%s: illegal action has %d visits" where e.n;
          if e.child <> None then bad "%s: illegal action has a child" where
        end;
        if terminal && e.n > 0 then
          bad "%s: terminal node has visited edges" where;
        match e.child with
        | None -> ()
        | Some c -> (
            (match c.parent with
            | Some (p, pa) when p == node && pa = a -> ()
            | _ -> bad "%s: child's parent link is wrong" where);
            walk where c))
      node.edges
  in
  walk "root" (top t.root);
  if !reachable > t.created then
    bad "%d reachable nodes exceed the creation count %d" !reachable t.created;
  List.rev !violations

let run t = run_n t t.config.k

let visit_counts t = Array.map (fun e -> e.n) t.root.edges
let root_qs t = Array.map (fun e -> e.q) t.root.edges

let policy t =
  let counts = visit_counts t in
  let total = Array.fold_left ( + ) 0 counts in
  if total > 0 then
    Array.map (fun c -> float_of_int c /. float_of_int total) counts
  else begin
    let legal =
      Array.init t.game.num_actions (fun a -> t.game.legal t.root.state a)
    in
    let k = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 legal in
    if k = 0 then Array.make t.game.num_actions 0.0
    else
      Array.map (fun l -> if l then 1.0 /. float_of_int k else 0.0) legal
  end

let root_value t =
  let num = ref 0.0 and den = ref 0 in
  Array.iter
    (fun e ->
      num := !num +. (float_of_int e.n *. e.q);
      den := !den + e.n)
    t.root.edges;
  if !den > 0 then !num /. float_of_int !den else t.root.value_est

let advance t a =
  if t.game.is_terminal t.root.state then
    invalid_arg "Mcts.advance: root is terminal";
  if a < 0 || a >= t.game.num_actions || not (t.game.legal t.root.state a) then
    invalid_arg "Mcts.advance: illegal action";
  let e = t.root.edges.(a) in
  let child =
    match e.child with
    | Some c -> c
    | None ->
        let c = make_node t ~parent:(t.root, a) (t.game.apply t.root.state a) in
        e.child <- Some c;
        c
  in
  t.root <- child

let retreat t =
  match t.root.parent with
  | Some (p, _) -> t.root <- p
  | None -> invalid_arg "Mcts.retreat: at the initial root"

let depth t =
  let rec go n acc =
    match n.parent with Some (p, _) -> go p (acc + 1) | None -> acc
  in
  go t.root 0

let nodes_created t = t.created
