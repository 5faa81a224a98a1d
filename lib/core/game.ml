open Pbqp

type mode = Feasibility | Minimize of { reference : Cost.t; shaping : float }

let reward mode cost =
  match mode with
  | Feasibility -> if Cost.is_finite cost then 1.0 else -1.0
  | Minimize { reference; shaping } -> (
      match (Cost.is_finite cost, Cost.is_finite reference) with
      | false, _ -> -1.0
      | true, false -> 1.0
      | true, true ->
          let d = Cost.to_float reference -. Cost.to_float cost in
          if shaping > 0.0 then Float.tanh (d /. shaping)
          else if d > 1e-9 then 1.0
          else if d < -1e-9 then -1.0
          else 0.0)

let final_cost c =
  if Istate.Cursor.is_complete c then Istate.Cursor.base_cost c else Cost.inf

let make ?(rollouts = false) ?cache ~serve ~net ~mode ~m () =
  (* [blend_at c] takes the leaf's roll-out now — seeking the trail to
     [c], completing greedily and undoing back — and returns the blend to
     apply to the network value once it is known. *)
  let blend_at c =
    if rollouts then begin
      Istate.Cursor.sync c;
      let r = reward mode (Rollout.greedy_cost (Istate.Cursor.istate c)) in
      fun v -> 0.5 *. (v +. r)
    end
    else Fun.id
  in
  (* One leaf per call (Algorithm 1's SIMULATE).  The transposition
     cache holds the network's raw (priors, value) keyed by (state hash,
     next vertex) and stamped with the weights version; the roll-out
     blend is applied after lookup (it depends on the state, not the
     weights).  Keys only repeat for bitwise-identical states, so search
     results with and without a cache are bit-identical.  A miss is
     captured as a [Pvnet.prepared] before its roll-out moves the trail,
     then forwarded through [serve].  Complete games and dead ends that
     slipped past [is_terminal] get the defensive terminal reward. *)
  let evaluate cur =
    match Istate.Cursor.next_vertex cur with
    | None -> (Array.make m 0.0, reward mode (final_cost cur))
    | Some next -> (
        let version = Nn.Pvnet.version net in
        let key = (Istate.Cursor.hash cur, next) in
        let hit =
          match cache with
          | Some cache -> Nn.Cache.find cache ~version key
          | None -> None
        in
        match hit with
        | Some (priors, v) -> (priors, blend_at cur v)
        | None ->
            let p = Nn.Pvnet.prepare net (Istate.Cursor.graph cur) ~next in
            let mix = blend_at cur in
            let ((priors, v) as r) = Nn.Infer.submit serve ~net p in
            (match cache with
            | Some cache -> Nn.Cache.store cache ~version key r
            | None -> ());
            (priors, mix v))
  in
  {
    Mcts.num_actions = m;
    is_terminal = Istate.Cursor.is_terminal;
    terminal_value = (fun c -> reward mode (final_cost c));
    legal = Istate.Cursor.legal;
    apply = Istate.Cursor.apply;
    evaluate;
  }
