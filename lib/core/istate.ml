open Pbqp

(* One move's full effect, memoized on its move-tree node the first time
   the move is pushed.  Undo re-installs the saved old values wholesale —
   never by subtracting — and a {e redo} (replaying the same tree edge, the
   common case when MCTS re-descends an existing branch) re-installs the
   saved new values: both directions are bit-exact by construction and
   allocation-free after the first push.  A path node identifies a unique
   move prefix, so the pre-/post-move values are well-defined per node. *)
type memo = {
  m_prev_base : Cost.t;
  m_new_base : Cost.t;
  m_detached : Graph.detached;
  m_vecs : (int * Vec.t * Vec.t) list;  (* neighbor, pre-move, post-move *)
}

(* Pure identity of a position in the move tree.  Path nodes are shared
   (parent links), so MCTS can hold thousands of cursors into one trail
   state for the cost of a few words each. *)
type path = {
  p_depth : int;
  p_color : int;  (* move that produced this node; -1 at the root *)
  p_hash : int;
  p_parent : path option;
  mutable p_memo : memo option;  (* set by the first push through this node *)
}

type t = {
  graph : Graph.t;  (* mutated in place by push/pop *)
  order : int array;
  assignment : Solution.t;
  mutable pos : int;
  mutable base_cost : Cost.t;
  mutable cur : path;  (* invariant: cur.p_depth = pos; doubles as the
                          trail — popping walks the parent links, the undo
                          data lives in the nodes' memos *)
  root_path : path;
}

let of_graph ?order g =
  let live = Graph.vertices g in
  let order =
    match order with
    | None -> Array.of_list live
    | Some o ->
        if List.sort Int.compare (Array.to_list o) <> live then
          invalid_arg "Istate.of_graph: order is not a permutation of the vertices";
        Array.copy o
  in
  let root =
    { p_depth = 0; p_color = -1; p_hash = Zhash.base ~uid:(Graph.uid g);
      p_parent = None; p_memo = None }
  in
  {
    graph = Graph.copy g;
    order;
    assignment = Solution.make (Graph.capacity g);
    pos = 0;
    base_cost = Cost.zero;
    cur = root;
    root_path = root;
  }

let of_state st =
  if State.colored_count st <> 0 then
    invalid_arg "Istate.of_state: state already has colored vertices";
  (* The state's graph is a copy of the instance (same uid), so hashes —
     and therefore cache keys — agree with the persistent path. *)
  of_graph ~order:(State.order st) (State.graph st)

let m t = Graph.m t.graph
let graph t = t.graph
let depth t = t.pos
let base_cost t = t.base_cost
let assignment t = Solution.copy t.assignment
let hash t = t.cur.p_hash

let next_vertex t =
  if t.pos < Array.length t.order then Some t.order.(t.pos) else None

let legal t c =
  match next_vertex t with
  | Some u ->
      c >= 0 && c < m t && Cost.is_finite (Vec.get (Graph.cost t.graph u) c)
  | None -> false

let is_complete t = t.pos >= Array.length t.order

let is_dead_end t =
  (not (is_complete t)) && State.has_dead_vertex t.graph t.order ~pos:t.pos

let is_terminal t = is_complete t || is_dead_end t

(* The transition 𝒯, advancing the trail into path node [node] (a child
   of the current node).  First traversal of the edge: same float
   operations as State.apply (each neighbor's new vector is a copy of the
   old one with the selected matrix row folded in, ascending), O(deg(u)),
   memoized on the node.  Redo: swap the memoized post-move vectors back
   in — no recomputation, no allocation, bitwise the same objects. *)
(* Allocation-free walks over a memo's neighbor list: top-level
   recursive functions instead of per-call [List.iter] closures, so the
   redo/undo hot paths allocate nothing (found by pbqp_analyze's [@hot]
   closure lint). *)
let rec swap_in_post g = function
  | [] -> ()
  | (v, _, nw) :: tl ->
      ignore (Graph.swap_cost g v nw);
      swap_in_post g tl
[@@hot]

let rec swap_in_pre g = function
  | [] -> ()
  | (v, old, _) :: tl ->
      ignore (Graph.swap_cost g v old);
      swap_in_pre g tl
[@@hot]

let push_node t node =
  let c = node.p_color in
  (match next_vertex t with
  | None -> invalid_arg "Istate.apply: game is complete"
  | Some u ->
      if not (legal t c) then invalid_arg "Istate.apply: illegal color";
      let g = t.graph in
      let memo =
        match node.p_memo with
        | Some memo ->
            swap_in_post g memo.m_vecs;
            Graph.redetach_vertex g memo.m_detached;
            memo
        | None ->
            (let step = Vec.get (Graph.cost g u) c in
             let vecs = ref [] in
             Graph.iter_neighbors g u (fun v muv ->
                 let fresh = Vec.copy (Graph.cost g v) in
                 Mat.add_row_into muv c fresh;
                 vecs := (v, Graph.swap_cost g v fresh, fresh) :: !vecs);
             let detached = Graph.detach_vertex g u in
             let memo =
               { m_prev_base = t.base_cost;
                 m_new_base = Cost.add t.base_cost step;
                 m_detached = detached; m_vecs = !vecs }
             in
             node.p_memo <- Some memo;
             memo)
            [@analyze.ok
              "first traversal of a tree edge memoizes: these                allocations happen once per edge by design; every redo                takes the allocation-free branch above"]
      in
      Solution.set t.assignment u c;
      t.base_cost <- memo.m_new_base;
      t.pos <- t.pos + 1);
  t.cur <- node
[@@hot]

let pop t =
  match (t.cur.p_parent, t.cur.p_memo) with
  | Some parent, Some memo ->
      t.pos <- t.pos - 1;
      let u = t.order.(t.pos) in
      Solution.set t.assignment u Solution.unassigned;
      Graph.reattach_vertex t.graph memo.m_detached;
      swap_in_pre t.graph memo.m_vecs;
      t.base_cost <- memo.m_prev_base;
      t.cur <- parent
  | _ -> invalid_arg "Istate.undo: at the root"
[@@hot]

let extend_path t p c =
  let u = t.order.(p.p_depth) in
  {
    p_depth = p.p_depth + 1;
    p_color = c;
    p_hash = p.p_hash lxor Zhash.move ~depth:p.p_depth ~vertex:u ~color:c ~m:(m t);
    p_parent = Some p;
    p_memo = None;
  }

let apply t c = push_node t (extend_path t t.cur c)
let undo t = pop t

(* Reposition the trail to [target]: pop up to the lowest common ancestor
   of the current path and [target], then replay [target]'s suffix.
   Successive MCTS queries follow root-to-leaf walks, so the amortized
   work per query is O(1) trail moves of O(deg) each. *)
let seek t target =
  if t.cur != target then begin
    let rec split a b redo =
      if a == b then redo
      else if a.p_depth > b.p_depth then split (Option.get a.p_parent) b redo
      else if b.p_depth > a.p_depth then
        split a (Option.get b.p_parent) (b :: redo)
      else split (Option.get a.p_parent) (Option.get b.p_parent) (b :: redo)
    in
    let redo = split t.cur target [] in
    let lca_depth = match redo with [] -> target.p_depth | n :: _ -> n.p_depth - 1 in
    while t.pos > lca_depth do
      pop t
    done;
    List.iter (fun node -> push_node t node) redo
  end

module Cursor = struct
  type istate = t
  type nonrec t = { ist : istate; path : path }

  let root ist = { ist; path = ist.root_path }
  let istate c = c.ist
  let depth c = c.path.p_depth
  let hash c = c.path.p_hash
  let color c = c.path.p_color
  let sync c = seek c.ist c.path

  let next_vertex c = sync c; next_vertex c.ist
  let legal c color = sync c; legal c.ist color
  let is_complete c = sync c; is_complete c.ist
  let is_dead_end c = sync c; is_dead_end c.ist
  let is_terminal c = sync c; is_terminal c.ist
  let base_cost c = sync c; c.ist.base_cost
  let assignment c = sync c; Solution.copy c.ist.assignment
  let graph c = sync c; c.ist.graph

  let apply c color =
    sync c;
    (match next_vertex c with
    | None -> invalid_arg "Istate.Cursor.apply: game is complete"
    | Some _ ->
        if not (legal c color) then
          invalid_arg "Istate.Cursor.apply: illegal color");
    { c with path = extend_path c.ist c.path color }
end
