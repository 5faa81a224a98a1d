(* PBQP well-formedness analyzer.

   [Pbqp.Graph.check] fail-fasts on the first broken internal invariant;
   this pass instead scans the raw representation (the adjacency tables,
   the alive mask, the cost vectors) and reports *every* violation as a
   finding, plus semantic diagnostics the kernel cannot enforce locally:
   NaN / -inf entries, vertices with no admissible color, and arc
   inconsistency (a color that every assignment of some neighbor maps to
   infinite cost — a dead end any search will discover the hard way). *)

open Pbqp

let check_vec c u vec m =
  if Vec.length vec <> m then
    Diag.errorf c "pbqp-cost-length" (Diag.Vertex u)
      "cost vector has length %d, graph has m = %d" (Vec.length vec) m;
  Vec.iteri
    (fun i x ->
      if Float.is_nan x then
        Diag.errorf c "pbqp-nan" (Diag.Vertex u) "cost[%d] is NaN" i
      else if x = Float.neg_infinity then
        Diag.errorf c "pbqp-neg-inf" (Diag.Vertex u) "cost[%d] is -inf" i)
    vec;
  if Vec.is_all_inf vec then
    Diag.errorf c "pbqp-no-color" (Diag.Vertex u)
      "every color is infinite: the graph is unsolvable"

let check_mat c u v muv m =
  if Mat.rows muv <> m || Mat.cols muv <> m then
    Diag.errorf c "pbqp-edge-shape" (Diag.Edge (u, v))
      "edge matrix is %dx%d, expected %dx%d" (Mat.rows muv) (Mat.cols muv) m m
  else begin
    Mat.iteri
      (fun i j x ->
        if Float.is_nan x then
          Diag.errorf c "pbqp-nan" (Diag.Edge (u, v)) "entry (%d,%d) is NaN" i j
        else if x = Float.neg_infinity then
          Diag.errorf c "pbqp-neg-inf" (Diag.Edge (u, v))
            "entry (%d,%d) is -inf" i j)
      muv;
    if Mat.is_zero muv then
      Diag.warningf c "pbqp-zero-edge" (Diag.Edge (u, v))
        "all-zero edge matrix kept (disconnected-iff-zero convention broken)"
  end

(* Arc consistency: color [i] of a live vertex [u] is locally dead when
   some incident edge admits no finite completion for it.  A vertex whose
   every admissible color is locally dead makes the instance infeasible
   even though its own cost vector looks fine. *)
let check_arc_consistency c g u =
  let m = Graph.m g in
  let vec = Graph.cost g u in
  let finite = Vec.finite_indices vec in
  if finite <> [] then begin
    let neighbors = Graph.neighbors g u in
    let locally_dead =
      List.filter
        (fun i ->
          List.exists
            (fun v ->
              let muv = Option.get (Graph.edge_ref g u v) in
              let cv = Graph.cost g v in
              not
                (List.exists
                   (fun j ->
                     Cost.is_finite (Mat.get muv i j)
                     && Cost.is_finite (Vec.get cv j))
                   (List.init m Fun.id)))
            neighbors)
        finite
    in
    List.iter
      (fun i ->
        Diag.warningf c "pbqp-arc-dead" (Diag.Vertex u)
          "color %d is finite but no neighbor assignment completes it finitely"
          i)
      locally_dead;
    if List.length locally_dead = List.length finite then
      Diag.errorf c "pbqp-arc-infeasible" (Diag.Vertex u)
        "every admissible color is arc-inconsistent: the graph is unsolvable"
  end

(* The raw-representation scan: symmetric storage, transposition, no
   self-loops or duplicate/dangling entries, clean dead vertices.  Works
   off [Graph.iter_adjacency], which exposes every stored directed entry
   (including those [fold_edges] filters out). *)
let check_adjacency c (g : Graph.t) =
  let n = Graph.capacity g in
  let m = Graph.m g in
  (* materialize the raw adjacency into per-vertex entry lists *)
  let entries = Array.make (max n 1) [] in
  (Graph.iter_adjacency (fun u v muv -> entries.(u) <- (v, muv) :: entries.(u)) g
   [@analyze.order_insensitive
     "bucketing into per-vertex lists; validation below is per-entry \
      with no accumulation"]);
  Array.iteri
    (fun u es ->
      if u < n && not (Graph.is_alive g u) then begin
        if es <> [] then
          Diag.errorf c "pbqp-dead-adjacency" (Diag.Vertex u)
            "dead vertex still has %d adjacency entries" (List.length es)
      end
      else begin
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (v, muv) ->
            if v = u then
              Diag.errorf c "pbqp-self-loop" (Diag.Vertex u) "self edge"
            else if v < 0 || v >= n then
              Diag.errorf c "pbqp-edge-range" (Diag.Edge (u, v))
                "neighbor id out of range [0,%d)" n
            else if not (Hashtbl.mem seen v) then begin
              Hashtbl.replace seen v ();
              let dups =
                List.length (List.filter (fun (w, _) -> w = v) es)
              in
              if dups > 1 then
                Diag.errorf c "pbqp-duplicate-edge" (Diag.Edge (u, v))
                  "%d parallel entries for the same neighbor" dups;
              if not (Graph.is_alive g v) then
                Diag.errorf c "pbqp-edge-dead" (Diag.Edge (u, v))
                  "edge endpoint %d is dead" v;
              check_mat c u v muv m;
              match List.assoc_opt u entries.(v) with
              | None ->
                  Diag.errorf c "pbqp-asymmetric" (Diag.Edge (u, v))
                    "stored at %d but missing from %d's adjacency" u v
              | Some mvu ->
                  if
                    u < v
                    && Mat.rows muv = m && Mat.cols muv = m
                    && Mat.rows mvu = m && Mat.cols mvu = m
                    && not (Mat.equal mvu (Mat.transpose muv))
                  then
                    Diag.errorf c "pbqp-transpose" (Diag.Edge (u, v))
                      "reverse matrix is not the transpose"
            end)
          es
      end)
    entries

let graph g =
  let c = Diag.collector () in
  let m = Graph.m g in
  if m <= 0 then
    Diag.errorf c "pbqp-shape" Diag.Global "m = %d must be positive" m;
  for u = 0 to Graph.capacity g - 1 do
    if Graph.is_alive g u then check_vec c u (Graph.cost g u) m
  done;
  check_adjacency c g;
  (* arc consistency only once the representation itself is sane *)
  if Diag.error_count_in c = 0 then
    List.iter (fun u -> check_arc_consistency c g u) (Graph.vertices g);
  Diag.report c

(* --- text inputs ----------------------------------------------------- *)

(* [Io.of_string] raises [Invalid_argument "Io.of_string: line %d: %s"];
   recover the line number so CLI findings point at the input. *)
let finding_of_parse_error msg =
  let location, message =
    match String.index_opt msg ':' with
    | Some _ -> (
        try
          Scanf.sscanf msg "Io.of_string: line %d: %[^\n]" (fun l m ->
              (Diag.Line l, m))
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          (Diag.Global, msg))
    | None -> (Diag.Global, msg)
  in
  Diag.error "pbqp-parse" location "%s" message

let parse_string s =
  match Io.of_string s with
  | g -> Ok g
  | exception Invalid_argument msg -> Error [ finding_of_parse_error msg ]

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> parse_string s
  | exception Sys_error msg -> Error [ Diag.error "io" Diag.Global "%s" msg ]

let lint_string s =
  match parse_string s with Ok g -> graph g | Error fs -> fs
