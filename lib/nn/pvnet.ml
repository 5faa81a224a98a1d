open Pbqp

type config = {
  m : int;
  gcn_layers : int;
  trunk_width : int;
  trunk_blocks : int;
  cost_scale : float;
}

let default_config ~m =
  { m; gcn_layers = 2; trunk_width = 32; trunk_blocks = 2; cost_scale = 10.0 }

type gcn_layer = { w_self : Layer.Linear.t; w_msg : Layer.Linear.t }

(* Scratch buffers for one batch size of the batched trunk/heads
   forward.  Tensors carry exact shapes (the packed GEMM validates them), so
   buffers are keyed by the batch row count rather than grown in place;
   the set of distinct batch sizes is small (a search leaf is one row),
   and the table is reset if it ever grows
   past a bound, giving geometric-growth behaviour without views. *)
type buffers = {
  sx0 : Tensor.t;  (* B × 3m   stacked readout rows *)
  sx : Tensor.t;  (* B × w    trunk activations, updated in place *)
  sb1 : Tensor.t;  (* B × w    layernorm / fc2 scratch *)
  sb2 : Tensor.t;  (* B × w    fc1 scratch *)
  slogits : Tensor.t;  (* B × m *)
  svalues : Tensor.t;  (* B × 1 *)
}

(* A memoized message matrix φ(M)/m.  On the 0/∞ ATE family nearly
   every edge matrix is a·J + diag(d): one value off the diagonal.  Such
   a matrix is kept as m + 1 floats, [d_0 … d_{m-1}] then [a], and its
   rows are summed from shared prefixes; every other matrix (and every
   matrix at m = 1) is kept [Dense]. *)
type msg =
  | Dense of Tensor.t  (* m × m *)
  | Jdiag of floatarray  (* d_0 … d_{m-1}, a *)

(* The encoding of the instance a replica evaluates, built once per
   search root: every leaf is the root's edge set restricted to fewer
   live vertices, with the same matrices. *)
type encoding = {
  uid : int;  (* the [Graph.uid] it encodes; 0, which no graph has, at first *)
  covers : bool array;  (* vertex id ↦ alive at build time *)
  eoff : int array;  (* vertex v's edges are [eoff.(v), eoff.(v + 1)) *)
  enbr : int array;  (* edge ↦ neighbour id, ascending per vertex *)
  emsg : msg array;  (* edge ↦ message matrix from the neighbour into v *)
}

(* Flat CSR scratch for the GCN message pass of [prepare]: per call one
   vertex index, the neighbour rows in increasing order and their message
   matrices, shared by every GCN layer, plus the embedding buffers.
   Everything is overwritten call over call and only grows (to the
   largest graph the replica has seen); a fresh net holds 1-row
   placeholders, so nothing is sized before the first [prepare]. *)
type csr = {
  mutable rows : int;  (* live vertices of the current graph *)
  mutable row_of : int array;  (* vertex id ↦ row, valid for live ids *)
  mutable vert : int array;  (* row ↦ vertex id, increasing *)
  mutable off : int array;  (* row r's edges are [off.(r), off.(r + 1)) *)
  mutable nbr : int array;  (* edge ↦ neighbour row *)
  mutable msg : msg array;  (* edge ↦ message matrix *)
  mutable h : Tensor.t;  (* cap × m  embeddings, updated in place *)
  mutable hs : Tensor.t;  (* cap × m  self transforms *)
  mutable hm : Tensor.t;  (* cap × m  neighbour means *)
  pk : floatarray;  (* m  a·h_u of the current [Jdiag] edge *)
}

type arena = {
  mutable enc : encoding;
  csr : csr;
  bufs : (int, buffers) Hashtbl.t;  (* batch rows ↦ buffer set *)
  packs : (string, Tensor.packed) Hashtbl.t;
      (* param name ↦ packed transposed weight panels (the B operand of
         the fused GEMM), valid for [pack_version] *)
  mutable pack_version : int;
}

type t = {
  config : config;
  arena : arena;
      (* per replica: the forward reuses the encoding and these buffers
         call over call, so steady-state inference allocates only the
         per-sample results *)
  mutable version : int;
      (* weights-identity stamp for the evaluation cache: every weight
         mutation (an optimizer step, a load) installs a globally fresh
         stamp, and [sync] copies the stamp with the weights — so equal
         stamps imply bitwise-equal weights, across replicas included *)
  mutable evals : int;
      (* lifetime count of leaf evaluations served by this replica *)
  gcn : gcn_layer array;
  trunk_in : Layer.Linear.t;
  trunk : Layer.Residual.t array;
  trunk_ln : Layer.Layernorm.t;
  policy_head : Layer.Linear.t;
  value_head : Layer.Linear.t;
}

(* Atomic: replicas are refreshed from worker domains' results while the
   trainer mints new stamps. *)
let next_version =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

let create ~rng config =
  if config.m <= 0 then invalid_arg "Pvnet.create: m <= 0";
  if config.gcn_layers < 1 then invalid_arg "Pvnet.create: gcn_layers < 1";
  let m = config.m in
  {
    config;
    arena =
      {
        enc =
          { uid = 0; covers = [||]; eoff = [| 0 |]; enbr = [||]; emsg = [||] };
        csr =
          {
            rows = 0;
            row_of = [||];
            vert = [||];
            off = [| 0 |];
            nbr = [||];
            msg = [||];
            h = Tensor.zeros [| 1; m |];
            hs = Tensor.zeros [| 1; m |];
            hm = Tensor.zeros [| 1; m |];
            pk = Float.Array.make m 0.0;
          };
        bufs = Hashtbl.create 8;
        packs = Hashtbl.create 8;
        pack_version = -1;
      };
    version = next_version ();
    evals = 0;
    gcn =
      Array.init config.gcn_layers (fun l ->
          let name k = Printf.sprintf "gcn%d.%s" l k in
          {
            w_self =
              Layer.Linear.create ~rng ~name:(name "self") ~in_dim:m ~out_dim:m;
            w_msg =
              Layer.Linear.create ~rng ~name:(name "msg") ~in_dim:m ~out_dim:m;
          });
    trunk_in =
      Layer.Linear.create ~rng ~name:"trunk.in" ~in_dim:(3 * m)
        ~out_dim:config.trunk_width;
    trunk =
      Array.init config.trunk_blocks (fun i ->
          Layer.Residual.create ~rng
            ~name:(Printf.sprintf "trunk.res%d" i)
            ~dim:config.trunk_width);
    trunk_ln = Layer.Layernorm.create ~name:"trunk.ln" ~dim:config.trunk_width;
    policy_head =
      Layer.Linear.create ~rng ~name:"policy" ~in_dim:config.trunk_width
        ~out_dim:m;
    value_head =
      Layer.Linear.create ~rng ~name:"value" ~in_dim:config.trunk_width
        ~out_dim:1;
  }

let config t = t.config

let params t =
  List.concat
    [
      Array.to_list t.gcn
      |> List.concat_map (fun l ->
             Layer.Linear.params l.w_self @ Layer.Linear.params l.w_msg);
      Layer.Linear.params t.trunk_in;
      Array.to_list t.trunk |> List.concat_map Layer.Residual.params;
      Layer.Layernorm.params t.trunk_ln;
      Layer.Linear.params t.policy_head;
      Layer.Linear.params t.value_head;
    ]

let param_count t = List.fold_left (fun acc v -> acc + Var.numel v) 0 (params t)

let version t = t.version
let bump_version t = t.version <- next_version ()
let eval_count t = t.evals

let sync ~src ~dst =
  if src.config <> dst.config then invalid_arg "Pvnet.sync: config mismatch";
  List.iter2
    (fun (a : Var.t) (b : Var.t) ->
      if a.Var.name <> b.Var.name then invalid_arg "Pvnet.sync: param mismatch";
      Float.Array.blit (Tensor.data a.Var.value) 0 (Tensor.data b.Var.value) 0
        (Tensor.numel a.Var.value))
    (params src) (params dst);
  dst.version <- src.version

let clone t =
  let t' = create ~rng:(Random.State.make [| 0 |]) t.config in
  sync ~src:t ~dst:t';
  t'

(* Refresh a live replica in place instead of allocating a fresh clone;
   a physical no-op when [src] and [dst] are the same net (worker 0's
   replica aliases the real net). *)
let copy_into ~src ~dst = if src != dst then sync ~src ~dst

(* --- Feature encoding ------------------------------------------------ *)

(* Soft availability weight: 1 at cost 0, decaying rationally so that the
   wide dynamic range of spill weights (1 .. 10^3) stays distinguishable,
   and 0 for inadmissible (∞) entries.  A [Cost.t] is a float, compared
   with ∞ here rather than by [Cost.is_inf], whose call would box it. *)
let[@inline] phi_cost scale (c : Cost.t) =
  if c = Float.infinity then 0.0 else 1.0 /. (1.0 +. (c /. scale))

(* Row [r]'s input features, read from the residual's cost block. *)
let row_features t (f : Graph.residual) r =
  let m = t.config.m in
  let costs = f.Graph.f_costs in
  Tensor.init1 m (fun i ->
      phi_cost t.config.cost_scale (Float.Array.get costs ((r * m) + i)))

(* Message matrix from u into v: [Graph.edge g v u] is already oriented
   with v's colors as rows and u's as columns, so [mv] maps u-space
   features into v-space.  Entries become soft compatibilities, scaled by
   1/m so message magnitudes stay bounded.  Classified straight from the
   costs: [Jdiag] when every off-diagonal cost equals cost (0, 1), so
   that every off-diagonal cell has the same bits.  Either class gives
   the same message bits; the class only picks the kernel. *)
let classify config (mat : Mat.t) =
  let m = config.m and scale = config.cost_scale and md = mat.Mat.data in
  let fm = float_of_int m in
  let jdiag = ref (m > 1) in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j && md.((i * m) + j) <> md.(1) then jdiag := false
    done
  done;
  if !jdiag then begin
    let jd = Float.Array.make (m + 1) (phi_cost scale md.(1) /. fm) in
    for i = 0 to m - 1 do
      Float.Array.set jd i (phi_cost scale md.((i * m) + i) /. fm)
    done;
    Jdiag jd
  end
  else begin
    let t = Tensor.zeros [| m; m |] in
    let td = Tensor.data t in
    for k = 0 to (m * m) - 1 do
      Float.Array.set td k (phi_cost scale md.(k) /. fm)
    done;
    Dense t
  end

(* The tape's message op, [Ad.mv] on the expanded matrix bit for bit
   without expanding it: a [Jdiag] row is [Tensor.mv]'s sum over the same
   cells, the transpose is [Tensor.tmv]'s (zero-skip included), and no
   gradient is formed for the constant matrix. *)
let jdiag_cell jd i j =
  if i = j then Float.Array.get jd i
  else Float.Array.get jd (Float.Array.length jd - 1)

let jdiag_mv jd h =
  let m = Tensor.dim1 h and hd = Tensor.data h in
  Tensor.init1 m (fun i ->
      let acc = ref 0.0 in
      for k = 0 to m - 1 do
        acc := !acc +. (jdiag_cell jd i k *. Float.Array.get hd k)
      done;
      !acc)

let jdiag_tmv jd g =
  let m = Tensor.dim1 g and gd = Tensor.data g in
  let out = Tensor.zeros [| m |] in
  let od = Tensor.data out in
  for i = 0 to m - 1 do
    let gi = Float.Array.get gd i in
    if gi <> 0.0 then
      for j = 0 to m - 1 do
        Float.Array.set od j (Float.Array.get od j +. (jdiag_cell jd i j *. gi))
      done
  done;
  out

let is_jdiag = function Jdiag _ -> true | Dense _ -> false

let message_apply entry x =
  match entry with
  | Dense a -> Ad.linear ~apply:(Tensor.mv a) ~transpose:(Tensor.tmv a) x
  | Jdiag jd -> Ad.linear ~apply:(jdiag_mv jd) ~transpose:(jdiag_tmv jd) x

(* [Tensor.mv] and [Tensor.tmv] of the transpose of a square [a],
   reading [a] transposed: the same products summed in the same order. *)
let mv_transposed a h =
  let m = Tensor.dim1 h and ad = Tensor.data a and hd = Tensor.data h in
  Tensor.init1 m (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m - 1 do
        acc :=
          !acc +. (Float.Array.get ad ((j * m) + i) *. Float.Array.get hd j)
      done;
      !acc)

let tmv_transposed a g =
  let m = Tensor.dim1 g and ad = Tensor.data a and gd = Tensor.data g in
  let out = Tensor.zeros [| m |] in
  let od = Tensor.data out in
  for i = 0 to m - 1 do
    let gi = Float.Array.get gd i in
    if gi <> 0.0 then
      for j = 0 to m - 1 do
        Float.Array.set od j
          (Float.Array.get od j +. (Float.Array.get ad ((j * m) + i) *. gi))
      done
  done;
  out

(* [message_apply] for the transposed matrix — the message the other
   endpoint of an undirected edge takes.  [classify] of a transpose is
   the transpose of [classify]: a [Jdiag] entry is its own transpose,
   and a [Dense] one holds the same cells. *)
let message_apply_transposed entry x =
  match entry with
  | Dense a ->
      Ad.linear ~apply:(mv_transposed a) ~transpose:(tmv_transposed a) x
  | Jdiag _ -> message_apply entry x

(* --- Forward --------------------------------------------------------- *)

(* Whether color [i] of row [r] is inadmissible (its cost is ∞). *)
let frozen_inf (f : Graph.residual) r i =
  Float.Array.get f.Graph.f_costs ((r * f.Graph.f_m) + i) = Float.infinity

(* The tape forward, over a frozen instance's residual; also returns
   [next]'s row. *)
let forward t ctx (f : Graph.residual) ~next =
  if f.Graph.f_m <> t.config.m then invalid_arg "Pvnet.forward: m mismatch";
  let rnext =
    match Array.find_index (Int.equal next) f.Graph.f_verts with
    | Some r -> r
    | None -> invalid_arg "Pvnet.forward: next vertex not alive"
  in
  let n = Array.length f.Graph.f_verts in
  let h = Array.init n (fun r -> Ad.const (row_features t f r)) in
  (* each row's in-edges with their message ops, in increasing
     neighbour order (edges come u-major, v increasing, so prepending
     them last to first leaves every list increasing); each undirected
     edge is classified once per call, its v side reading the transpose,
     and the ops are shared by every layer: replay batches mix
     instances, so nothing is kept between calls *)
  let inbound = Array.make n [] in
  let ends = f.Graph.f_ends in
  for k = Array.length f.Graph.f_mats - 1 downto 0 do
    let ur = ends.(2 * k) and vr = ends.((2 * k) + 1) in
    let e = classify t.config f.Graph.f_mats.(k) in
    inbound.(vr) <- (ur, message_apply_transposed e) :: inbound.(vr);
    inbound.(ur) <- (vr, message_apply e) :: inbound.(ur)
  done;
  Array.iter
    (fun layer ->
      let h' = Array.make n h.(0) in
      for v = 0 to n - 1 do
        let self = Layer.Linear.forward ctx layer.w_self h.(v) in
        let combined =
          match inbound.(v) with
          | [] -> self
          | ins ->
              let msgs = List.map (fun (u, apply) -> apply h.(u)) ins in
              Ad.add self
                (Layer.Linear.forward ctx layer.w_msg (Ad.mean_list msgs))
        in
        h'.(v) <- Ad.relu combined
      done;
      Array.blit h' 0 h 0 n)
    t.gcn;
  let global = Ad.mean_list (Array.to_list h) in
  let read =
    Ad.concat1 [ h.(rnext); global; Ad.const (row_features t f rnext) ]
  in
  let x = Ad.relu (Layer.Linear.forward ctx t.trunk_in read) in
  let x = Array.fold_left (fun x blk -> Layer.Residual.forward ctx blk x) x t.trunk in
  let x = Layer.Layernorm.forward ctx t.trunk_ln x in
  let logits = Layer.Linear.forward ctx t.policy_head x in
  let value = Ad.tanh_ (Layer.Linear.forward ctx t.value_head x) in
  (logits, value, rnext)

(* --- Inference ------------------------------------------------------- *)

let predict t g ~next =
  t.evals <- t.evals + 1;
  let ctx = Ad.ctx () in
  let f = Graph.residual (Graph.freeze g) in
  let logits, value, r = forward t ctx f ~next in
  let m = t.config.m in
  let masked =
    Tensor.init1 m (fun i ->
        if frozen_inf f r i then neg_infinity
        else Tensor.get1 (Ad.value logits) i)
  in
  let all_inf = ref true in
  for i = 0 to m - 1 do
    if not (frozen_inf f r i) then all_inf := false
  done;
  let priors =
    if !all_inf then Array.make m 0.0
    else Tensor.to_array1 (Ad.softmax masked)
  in
  (priors, Tensor.get1 (Ad.value value) 0)

(* --- Arena inference --------------------------------------------------- *)

(* The serving forward re-implements [forward] with plain tensors (no
   tape) in the replica's arena: the per-vertex GCN transforms and the
   trunk/heads run as packed GEMMs over row-stacked feature vectors.
   Every operation reproduces the tape's float arithmetic exactly: each
   GEMM output cell accumulates in the same ascending order as
   [Tensor.mv] (with operands commuted, which IEEE multiplication
   doesn't notice), and activations / LayerNorm are applied per row with
   the same expressions as their [Ad] counterparts.  [prepare] +
   [predict_prepared] is therefore bit-identical to [predict]; the
   equivalence property suite in test_nn locks this down. *)

(* Packed Wᵀ memoized per weights version: packing is pure data movement
   (panel cell (k, j) is exactly w.(j).(k)), so cached packs cannot
   perturb results; the table resets lazily whenever the version stamp
   moves (optimizer step, sync, load). *)
let packed_of t (lin : Layer.Linear.t) =
  let a = t.arena in
  if a.pack_version <> t.version then begin
    Hashtbl.reset a.packs;
    a.pack_version <- t.version
  end;
  let name = lin.Layer.Linear.w.Var.name in
  match Hashtbl.find a.packs name with
  | p -> p
  | exception Not_found ->
      let p = Tensor.pack_transposed lin.Layer.Linear.w.Var.value in
      Hashtbl.replace a.packs name p;
      p

(* The first [rows] rows of x ↦ x Wᵀ + b into a caller-owned buffer,
   with the epilogue (bias, optional relu) fused into the packed GEMM —
   one pass over memory, each output cell written once.  Bit-identical
   to [matmul] + bias (+ a separate relu pass): same float operations,
   same order. *)
let linear_rows_into ~rows ~relu t (lin : Layer.Linear.t) x out =
  Tensor.matmul_packed_prefix_into ~rows ~bias:lin.Layer.Linear.b.Var.value
    ~relu out x (packed_of t lin)
[@@hot]

(* per-row LayerNorm mirroring Ad.layernorm's arithmetic term for term;
   overwrites every cell of [out], so dirty scratch buffers are fine.
   The row width is the gain's length and the row count follows from the
   buffer size, so no shape tuple is allocated. *)
let layernorm_rows_into (ln : Layer.Layernorm.t) x out =
  let eps = 1e-5 in
  let xd = Tensor.data x in
  let gd = Tensor.data ln.Layer.Layernorm.gain.Var.value in
  let bd = Tensor.data ln.Layer.Layernorm.bias.Var.value in
  let od = Tensor.data out in
  let c = Float.Array.length gd in
  let r = Float.Array.length xd / c in
  if Float.Array.length od <> r * c || Float.Array.length xd <> r * c then
    invalid_arg "Pvnet.layernorm_rows_into: shape mismatch";
  let nf = float_of_int c in
  for i = 0 to r - 1 do
    let base = i * c in
    let s = ref 0.0 in
    for j = 0 to c - 1 do
      s := !s +. Float.Array.unsafe_get xd (base + j)
    done;
    let mu = !s /. nf in
    let acc = ref 0.0 in
    for j = 0 to c - 1 do
      let d = Float.Array.unsafe_get xd (base + j) -. mu in
      acc := !acc +. (d *. d)
    done;
    let var = !acc /. nf in
    let sigma = sqrt (var +. eps) in
    for j = 0 to c - 1 do
      let xhat = (Float.Array.unsafe_get xd (base + j) -. mu) /. sigma in
      Float.Array.unsafe_set od (base + j)
        ((Float.Array.unsafe_get gd j *. xhat) +. Float.Array.unsafe_get bd j)
    done
  done
[@@hot]

(* --- GCN message pass over the flat CSR scratch ----------------------- *)

let no_msg = Jdiag (Float.Array.create 0)

(* Build the encoding of [g]'s edge set over its live vertices: each
   one's neighbours as [Graph.neighbors] lists them, and the message
   matrix of each directed edge classified once.  Runs once per search
   root, not per leaf. *)
let encode t g =
  let cap = Graph.capacity g in
  let covers = Array.init cap (Graph.is_alive g) in
  let eoff = Array.make (cap + 1) 0 in
  for v = 0 to cap - 1 do
    eoff.(v + 1) <- (eoff.(v) + if covers.(v) then Graph.degree g v else 0)
  done;
  let enbr = Array.make eoff.(cap) 0 in
  let emsg = Array.make eoff.(cap) no_msg in
  for v = 0 to cap - 1 do
    if covers.(v) then
      List.iteri
        (fun i u ->
          enbr.(eoff.(v) + i) <- u;
          emsg.(eoff.(v) + i) <-
            classify t.config (Option.get (Graph.edge_ref g v u)))
        (Graph.neighbors g v)
  done;
  t.arena.enc <- { uid = Graph.uid g; covers; eoff; enbr; emsg }

(* Pass 1: index the live vertices in increasing id and size every CSR
   buffer for [g], first rebuilding the encoding if it is for another
   edge set or misses a live vertex (a retreat revives vertices that may
   have been dead at build time).  Growth is geometric, so a replica
   settles on its largest graph and then allocates nothing here. *)
let csr_index t g =
  let c = t.arena.csr and m = t.config.m in
  let cap = Graph.capacity g in
  if t.arena.enc.uid <> Graph.uid g then encode t g;
  if Array.length c.row_of < cap then begin
    let n = max cap (2 * Array.length c.row_of) in
    c.row_of <- Array.make n 0;
    c.vert <- Array.make n 0;
    c.off <- Array.make (n + 1) 0
  end;
  let rows = ref 0 in
  for v = 0 to cap - 1 do
    if Graph.is_alive g v then begin
      if not t.arena.enc.covers.(v) then encode t g;
      c.row_of.(v) <- !rows;
      c.vert.(!rows) <- v;
      incr rows
    end
  done;
  c.rows <- !rows;
  let edges = Array.length t.arena.enc.enbr in
  if Array.length c.nbr < edges then begin
    let n = max edges (2 * Array.length c.nbr) in
    c.nbr <- Array.make n 0;
    c.msg <- Array.make n no_msg
  end;
  (* [h]'s row capacity, read without [dims2]'s tuple *)
  let hrows = Tensor.numel c.h / m in
  if hrows < !rows then begin
    let n = max !rows (2 * hrows) in
    c.h <- Tensor.zeros [| n; m |];
    c.hs <- Tensor.zeros [| n; m |];
    c.hm <- Tensor.zeros [| n; m |]
  end

(* Pass 2: each live vertex's edges read off the encoding, neighbours
   increasing (as [Graph.neighbors] lists them) with the dead ones
   skipped, and the input features of every live vertex as the rows of
   [h].  Allocates nothing. *)
let csr_fill t g =
  let c = t.arena.csr and enc = t.arena.enc and m = t.config.m in
  let scale = t.config.cost_scale in
  let hd = Tensor.data c.h in
  let k = ref 0 in
  for r = 0 to c.rows - 1 do
    let v = Array.unsafe_get c.vert r in
    for e = Array.unsafe_get enc.eoff v to Array.unsafe_get enc.eoff (v + 1) - 1
    do
      let u = Array.unsafe_get enc.enbr e in
      if Graph.is_alive g u then begin
        Array.unsafe_set c.nbr !k (Array.unsafe_get c.row_of u);
        Array.unsafe_set c.msg !k (Array.unsafe_get enc.emsg e);
        incr k
      end
    done;
    Array.unsafe_set c.off (r + 1) !k;
    let cost = (Graph.cost g v :> float array) in
    for i = 0 to m - 1 do
      Float.Array.unsafe_set hd ((r * m) + i)
        (phi_cost scale (Array.unsafe_get cost i))
    done
  done
[@@hot]

(* Row i of the [Jdiag] message a·J + diag(d) applied to h_u (at [hu]
   in [hd]), added into [hmd] at [orow + i], for every i.  [Tensor.mv]
   sums row i as ((0.0 + p_0) + …) + p_{i-1}, then + d_i·h_u,i, then
   + p_{i+1} … + p_{m-1}, with p_k = a·h_u,k; so each p_k is computed
   once into [pk], the running prefix P_i is shared by all later rows,
   and each row finishes with its diagonal term and its own ascending
   suffix — the same float operations in the same order as the dense
   kernel, without loading a matrix.  Four rows per pass over the suffix,
   as in the dense kernel. *)
let jdiag_message ~m jd pk hd hu hmd orow =
  let a = Float.Array.unsafe_get jd m in
  for k = 0 to m - 1 do
    Float.Array.unsafe_set pk k (a *. Float.Array.unsafe_get hd (hu + k))
  done;
  let pre = ref 0.0 in
  let i = ref 0 in
  while !i + 4 <= m do
    let i0 = !i in
    let p0 = Float.Array.unsafe_get pk i0 in
    let p1 = Float.Array.unsafe_get pk (i0 + 1) in
    let p2 = Float.Array.unsafe_get pk (i0 + 2) in
    let p3 = Float.Array.unsafe_get pk (i0 + 3) in
    let s1 = !pre +. p0 in
    let s2 = s1 +. p1 in
    let s3 = s2 +. p2 in
    let t0 =
      ref
        (!pre
        +. (Float.Array.unsafe_get jd i0 *. Float.Array.unsafe_get hd (hu + i0))
        +. p1 +. p2 +. p3)
    in
    let t1 =
      ref
        (s1
        +. Float.Array.unsafe_get jd (i0 + 1)
           *. Float.Array.unsafe_get hd (hu + i0 + 1)
        +. p2 +. p3)
    in
    let t2 =
      ref
        (s2
        +. Float.Array.unsafe_get jd (i0 + 2)
           *. Float.Array.unsafe_get hd (hu + i0 + 2)
        +. p3)
    in
    let t3 =
      ref
        (s3
        +. Float.Array.unsafe_get jd (i0 + 3)
           *. Float.Array.unsafe_get hd (hu + i0 + 3))
    in
    pre := s3 +. p3;
    for k = i0 + 4 to m - 1 do
      let p = Float.Array.unsafe_get pk k in
      t0 := !t0 +. p;
      t1 := !t1 +. p;
      t2 := !t2 +. p;
      t3 := !t3 +. p
    done;
    let o = orow + i0 in
    Float.Array.unsafe_set hmd o (Float.Array.unsafe_get hmd o +. !t0);
    Float.Array.unsafe_set hmd (o + 1)
      (Float.Array.unsafe_get hmd (o + 1) +. !t1);
    Float.Array.unsafe_set hmd (o + 2)
      (Float.Array.unsafe_get hmd (o + 2) +. !t2);
    Float.Array.unsafe_set hmd (o + 3)
      (Float.Array.unsafe_get hmd (o + 3) +. !t3);
    i := i0 + 4
  done;
  while !i < m do
    let i0 = !i in
    let t =
      ref
        (!pre
        +. (Float.Array.unsafe_get jd i0 *. Float.Array.unsafe_get hd (hu + i0)))
    in
    pre := !pre +. Float.Array.unsafe_get pk i0;
    for k = i0 + 1 to m - 1 do
      t := !t +. Float.Array.unsafe_get pk k
    done;
    let o = orow + i0 in
    Float.Array.unsafe_set hmd o (Float.Array.unsafe_get hmd o +. !t);
    i := i0 + 1
  done
[@@hot]

(* Row r of [hm] ← the mean over r's neighbours u of M_ru · h_u, for the
   first [rows] rows; rows without neighbours are zeroed.  A [Dense] M·h
   is computed four output rows per pass over h_u, but every output still
   sums its own products in ascending k from 0.0 — exactly [Tensor.mv];
   a [Jdiag] one runs [jdiag_message].  Each message is then added to the
   row's accumulator in neighbour order and scaled by 1/deg, exactly
   [add_into] + [Tensor.scale]: bit-identical to the scalar [forward]'s
   mean of messages. *)
let message_pass ~m ~rows ~off ~nbr ~msg ~pk hd hmd =
  for r = 0 to rows - 1 do
    let orow = r * m in
    Float.Array.fill hmd orow m 0.0;
    let lo = Array.unsafe_get off r and hi = Array.unsafe_get off (r + 1) in
    for e = lo to hi - 1 do
      let hu = Array.unsafe_get nbr e * m in
      match Array.unsafe_get msg e with
      | Jdiag jd -> jdiag_message ~m jd pk hd hu hmd orow
      | Dense a ->
          let md = Tensor.data a in
          let i = ref 0 in
          while !i + 4 <= m do
            let i0 = !i in
            let b0 = i0 * m in
            let b1 = b0 + m in
            let b2 = b1 + m in
            let b3 = b2 + m in
            let t0 = ref 0.0 and t1 = ref 0.0 and t2 = ref 0.0 and t3 = ref 0.0 in
            for k = 0 to m - 1 do
              let x = Float.Array.unsafe_get hd (hu + k) in
              t0 := !t0 +. (Float.Array.unsafe_get md (b0 + k) *. x);
              t1 := !t1 +. (Float.Array.unsafe_get md (b1 + k) *. x);
              t2 := !t2 +. (Float.Array.unsafe_get md (b2 + k) *. x);
              t3 := !t3 +. (Float.Array.unsafe_get md (b3 + k) *. x)
            done;
            let o = orow + i0 in
            Float.Array.unsafe_set hmd o (Float.Array.unsafe_get hmd o +. !t0);
            Float.Array.unsafe_set hmd (o + 1)
              (Float.Array.unsafe_get hmd (o + 1) +. !t1);
            Float.Array.unsafe_set hmd (o + 2)
              (Float.Array.unsafe_get hmd (o + 2) +. !t2);
            Float.Array.unsafe_set hmd (o + 3)
              (Float.Array.unsafe_get hmd (o + 3) +. !t3);
            i := i0 + 4
          done;
          while !i < m do
            let b = !i * m in
            let acc = ref 0.0 in
            for k = 0 to m - 1 do
              let x = Float.Array.unsafe_get hd (hu + k) in
              acc := !acc +. (Float.Array.unsafe_get md (b + k) *. x)
            done;
            let o = orow + !i in
            Float.Array.unsafe_set hmd o (Float.Array.unsafe_get hmd o +. !acc);
            incr i
          done
    done;
    if hi > lo then begin
      let s = 1.0 /. float_of_int (hi - lo) in
      for i = orow to orow + m - 1 do
        Float.Array.unsafe_set hmd i (s *. Float.Array.unsafe_get hmd i)
      done
    end
  done
[@@hot]

(* Vertices without neighbours take no message: h ← relu(self), which
   the fused message GEMM (self + bias-only message) got wrong for them. *)
let isolated_fixup ~m ~rows ~off hd hsd =
  for r = 0 to rows - 1 do
    if Array.unsafe_get off r = Array.unsafe_get off (r + 1) then
      for i = r * m to (r * m) + m - 1 do
        let v = Float.Array.unsafe_get hsd i in
        Float.Array.unsafe_set hd i (if v > 0.0 then v else 0.0)
      done
  done
[@@hot]

(* The GCN + readout part of [forward] as plain-tensor arithmetic over
   the CSR scratch: one 3m readout row for one state.  Per layer, one
   packed GEMM for the self transforms, the message pass, and one
   packed GEMM for the message transforms with the self row as residual
   and relu fused — self + msg then relu, the scalar [forward]'s
   [Ad.relu (Ad.add self msg)] term for term. *)
let readout_row t g ~next =
  let m = t.config.m in
  let c = t.arena.csr in
  csr_index t g;
  csr_fill t g;
  let rows = c.rows in
  let hd = Tensor.data c.h and hsd = Tensor.data c.hs in
  for l = 0 to Array.length t.gcn - 1 do
    let { w_self; w_msg } = t.gcn.(l) in
    Tensor.matmul_packed_prefix_into ~rows
      ~bias:w_self.Layer.Linear.b.Var.value ~relu:false c.hs c.h
      (packed_of t w_self);
    message_pass ~m ~rows ~off:c.off ~nbr:c.nbr ~msg:c.msg ~pk:c.pk hd
      (Tensor.data c.hm);
    Tensor.matmul_packed_prefix_residual_into ~rows
      ~bias:w_msg.Layer.Linear.b.Var.value ~residual:c.hs ~relu:true c.h c.hm
      (packed_of t w_msg);
    isolated_fixup ~m ~rows ~off:c.off hd hsd
  done;
  (* [next's embedding; mean embedding; next's features], the mean
     summed in vertex order then scaled, as [Ad.mean_list] does *)
  let row = Tensor.zeros [| 3 * m |] in
  let rd = Tensor.data row in
  let base = c.row_of.(next) * m in
  let inv = 1.0 /. float_of_int rows in
  let cost = (Graph.cost g next :> float array) in
  for i = 0 to m - 1 do
    Float.Array.set rd i (Float.Array.get hd (base + i));
    let acc = ref 0.0 in
    for r = 0 to rows - 1 do
      acc := !acc +. Float.Array.get hd ((r * m) + i)
    done;
    Float.Array.set rd (m + i) (inv *. !acc);
    Float.Array.set rd ((2 * m) + i) (phi_cost t.config.cost_scale cost.(i))
  done;
  row

(* A state's whole contribution to a batched forward, captured while its
   graph is live: the 3m readout row plus a private copy of the next
   vertex's cost vector (the post-trunk mask).  Incremental search states
   share one mutating graph, so a batch materializes each leaf in turn as
   a [prepared] and only then runs the trunk GEMMs. *)
type prepared = { p_row : Tensor.t; p_mask : Vec.t }

let prepare t g ~next =
  if Graph.m g <> t.config.m then invalid_arg "Pvnet.prepare: m mismatch";
  if not (Graph.is_alive g next) then
    invalid_arg "Pvnet.prepare: next vertex not alive";
  { p_row = readout_row t g ~next; p_mask = Vec.copy (Graph.cost g next) }

(* Scratch buffers for a batch of [b] rows, reused call over call.  The
   64-size-class bound exists only to keep pathological callers from
   pinning unbounded memory; a search loop settles on a handful of batch
   sizes, so in steady state this allocates nothing. *)
let buffers t b =
  let a = t.arena in
  match Hashtbl.find a.bufs b with
  | bu -> bu
  | exception Not_found ->
      if Hashtbl.length a.bufs > 64 then Hashtbl.reset a.bufs;
      let m = t.config.m and w = t.config.trunk_width in
      let bu =
        {
          sx0 = Tensor.zeros [| b; 3 * m |];
          sx = Tensor.zeros [| b; w |];
          sb1 = Tensor.zeros [| b; w |];
          sb2 = Tensor.zeros [| b; w |];
          slogits = Tensor.zeros [| b; m |];
          svalues = Tensor.zeros [| b; 1 |];
        }
      in
      Hashtbl.replace a.bufs b bu;
      bu

(* The trunk/heads forward: rows already blitted into [bu.sx0]; every
   GEMM runs the packed fused kernel (bias, residual add and relu folded
   into the epilogue) into a preallocated buffer, with the packed weight
   panels memoized per weights version, so each layer makes one pass
   over memory and the whole trunk allocates nothing (test_nn's
   predict_prepared word count pins it). *)
let trunk_forward t bu ~rows =
  linear_rows_into ~rows ~relu:true t t.trunk_in bu.sx0 bu.sx;
  for k = 0 to Array.length t.trunk - 1 do
    let blk : Layer.Residual.t = t.trunk.(k) in
    layernorm_rows_into blk.Layer.Residual.ln bu.sx bu.sb1;
    linear_rows_into ~rows ~relu:true t blk.Layer.Residual.fc1 bu.sb1 bu.sb2;
    (* fc2 + bias + residual fused, written straight into sx (the
       out == residual aliasing the packed kernel supports) *)
    let fc2 = blk.Layer.Residual.fc2 in
    Tensor.matmul_packed_prefix_residual_into ~rows
      ~bias:fc2.Layer.Linear.b.Var.value ~residual:bu.sx ~relu:false bu.sx
      bu.sb2 (packed_of t fc2)
  done;
  layernorm_rows_into t.trunk_ln bu.sx bu.sb1;
  linear_rows_into ~rows ~relu:false t t.policy_head bu.sb1 bu.slogits;
  linear_rows_into ~rows ~relu:false t t.value_head bu.sb1 bu.svalues

(* Per-row mask + softmax straight out of the logits buffer into the
   result array, no intermediate tensors.  Reproduces [Ad.softmax] over
   the [init1]-masked row term for term: the max folds [Float.max]'s
   comparison over the masked values in ascending order (inadmissible
   colors read as -inf; written out so that no float is boxed, and equal
   to [Float.max] for every non-NaN input), [exp (x -. mx)] per element,
   the normalizer sums in ascending order, and each prior is
   [(1.0 /. z) *. e] — so results stay bit-identical to the scalar
   [predict] epilogue. *)
let mask_results t preps logits values =
  let m = t.config.m and n = Array.length preps in
  let ld = Tensor.data logits and vd = Tensor.data values in
  if Float.Array.length ld <> n * m || Float.Array.length vd <> n then
    invalid_arg "Pvnet.mask_results: output buffer shape mismatch";
  let out = Array.make n ([||], 0.0) in
  for i = 0 to n - 1 do
    let p = preps.(i) in
    let cost = (p.p_mask :> float array) in
    let base = i * m in
    let priors =
      if Vec.is_all_inf p.p_mask then Array.make m 0.0
      else begin
        let e = Array.make m 0.0 in
        let mx = ref neg_infinity in
        for c = 0 to m - 1 do
          let x =
            if cost.(c) = Float.infinity then neg_infinity
            else Float.Array.unsafe_get ld (base + c)
          in
          e.(c) <- x;
          if x > !mx || ((not (Float.sign_bit x)) && Float.sign_bit !mx)
          then mx := x
        done;
        let z = ref 0.0 in
        for c = 0 to m - 1 do
          e.(c) <- exp (e.(c) -. !mx);
          z := !z +. e.(c)
        done;
        let inv = 1.0 /. !z in
        for c = 0 to m - 1 do
          e.(c) <- inv *. e.(c)
        done;
        e
      end
    in
    out.(i) <- (priors, Float.tanh (Float.Array.unsafe_get vd i))
  done;
  out

let predict_prepared t preps =
  match preps with
  | [||] -> [||]
  | _ ->
      let n = Array.length preps in
      t.evals <- t.evals + n;
      let bu = buffers t n in
      for i = 0 to n - 1 do
        Tensor.blit_row_into preps.(i).p_row i bu.sx0
      done;
      trunk_forward t bu ~rows:n;
      mask_results t preps bu.slogits bu.svalues

(* --- Training -------------------------------------------------------- *)

type sample = {
  instance : Pbqp.Graph.frozen;
  next : int;
  policy : float array;
  value : float;
}

let loss t ctx sample =
  if Array.length sample.policy <> t.config.m then
    invalid_arg "Pvnet.loss: policy length mismatch";
  let f = Graph.residual sample.instance in
  let logits, value, r = forward t ctx f ~next:sample.next in
  (* Mask inadmissible colors with a large negative constant so the
     softmax assigns them no probability; the policy target is zero there,
     so no gradient flows to the mask. *)
  let mask =
    Ad.const
      (Tensor.init1 t.config.m (fun i ->
           if frozen_inf f r i then -1e9 else 0.0))
  in
  let xent =
    Ad.softmax_xent (Ad.add logits mask) (Tensor.of_array1 sample.policy)
  in
  let d = Ad.sub value (Ad.scalar sample.value) in
  Ad.add xent (Ad.mul d d)

let train_batch t opt samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let grads = Grads.create () in
      let total = ref 0.0 in
      let vars = params t in
      List.iter
        (fun s ->
          let ctx = Ad.ctx () in
          let l = loss t ctx s in
          Ad.backward l;
          total := !total +. Tensor.get1 (Ad.value l) 0;
          Grads.add_from_ctx grads ctx vars)
        samples;
      Adam.step opt (Grads.to_list_ordered grads ~vars);
      bump_version t;
      !total /. float_of_int (List.length samples)

(* Data-parallel training step.  Each sample's forward/backward is an
   independent pool task running on a per-worker replica; the merge
   on the submitting domain then replays exactly the serial reduction —
   gradients combined per parameter in ascending sample order (copy then
   add_into, like [Grads.add]), losses summed in sample order, the grads
   list handed to Adam in [params] order — so the updated weights are
   bit-identical to [train_batch] for any pool size. *)
let train_batch_parallel ?weights ~pool ~replicas t opt samples =
  match samples with
  | [] -> 0.0
  | _ ->
      let nw = Par.Pool.size pool in
      if Array.length replicas <> nw then
        invalid_arg "Pvnet.train_batch_parallel: replicas/pool size mismatch";
      (* Stale-sample down-weighting (distributed learner): sample [i]'s
         loss and gradient are scaled by [weights.(i)] before the merge.
         An all-ones array short-circuits to the unweighted path, whose
         bitwise behaviour is locked down by test_par — the distributed
         N=1 run leans on that identity. *)
      let weights =
        match weights with
        | Some ws when Array.exists (fun w -> w <> 1.0) ws ->
            if Array.length ws <> List.length samples then
              invalid_arg "Pvnet.train_batch_parallel: weights/samples mismatch";
            Some ws
        | _ -> None
      in
      Array.iter (fun r -> copy_into ~src:t ~dst:r) replicas;
      let rparams = Array.map (fun r -> Array.of_list (params r)) replicas in
      let samples = Array.of_list samples in
      let results =
        Par.Pool.map pool samples ~f:(fun ~worker s ->
            let net = replicas.(worker) in
            let ctx = Ad.ctx () in
            let l = loss net ctx s in
            Ad.backward l;
            let ps = rparams.(worker) in
            let gs = ref [] in
            for j = Array.length ps - 1 downto 0 do
              match Ad.var_grad ctx ps.(j) with
              | Some g -> gs := (j, g) :: !gs
              | None -> ()
            done;
            (Tensor.get1 (Ad.value l) 0, !gs))
      in
      let vars = Array.of_list (params t) in
      let acc = Array.make (Array.length vars) None in
      let total = ref 0.0 in
      Array.iteri
        (fun i (l, gs) ->
          let w = match weights with None -> 1.0 | Some ws -> ws.(i) in
          total := !total +. (w *. l);
          List.iter
            (fun (j, g) ->
              let g = match weights with None -> g | Some _ -> Tensor.scale w g in
              match acc.(j) with
              | None -> acc.(j) <- Some (Tensor.copy g)
              | Some a -> Tensor.add_into a g)
            gs)
        results;
      let n = Array.length samples in
      let s = 1.0 /. float_of_int n in
      let grads = ref [] in
      for j = Array.length vars - 1 downto 0 do
        match acc.(j) with
        | Some a -> grads := (vars.(j), Tensor.scale s a) :: !grads
        | None -> ()
      done;
      Adam.step opt !grads;
      bump_version t;
      !total /. float_of_int n

(* --- Persistence ------------------------------------------------------ *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let c = t.config in
      Printf.fprintf oc "pvnet %d %d %d %d %.17g\n" c.m c.gcn_layers
        c.trunk_width c.trunk_blocks c.cost_scale;
      List.iter
        (fun (v : Var.t) ->
          let shape = Tensor.shape v.Var.value in
          Printf.fprintf oc "param %s %s\n" v.Var.name
            (String.concat "x" (Array.to_list (Array.map string_of_int shape)));
          let d = Tensor.data v.Var.value in
          Float.Array.iteri
            (fun i x ->
              if i > 0 then output_char oc ' ';
              Printf.fprintf oc "%.17g" x)
            d;
          output_char oc '\n')
        (params t))

(* Header and shape parsing shared by both loaders: a malformed token
   raises [Invalid_argument] through [fail], never [Failure]. *)
let parse_config ~fail = function
  | [ m; gl; tw; tb; cs ] -> (
      match
        ( int_of_string_opt m,
          int_of_string_opt gl,
          int_of_string_opt tw,
          int_of_string_opt tb,
          float_of_string_opt cs )
      with
      | Some m, Some gcn_layers, Some trunk_width, Some trunk_blocks,
        Some cost_scale ->
          { m; gcn_layers; trunk_width; trunk_blocks; cost_scale }
      | _ -> fail "malformed header")
  | _ -> fail "malformed header"

let parse_shape ~fail s =
  String.split_on_char 'x' s
  |> List.map (fun d ->
         match int_of_string_opt d with
         | Some d -> d
         | None -> fail "malformed shape")
  |> Array.of_list

(* Both loaders stage every parameter before writing any: [stage] checks
   one entry against the net (known name, first occurrence, same shape)
   and keeps its values; [commit] requires every parameter exactly once,
   and only then overwrites the weights and installs a fresh stamp.  A
   rejected input therefore leaves the net's weights and version
   untouched, so the version-keyed eval cache and packed panels never
   see a half-loaded net. *)
let staged ~who t =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  let vars = params t in
  let staged = Hashtbl.create 32 in
  let stage name shape values =
    match List.find_opt (fun (v : Var.t) -> v.Var.name = name) vars with
    | None -> fail ("unknown param " ^ name)
    | Some _ when Hashtbl.mem staged name -> fail ("duplicate param " ^ name)
    | Some v ->
        if shape <> Tensor.shape v.Var.value then
          fail ("shape mismatch for " ^ name);
        Hashtbl.replace staged name (values (Tensor.numel v.Var.value))
  in
  let commit () =
    if Hashtbl.length staged <> List.length vars then fail "missing parameters";
    List.iter
      (fun (v : Var.t) ->
        let d = Hashtbl.find staged v.Var.name in
        Float.Array.blit d 0 (Tensor.data v.Var.value) 0 (Float.Array.length d))
      vars;
    bump_version t
  in
  (stage, commit)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail msg = invalid_arg ("Pvnet.load: " ^ msg) in
      let line () =
        match In_channel.input_line ic with
        | Some l -> l
        | None -> fail "truncated file"
      in
      let t =
        match String.split_on_char ' ' (line ()) with
        | "pvnet" :: fields ->
            create ~rng:(Random.State.make [| 0 |]) (parse_config ~fail fields)
        | _ -> fail "bad header"
      in
      let stage, commit = staged ~who:"Pvnet.load" t in
      let rec entries () =
        match In_channel.input_line ic with
        | None -> ()
        | Some l when String.trim l = "" -> entries ()
        | Some l -> (
            match String.split_on_char ' ' l with
            | [ "param"; name; shape_s ] ->
                let values = line () in
                stage name (parse_shape ~fail shape_s) (fun n ->
                    let toks =
                      String.split_on_char ' ' values
                      |> List.filter (fun s -> s <> "")
                    in
                    if List.length toks <> n then
                      fail ("value count for " ^ name);
                    Float.Array.of_list
                      (List.map
                         (fun s ->
                           match float_of_string_opt s with
                           | Some x -> x
                           | None -> fail ("malformed value for " ^ name))
                         toks));
                entries ()
            | _ -> fail "malformed line")
      in
      entries ();
      commit ();
      t)

(* --- Compact binary snapshots (parameter broadcast) ------------------- *)

(* The distributed learner broadcasts weights to actor processes after
   every optimizer step; the text checkpoint above renders ~%.17g per
   float (≈25 bytes), the snapshot stores raw IEEE-754 bits (8 bytes)
   and round-trips bitwise by construction.  Layout: one text header
   line, then per parameter a text line [p <name> <shape> <numel>]
   followed by numel little-endian float64 words and a newline.  Adam
   moments are deliberately excluded — actors only run inference. *)

let snapshot t =
  let b = Buffer.create 65536 in
  let c = t.config in
  Buffer.add_string b
    (Printf.sprintf "pvnet-bin1 %d %d %d %d %.17g\n" c.m c.gcn_layers
       c.trunk_width c.trunk_blocks c.cost_scale);
  List.iter
    (fun (v : Var.t) ->
      let shape = Tensor.shape v.Var.value in
      let d = Tensor.data v.Var.value in
      let n = Float.Array.length d in
      Buffer.add_string b
        (Printf.sprintf "p %s %s %d\n" v.Var.name
           (String.concat "x" (Array.to_list (Array.map string_of_int shape)))
           n);
      let raw = Bytes.create (8 * n) in
      for i = 0 to n - 1 do
        Bytes.set_int64_le raw (8 * i) (Int64.bits_of_float (Float.Array.get d i))
      done;
      Buffer.add_bytes b raw;
      Buffer.add_char b '\n')
    (params t);
  Buffer.contents b

(* Cursor-based parse over the snapshot string (it mixes text lines with
   raw float words, so a line-oriented reader cannot be reused). *)
let snapshot_header s =
  let fail msg = invalid_arg ("Pvnet.load_snapshot: " ^ msg) in
  let nl = try String.index s '\n' with Not_found -> fail "truncated header" in
  match String.split_on_char ' ' (String.sub s 0 nl) with
  | "pvnet-bin1" :: fields -> (parse_config ~fail fields, nl + 1)
  | _ -> fail "bad magic (expected pvnet-bin1)"

let load_snapshot t s =
  let fail msg = invalid_arg ("Pvnet.load_snapshot: " ^ msg) in
  let config, start = snapshot_header s in
  if config <> t.config then fail "config mismatch";
  let stage, commit = staged ~who:"Pvnet.load_snapshot" t in
  let len = String.length s in
  let pos = ref start in
  while !pos < len do
    let nl =
      try String.index_from s !pos '\n' with Not_found -> fail "truncated entry"
    in
    let line = String.sub s !pos (nl - !pos) in
    pos := nl + 1;
    match String.split_on_char ' ' line with
    | [ "p"; name; shape_s; numel_s ] ->
        let numel =
          match int_of_string_opt numel_s with
          | Some n when n >= 0 -> n
          | _ -> fail "malformed numel"
        in
        stage name (parse_shape ~fail shape_s) (fun n ->
            if numel <> n then fail ("numel mismatch for " ^ name);
            let stop = !pos + (8 * numel) in
            if stop + 1 > len then fail "truncated values";
            if s.[stop] <> '\n' then fail "missing entry terminator";
            let base = !pos in
            pos := stop + 1;
            Float.Array.init numel (fun i ->
                Int64.float_of_bits (String.get_int64_le s (base + (8 * i)))))
    | [ "" ] -> () (* tolerate a trailing blank line *)
    | _ -> fail "malformed entry line"
  done;
  commit ()

let snapshot_of_string s =
  let config, _ = snapshot_header s in
  let t = create ~rng:(Random.State.make [| 0 |]) config in
  load_snapshot t s;
  t
