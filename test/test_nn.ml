(* Tests for the tensor / autodiff / optimizer / policy-value-network
   stack.  The centerpiece is numerical gradient checking: every autodiff
   primitive is validated against central finite differences. *)

open Testutil

let feps = 1e-4

(* ------------------------------------------------------------------ *)
(* Tensor *)

let t_approx = Alcotest.testable Tensor.pp (Tensor.approx_equal ~eps:1e-9)

let test_tensor_shapes () =
  let a = Tensor.zeros [| 3 |] in
  Alcotest.(check int) "rank" 1 (Tensor.rank a);
  Alcotest.(check int) "numel" 3 (Tensor.numel a);
  let b = Tensor.zeros [| 2; 4 |] in
  let r, c = Tensor.dims2 b in
  Alcotest.(check (pair int int)) "dims2" (2, 4) (r, c);
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Tensor: shape must be [|n|] or [|r; c|] with positive dims")
    (fun () -> ignore (Tensor.zeros [| 0 |]))

let test_tensor_matmul () =
  let a = Tensor.of_array2 [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Tensor.of_array2 [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  Alcotest.check t_approx "matmul"
    (Tensor.of_array2 [| [| 19.; 22. |]; [| 43.; 50. |] |])
    (Tensor.matmul_naive a b)

let test_tensor_mv_tmv () =
  let m = Tensor.of_array2 [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let v = Tensor.of_array1 [| 1.; 0.; -1. |] in
  Alcotest.check t_approx "mv" (Tensor.of_array1 [| -2.; -2. |]) (Tensor.mv m v);
  let u = Tensor.of_array1 [| 1.; 2. |] in
  Alcotest.check t_approx "tmv = transpose mv"
    (Tensor.mv (Tensor.transpose m) u)
    (Tensor.tmv m u)

let test_tensor_outer_dot () =
  let u = Tensor.of_array1 [| 1.; 2. |] in
  let v = Tensor.of_array1 [| 3.; 4.; 5. |] in
  Alcotest.check t_approx "outer"
    (Tensor.of_array2 [| [| 3.; 4.; 5. |]; [| 6.; 8.; 10. |] |])
    (Tensor.outer u v);
  Alcotest.(check (float 1e-9)) "dot" 11.0 (Tensor.dot u (Tensor.of_array1 [| 3.; 4. |]))

let test_tensor_concat () =
  let a = Tensor.of_array1 [| 1.; 2. |] in
  let b = Tensor.of_array1 [| 3. |] in
  Alcotest.check t_approx "concat"
    (Tensor.of_array1 [| 1.; 2.; 3. |])
    (Tensor.concat1 [ a; b ])

let test_tensor_reductions () =
  let a = Tensor.of_array1 [| 1.; -2.; 4. |] in
  Alcotest.(check (float 1e-9)) "sum" 3.0 (Tensor.sum a);
  Alcotest.(check (float 1e-9)) "mean" 1.0 (Tensor.mean a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Tensor.max_value a);
  Alcotest.(check int) "argmax" 2 (Tensor.argmax1 a);
  Alcotest.(check (float 1e-9)) "l2sq" 21.0 (Tensor.l2norm_sq a)

let test_tensor_shape_errors () =
  let a = Tensor.zeros [| 2 |] and b = Tensor.zeros [| 3 |] in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Tensor.add: shape mismatch") (fun () ->
      ignore (Tensor.add a b));
  Alcotest.check_raises "matmul mismatch"
    (Invalid_argument "Tensor.matmul_naive: inner dims differ") (fun () ->
      ignore
        (Tensor.matmul_naive (Tensor.zeros [| 2; 3 |]) (Tensor.zeros [| 2; 3 |])))

(* ------------------------------------------------------------------ *)
(* Autodiff: numerical gradient checking *)

(* [check_grads vars f] compares autodiff gradients of the scalar function
   [f : Ad.ctx -> Ad.t] w.r.t. every var against central differences. *)
let check_grads ?(tol = 1e-4) name (vars : Nn.Var.t list) f =
  let eval () =
    let ctx = Nn.Ad.ctx () in
    Tensor.get1 (Nn.Ad.value (f ctx)) 0
  in
  let ctx = Nn.Ad.ctx () in
  let root = f ctx in
  Nn.Ad.backward root;
  List.iter
    (fun (v : Nn.Var.t) ->
      let g =
        match Nn.Ad.var_grad ctx v with
        | Some g -> g
        | None -> Tensor.zeros (Tensor.shape v.Nn.Var.value)
      in
      let data = Tensor.data v.Nn.Var.value in
      let gd = Tensor.data g in
      Float.Array.iteri
        (fun i x ->
          Float.Array.set data i (x +. feps);
          let up = eval () in
          Float.Array.set data i (x -. feps);
          let down = eval () in
          Float.Array.set data i x;
          let num = (up -. down) /. (2.0 *. feps) in
          let gi = Float.Array.get gd i in
          if Float.abs (num -. gi) > tol *. (1.0 +. Float.abs num) then
            Alcotest.failf "%s: var %s[%d]: numerical %.6f vs autodiff %.6f"
              name v.Nn.Var.name i num gi)
        data)
    vars

let mkvar name a = Nn.Var.create ~name (Tensor.of_array1 a)
let mkvar2 name a = Nn.Var.create ~name (Tensor.of_array2 a)

let test_grad_arith () =
  let a = mkvar "a" [| 0.5; -1.2; 2.0 |] in
  let b = mkvar "b" [| 1.5; 0.3; -0.7 |] in
  check_grads "add-mul-sub" [ a; b ] (fun ctx ->
      let x = Nn.Ad.of_var ctx a and y = Nn.Ad.of_var ctx b in
      Nn.Ad.sum (Nn.Ad.mul (Nn.Ad.add x y) (Nn.Ad.sub x y)))

let test_grad_scale_neg_mean () =
  let a = mkvar "a" [| 0.5; -1.2; 2.0; 0.1 |] in
  check_grads "scale-neg-mean" [ a ] (fun ctx ->
      let x = Nn.Ad.of_var ctx a in
      Nn.Ad.mean (Nn.Ad.neg (Nn.Ad.scale 3.0 (Nn.Ad.mul x x))))

let test_grad_relu_tanh () =
  (* keep values away from the ReLU kink *)
  let a = mkvar "a" [| 0.5; -1.2; 2.0; -0.4 |] in
  check_grads "relu" [ a ] (fun ctx ->
      Nn.Ad.sum (Nn.Ad.relu (Nn.Ad.of_var ctx a)));
  check_grads "tanh" [ a ] (fun ctx ->
      Nn.Ad.sum (Nn.Ad.tanh_ (Nn.Ad.of_var ctx a)))

let test_grad_mv () =
  let m = mkvar2 "m" [| [| 0.5; -1.0 |]; [| 2.0; 0.3 |]; [| -0.2; 1.1 |] |] in
  let v = mkvar "v" [| 0.7; -0.6 |] in
  check_grads "mv" [ m; v ] (fun ctx ->
      Nn.Ad.sum (Nn.Ad.tanh_ (Nn.Ad.mv (Nn.Ad.of_var ctx m) (Nn.Ad.of_var ctx v))))

let test_grad_concat_meanlist () =
  let a = mkvar "a" [| 0.5; -1.2 |] in
  let b = mkvar "b" [| 1.5; 0.3 |] in
  let c = mkvar "c" [| -0.9; 0.8 |] in
  check_grads "concat" [ a; b; c ] (fun ctx ->
      Nn.Ad.sum
        (Nn.Ad.tanh_
           (Nn.Ad.concat1
              [ Nn.Ad.of_var ctx a; Nn.Ad.of_var ctx b; Nn.Ad.of_var ctx c ])));
  check_grads "mean_list" [ a; b; c ] (fun ctx ->
      Nn.Ad.sum
        (Nn.Ad.tanh_
           (Nn.Ad.mean_list
              [ Nn.Ad.of_var ctx a; Nn.Ad.of_var ctx b; Nn.Ad.of_var ctx c ])))

let test_grad_softmax_xent () =
  let logits = mkvar "logits" [| 0.5; -1.2; 2.0; 0.1 |] in
  let target = Tensor.of_array1 [| 0.1; 0.2; 0.6; 0.1 |] in
  check_grads "softmax_xent" [ logits ] (fun ctx ->
      Nn.Ad.softmax_xent (Nn.Ad.of_var ctx logits) target)

let test_grad_layernorm () =
  let x = mkvar "x" [| 0.5; -1.2; 2.0; 0.1; -0.6 |] in
  let gain = mkvar "gain" [| 1.1; 0.9; 1.0; 1.2; 0.8 |] in
  let bias = mkvar "bias" [| 0.1; -0.1; 0.0; 0.2; -0.2 |] in
  check_grads "layernorm" [ x; gain; bias ] (fun ctx ->
      Nn.Ad.sum
        (Nn.Ad.tanh_
           (Nn.Ad.layernorm ~gain:(Nn.Ad.of_var ctx gain)
              ~bias:(Nn.Ad.of_var ctx bias) (Nn.Ad.of_var ctx x))))

let test_grad_shared_var () =
  (* a var used twice must accumulate both contributions: d/dx (x·x) = 2x *)
  let a = mkvar "a" [| 0.5; -1.2; 2.0 |] in
  let ctx = Nn.Ad.ctx () in
  let x = Nn.Ad.of_var ctx a in
  let x' = Nn.Ad.of_var ctx a in
  let root = Nn.Ad.sum (Nn.Ad.mul x x') in
  Nn.Ad.backward root;
  let g = Option.get (Nn.Ad.var_grad ctx a) in
  Alcotest.check t_approx "grad is 2x"
    (Tensor.of_array1 [| 1.0; -2.4; 4.0 |])
    g

let test_grad_layers () =
  let rng = rng 5 in
  let lin = Nn.Layer.Linear.create ~rng ~name:"l" ~in_dim:3 ~out_dim:2 in
  let x = mkvar "x" [| 0.5; -1.2; 2.0 |] in
  check_grads "linear layer"
    (x :: Nn.Layer.Linear.params lin)
    (fun ctx ->
      Nn.Ad.sum (Nn.Ad.tanh_ (Nn.Layer.Linear.forward ctx lin (Nn.Ad.of_var ctx x))));
  let res = Nn.Layer.Residual.create ~rng ~name:"r" ~dim:3 in
  check_grads "residual block"
    (x :: Nn.Layer.Residual.params res)
    (fun ctx ->
      Nn.Ad.sum
        (Nn.Ad.tanh_ (Nn.Layer.Residual.forward ctx res (Nn.Ad.of_var ctx x))))

(* ------------------------------------------------------------------ *)
(* Adam *)

let test_adam_quadratic () =
  (* minimize |w - target|^2: Adam should converge *)
  let w = mkvar "w" [| 5.0; -3.0 |] in
  let target = Tensor.of_array1 [| 1.0; 2.0 |] in
  let opt = Nn.Adam.create { Nn.Adam.default_config with lr = 0.1; weight_decay = 0.0 } in
  for _ = 1 to 300 do
    let ctx = Nn.Ad.ctx () in
    let d = Nn.Ad.sub (Nn.Ad.of_var ctx w) (Nn.Ad.const target) in
    let loss = Nn.Ad.sum (Nn.Ad.mul d d) in
    Nn.Ad.backward loss;
    Nn.Adam.step opt [ (w, Option.get (Nn.Ad.var_grad ctx w)) ]
  done;
  Alcotest.(check bool) "converged" true
    (Tensor.approx_equal ~eps:1e-2 target w.Nn.Var.value)

let test_adam_grad_clip () =
  (* a huge gradient must be scaled down to the clip norm before the
     update; the resulting step is bounded by ~lr *)
  let w = mkvar "w" [| 0.0 |] in
  let opt =
    Nn.Adam.create
      { Nn.Adam.default_config with lr = 0.1; weight_decay = 0.0; grad_clip = 1.0 }
  in
  Nn.Adam.step opt [ (w, Tensor.of_array1 [| 1e9 |]) ];
  Alcotest.(check bool) "step bounded" true
    (Float.abs (Tensor.get1 w.Nn.Var.value 0) <= 0.11)

let test_adam_weight_decay () =
  (* zero gradient + weight decay shrinks weights toward zero *)
  let w = mkvar "w" [| 4.0 |] in
  let opt =
    Nn.Adam.create { Nn.Adam.default_config with lr = 0.1; weight_decay = 0.5 }
  in
  for _ = 1 to 50 do
    Nn.Adam.step opt [ (w, Tensor.zeros [| 1 |]) ]
  done;
  Alcotest.(check bool) "shrunk" true (Float.abs (Tensor.get1 w.Nn.Var.value 0) < 1.0)

let test_adam_save_load_continues_identically () =
  (* moments + step count round-trip by parameter NAME (ids are not
     stable across processes), and a reloaded optimizer must continue
     bit-identically with the original *)
  let cfg = { Nn.Adam.default_config with lr = 0.05 } in
  let grad i = Tensor.of_array1 [| sin (float_of_int i); 0.5 |] in
  let w1 = mkvar "w" [| 3.0; -2.0 |] in
  let opt1 = Nn.Adam.create cfg in
  for i = 1 to 10 do
    Nn.Adam.step opt1 [ (w1, grad i) ]
  done;
  let path = Filename.temp_file "adam" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Adam.save opt1 ~params:[ w1 ] path;
      (* a fresh var with the same name but a different id *)
      let w2 = mkvar "w" (Tensor.to_array1 w1.Nn.Var.value) in
      let opt2 = Nn.Adam.create cfg in
      Nn.Adam.load opt2 ~params:[ w2 ] path;
      Alcotest.(check int) "step restored" (Nn.Adam.steps_taken opt1)
        (Nn.Adam.steps_taken opt2);
      for i = 11 to 20 do
        Nn.Adam.step opt1 [ (w1, grad i) ];
        Nn.Adam.step opt2 [ (w2, grad i) ]
      done;
      Alcotest.(check bool) "continuation bit-identical" true
        (tensor_bits_equal w1.Nn.Var.value w2.Nn.Var.value);
      Alcotest.check_raises "unknown param"
        (Invalid_argument "Adam.load: unknown param w") (fun () ->
          Nn.Adam.load (Nn.Adam.create cfg) ~params:[ mkvar "other" [| 0.0 |] ]
            path))

(* ------------------------------------------------------------------ *)
(* Pvnet *)

open Pbqp

let small_graph () =
  let g = Graph.create ~m:3 ~n:4 in
  Graph.set_cost g 0 (Vec.of_array [| 0.0; Cost.inf; 1.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 2.0; 0.0; 0.0 |]);
  Graph.set_cost g 2 (Vec.of_array [| 0.0; 0.0; Cost.inf |]);
  Graph.set_cost g 3 (Vec.of_array [| 1.0; 1.0; 1.0 |]);
  Graph.add_edge g 0 1 (Mat.interference 3);
  Graph.add_edge g 1 2 (Mat.interference 3);
  Graph.add_edge g 2 3 (Mat.interference 3);
  g

let mknet ?(seed = 3) () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m:3) with trunk_width = 16; trunk_blocks = 1 }

let test_pvnet_predict_shape () =
  let net = mknet () in
  let g = small_graph () in
  let priors, v = Nn.Pvnet.predict net g ~next:0 in
  Alcotest.(check int) "priors length" 3 (Array.length priors);
  Alcotest.(check (float 1e-6)) "priors sum to 1" 1.0
    (Array.fold_left ( +. ) 0.0 priors);
  Alcotest.(check (float 1e-9)) "infinite color masked" 0.0 priors.(1);
  Alcotest.(check bool) "value in [-1,1]" true (v >= -1.0 && v <= 1.0)

let test_pvnet_dead_end_priors () =
  let net = mknet () in
  let g = Graph.create ~m:3 ~n:1 in
  Graph.set_cost g 0 (Vec.make 3 Cost.inf);
  let priors, _ = Nn.Pvnet.predict net g ~next:0 in
  Alcotest.(check (float 1e-9)) "all-zero priors on dead end" 0.0
    (Array.fold_left ( +. ) 0.0 priors)

let test_pvnet_deterministic () =
  let net = mknet () in
  let g = small_graph () in
  let p1, v1 = Nn.Pvnet.predict net g ~next:2 in
  let p2, v2 = Nn.Pvnet.predict net g ~next:2 in
  Alcotest.(check (array (float 1e-12))) "same priors" p1 p2;
  Alcotest.(check (float 1e-12)) "same value" v1 v2

let test_pvnet_m_mismatch () =
  let net = mknet () in
  let g = Graph.create ~m:2 ~n:1 in
  Alcotest.check_raises "m mismatch"
    (Invalid_argument "Pvnet.forward: m mismatch") (fun () ->
      ignore (Nn.Pvnet.predict net g ~next:0))

let test_pvnet_training_reduces_loss () =
  let net = mknet () in
  let g = small_graph () in
  let sample =
    { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 0.8; 0.0; 0.2 |]; value = 1.0 }
  in
  let opt = Nn.Adam.create { Nn.Adam.default_config with lr = 0.01 } in
  let first = Nn.Pvnet.train_batch net opt [ sample ] in
  let last = ref first in
  for _ = 1 to 60 do
    last := Nn.Pvnet.train_batch net opt [ sample ]
  done;
  Alcotest.(check bool)
    (Printf.sprintf "loss decreased (%.4f -> %.4f)" first !last)
    true (!last < first)

let test_pvnet_training_moves_prediction () =
  let net = mknet ~seed:11 () in
  let g = small_graph () in
  let sample =
    { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 1.0; 0.0; 0.0 |]; value = 1.0 }
  in
  let opt = Nn.Adam.create { Nn.Adam.default_config with lr = 0.01 } in
  for _ = 1 to 150 do
    ignore (Nn.Pvnet.train_batch net opt [ sample ])
  done;
  let priors, v = Nn.Pvnet.predict net g ~next:0 in
  Alcotest.(check bool) "policy mass on color 0" true (priors.(0) > 0.8);
  Alcotest.(check bool) "value pulled toward +1" true (v > 0.5)

let test_pvnet_save_load () =
  let net = mknet ~seed:7 () in
  let g = small_graph () in
  let p1, v1 = Nn.Pvnet.predict net g ~next:1 in
  let path = Filename.temp_file "pvnet" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Nn.Pvnet.save net path;
      let net' = Nn.Pvnet.load path in
      let p2, v2 = Nn.Pvnet.predict net' g ~next:1 in
      Alcotest.(check (array (float 1e-12))) "same priors after reload" p1 p2;
      Alcotest.(check (float 1e-12)) "same value after reload" v1 v2)

let test_pvnet_param_count () =
  let net = mknet () in
  Alcotest.(check bool) "has parameters" true (Nn.Pvnet.param_count net > 100)

(* Bitwise, at the sizes the shipped nets see: [prepare] runs the GCN
   over the CSR scratch with a blocked multi-row message kernel, so the
   scalar [predict] must agree to the last bit for widths that are not a
   multiple of the block (m = 9, 13 are the shipped checkpoints), graphs
   up to ~200 vertices, isolated vertices, 0/inf and finite costs, and
   states along a PRO residual.  States of different sizes are
   interleaved so that one replica's reused buffers shrink and grow
   between leaves. *)
let check_prepared_bits ~msg net states =
  let preps =
    Array.of_list
      (List.map (fun (g, next) -> Nn.Pvnet.prepare net g ~next) states)
  in
  let batched = Nn.Pvnet.predict_prepared net preps in
  List.iteri
    (fun i (g, next) ->
      let p, v = Nn.Pvnet.predict net g ~next in
      let single =
        Nn.Pvnet.predict_prepared net [| Nn.Pvnet.prepare net g ~next |]
      in
      List.iter
        (fun (how, (p', v')) ->
          if not (Array.for_all2 bits_eq p p' && bits_eq v v') then
            Alcotest.failf "%s: state %d (n=%d, next=%d): %s <> predict" msg i
              (Graph.n_alive g) next how)
        [ ("batched", batched.(i)); ("single", single.(0)) ])
    states

let test_pvnet_prepared_basic () =
  let net = mknet () in
  Alcotest.(check int) "empty batch" 0
    (Array.length (Nn.Pvnet.predict_prepared net [||]));
  let g = small_graph () in
  (* batch of 1, all vertices, and duplicated states in one batch *)
  check_prepared_bits ~msg:"single" net [ (g, 2) ];
  check_prepared_bits ~msg:"all" net
    (List.map (fun v -> (g, v)) (Graph.vertices g));
  check_prepared_bits ~msg:"dups" net [ (g, 0); (g, 0); (g, 3); (g, 0) ]

let test_pvnet_prepare_m_mismatch () =
  let net = mknet () in
  let g = Graph.create ~m:2 ~n:1 in
  Alcotest.check_raises "m mismatch"
    (Invalid_argument "Pvnet.prepare: m mismatch") (fun () ->
      ignore (Nn.Pvnet.prepare net g ~next:0))

(* Property: batches mixing graphs of different sizes (ragged next-vertex
   sets), with duplicates, sized 1..32, agree with the tape [predict]
   bit for bit on every prior and value. *)
let test_pvnet_prepared_property =
  let net = lazy (mknet ~seed:19 ()) in
  qtest ~count:40 "prepare = predict (random ragged batches)"
    (arb_graph_spec ~nmax:8 ~mmax:3 ())
    (fun spec ->
      let spec = { spec with m = 3 } in
      let net = Lazy.force net in
      let g1 = build_graph spec in
      let g2 = build_graph { spec with seed = spec.seed + 1; n = spec.n + 2 } in
      let all =
        List.map (fun v -> (g1, v)) (Graph.vertices g1)
        @ List.map (fun v -> (g2, v)) (Graph.vertices g2)
      in
      (* duplicate some states and cap the batch at 32 *)
      let states = List.filteri (fun i _ -> i < 32) (all @ all) in
      check_prepared_bits ~msg:"ragged" net states;
      true)

(* every vertex of small graphs, a spread of vertices of large ones *)
let sample_states g =
  let vs = Array.of_list (Graph.vertices g) in
  let n = Array.length vs in
  let k = min n 6 in
  List.init k (fun i -> (g, vs.(i * n / k)))

(* A fresh net has zero biases, under which a message-less vertex's
   relu(self) and relu(self + bias) coincide: jitter every parameter so
   the isolated-vertex path is observable. *)
let jittered_net ~seed config =
  let net = Nn.Pvnet.create ~rng:(rng seed) config in
  let r = rng (seed + 1) in
  List.iter
    (fun (v : Nn.Var.t) ->
      let d = Tensor.data v.Nn.Var.value in
      Float.Array.iteri
        (fun i x -> Float.Array.set d i (x +. Random.State.float r 0.2 -. 0.1))
        d)
    (Nn.Pvnet.params net);
  Nn.Pvnet.bump_version net;
  net

let interleave lists =
  let rec go acc ls =
    match List.filter (fun l -> l <> []) ls with
    | [] -> List.rev acc
    | ls -> go (List.rev_append (List.map List.hd ls) acc) (List.map List.tl ls)
  in
  go [] lists

let test_prepared_bitwise_real_sizes () =
  List.iter
    (fun m ->
      let net = jittered_net ~seed:(100 + m) (Nn.Pvnet.default_config ~m) in
      let graph ~seed ~n ~degree ~zero_inf =
        Generate.erdos_renyi ~rng:(rng seed)
          { Generate.default with
            n;
            m;
            p_edge = Float.min 1.0 (degree /. float_of_int (max 1 (n - 1)));
            p_inf = 0.2; zero_inf; min_liberty = 1 }
      in
      let graphs =
        [
          graph ~seed:1 ~n:1 ~degree:0.0 ~zero_inf:false;
          graph ~seed:2 ~n:200 ~degree:12.0 ~zero_inf:true;
          graph ~seed:3 ~n:9 ~degree:2.0 ~zero_inf:false;
          graph ~seed:4 ~n:120 ~degree:12.0 ~zero_inf:false;
          (* sparse: many isolated vertices next to small components *)
          graph ~seed:5 ~n:60 ~degree:0.5 ~zero_inf:true;
          graph ~seed:6 ~n:17 ~degree:6.0 ~zero_inf:true;
        ]
      in
      let isolated g =
        List.exists (fun v -> Graph.degree g v = 0) (Graph.vertices g)
      in
      if not (List.exists isolated graphs) then
        Alcotest.failf "m=%d: no isolated vertex covered" m;
      check_prepared_bits ~msg:(Printf.sprintf "random m=%d" m) net
        (interleave (List.map sample_states graphs)))
    [ 2; 9; 13 ]

(* A PRO residual (m = 13) and the states a search visits on it: the
   root and every few moves down a legal path. *)
let pro_residual i =
  let machine = Ate.Machine.default in
  let g =
    (Ate.Pbqp_build.build machine
       (Ate.Program.analyze_exn (Ate.Progen.pro ~machine i)))
      .Ate.Pbqp_build.graph
  in
  fst (Solvers.Scholz.reduce_exact g)

let pro_path g =
  let rec walk s depth acc =
    match Core.State.next_vertex s with
    | Some v when not (Core.State.is_dead_end s) -> (
        let acc =
          if depth mod 5 = 0 then (Core.State.graph s, v) :: acc else acc
        in
        let colors = List.init (Core.State.m s) Fun.id in
        match List.find_opt (Core.State.legal s) colors with
        | Some c -> walk (Core.State.apply s c) (depth + 1) acc
        | None -> acc)
    | _ -> acc
  in
  let order = Core.Order.compute Core.Order.Increasing_liberty g in
  List.rev (walk (Core.State.of_graph ~order g) 0 [])

let test_prepared_bitwise_pro () =
  let paths = List.map (fun i -> pro_path (pro_residual i)) [ 1; 4 ] in
  let m = Graph.m (fst (List.hd (List.hd paths))) in
  let net = jittered_net ~seed:31 (Nn.Pvnet.default_config ~m) in
  check_prepared_bits ~msg:"PRO residual paths" net (interleave paths)

(* [prepare] on [net], whose replica keeps the encoding of the last
   instance it saw, against a fresh replica with the same weights on a
   fresh [Graph.copy] (same uid, nothing kept yet): what a replica keeps
   between calls must never show in the bits. *)
let check_fresh ~msg net g ~next =
  let got = Nn.Pvnet.predict_prepared net [| Nn.Pvnet.prepare net g ~next |] in
  let fresh = Nn.Pvnet.clone net in
  let want =
    Nn.Pvnet.predict_prepared fresh
      [| Nn.Pvnet.prepare fresh (Graph.copy g) ~next |]
  in
  let p, v = got.(0) and p', v' = want.(0) in
  if not (Array.for_all2 bits_eq p p' && bits_eq v v') then
    Alcotest.failf "%s (n=%d, next=%d): kept replica <> fresh replica" msg
      (Graph.n_alive g) next

(* Every leaf of an MCTS search on the trail: the search descends two
   ways from every position down to depth 3 and retreats between them,
   so leaves are reached by undo (vertices reattached) as well as by
   apply, all on one shared graph. *)
let test_encoding_trail_search () =
  let g = pro_residual 1 in
  let m = Graph.m g in
  let net = jittered_net ~seed:43 (Nn.Pvnet.default_config ~m) in
  let order = Core.Order.compute Core.Order.Increasing_liberty g in
  let ist = Core.Istate.of_graph ~order g in
  let game = Core.Game.make ~net ~mode:Core.Game.Feasibility ~m () in
  let leaves = ref 0 in
  let check st =
    match Core.Istate.Cursor.next_vertex st with
    | Some next ->
        incr leaves;
        check_fresh ~msg:(Printf.sprintf "leaf %d" !leaves) net
          (Core.Istate.Cursor.graph st) ~next
    | None -> ()
  in
  let game =
    {
      game with
      Mcts.evaluate = (fun st -> check st; game.Mcts.evaluate st);
      batched_evaluate =
        Option.map
          (fun f sts -> List.iter check sts; f sts)
          game.Mcts.batched_evaluate;
    }
  in
  let tree =
    Mcts.create { Mcts.default_config with k = 6 } game
      (Core.Istate.Cursor.root ist)
  in
  let rec walk depth =
    if depth < 3 && not (game.Mcts.is_terminal (Mcts.root_state tree)) then begin
      Mcts.run tree;
      let st = Mcts.root_state tree in
      List.filter (game.Mcts.legal st) (List.init m Fun.id)
      |> List.iteri (fun i a ->
             if i < 2 then begin
               Mcts.advance tree a;
               walk (depth + 1);
               Mcts.retreat tree
             end)
    end
  in
  walk 0;
  if !leaves < 40 then Alcotest.failf "only %d leaves evaluated" !leaves

(* A deep state first, then its root: the encoding built at the deep
   state covers only the vertices alive there, and the root (same uid)
   has them all alive again. *)
let test_encoding_deep_then_root () =
  let states = pro_path (pro_residual 1) in
  let (root, root_next) = List.hd states in
  let (deep, deep_next) = List.nth states (List.length states - 1) in
  Alcotest.(check int) "one instance" (Graph.uid root) (Graph.uid deep);
  if Graph.n_alive deep >= Graph.n_alive root then
    Alcotest.fail "the deep state has no dead vertex";
  let net = jittered_net ~seed:47 (Nn.Pvnet.default_config ~m:(Graph.m root)) in
  check_fresh ~msg:"deep" net deep ~next:deep_next;
  check_fresh ~msg:"root after deep" net root ~next:root_next

(* Changing the edge set between two prepares: [add_edge] (a new edge,
   then a changed matrix) and [remove_edge] each name a new edge set. *)
let test_encoding_edge_change () =
  let m = 5 in
  let g =
    Generate.erdos_renyi ~rng:(rng 9)
      { Generate.default with n = 12; m; p_edge = 0.3 }
  in
  let net = jittered_net ~seed:53 (Nn.Pvnet.default_config ~m) in
  check_fresh ~msg:"before" net g ~next:0;
  let u, v =
    List.concat_map
      (fun u -> List.map (fun v -> (u, v)) (Graph.vertices g))
      (Graph.vertices g)
    |> List.find (fun (u, v) -> u < v && Graph.edge_ref g u v = None)
  in
  Graph.add_edge g u v
    (Mat.init ~rows:m ~cols:m (fun i j -> float_of_int (((3 * i) + j) mod 4)));
  check_fresh ~msg:"after add_edge (new edge)" net g ~next:0;
  Graph.add_edge g u v (Mat.make ~rows:m ~cols:m 1.0);
  check_fresh ~msg:"after add_edge (changed matrix)" net g ~next:0;
  Graph.remove_edge g u v;
  check_fresh ~msg:"after remove_edge" net g ~next:0

(* Edge matrices of the shapes the message kernel tells apart, at m
   colors, each with whether it must classify as a·J + diag: the
   interference shape (0 off the diagonal, ∞ on it), equal finite
   off-diagonals over a varied diagonal, each of those with one
   off-diagonal cell perturbed, and a random dense matrix.  At m = 1
   there is no off-diagonal and everything stays dense. *)
let planted_mats ~rng m =
  let fin () = float_of_int (Random.State.int rng 40) /. 4.0 in
  let off = fin () in
  let diag =
    Array.init m (fun _ -> if Random.State.bool rng then Cost.inf else fin ())
  in
  let equal_off =
    Mat.init ~rows:m ~cols:m (fun i j -> if i = j then diag.(i) else off)
  in
  let perturb mat =
    Mat.init ~rows:m ~cols:m (fun i j ->
        let c = Mat.get mat i j in
        if i = m - 1 && j = 0 then (if Cost.is_inf c then 0.5 else c +. 1.0)
        else c)
  in
  let dense =
    Mat.init ~rows:m ~cols:m (fun _ _ ->
        if Random.State.int rng 5 = 0 then Cost.inf else fin ())
  in
  let jd = m > 1 in
  [ (Mat.interference m, jd); (equal_off, jd) ]
  @ (if m > 1 then
       [ (perturb (Mat.interference m), false); (perturb equal_off, false) ]
     else [])
  @ [ (dense, false) ]

(* A graph whose edges cycle through the planted shapes, so that every
   row mixes a·J + diag and dense messages. *)
let planted_graph ~seed ~m ~n =
  let rng = rng seed in
  let g = Graph.create ~m ~n in
  for v = 0 to n - 1 do
    Graph.set_cost g v
      (Vec.of_array
         (Array.init m (fun _ ->
              if Random.State.int rng 4 = 0 then Cost.inf
              else float_of_int (Random.State.int rng 20))))
  done;
  let k = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < 0.3 then begin
        let mats = planted_mats ~rng m in
        Graph.add_edge g u v (fst (List.nth mats (!k mod List.length mats)));
        incr k
      end
    done
  done;
  g

(* (a·J + diag, all) directed edges over [graphs] *)
let jdiag_edges config graphs =
  List.fold_left
    (fun acc g ->
      List.fold_left
        (fun acc v ->
          List.fold_left
            (fun (jd, all) u ->
              let msg =
                Nn.Pvnet.classify config (Option.get (Graph.edge_ref g v u))
              in
              ((if Nn.Pvnet.is_jdiag msg then jd + 1 else jd), all + 1))
            acc (Graph.neighbors g v))
        acc (Graph.vertices g))
    (0, 0) graphs

let test_message_classify () =
  List.iter
    (fun m ->
      let config = Nn.Pvnet.default_config ~m in
      List.iteri
        (fun i (mat, jd) ->
          List.iter
            (fun (how, mat) ->
              if Nn.Pvnet.is_jdiag (Nn.Pvnet.classify config mat) <> jd then
                Alcotest.failf "m=%d planted %d (%s): expected %s" m i how
                  (if jd then "a·J + diag" else "dense"))
            [ ("as built", mat); ("transposed", Mat.transpose mat) ])
        (planted_mats ~rng:(rng m) m))
    [ 1; 2; 5; 9; 13 ]

(* [prepare] = [predict] bit for bit on graphs with planted a·J + diag
   and dense edges side by side: m = 5 and 13 leave remainder rows after
   the four-row blocks, m = 1 and 2 have no full block at all. *)
let test_prepared_bitwise_planted () =
  List.iter
    (fun m ->
      let net = jittered_net ~seed:(200 + m) (Nn.Pvnet.default_config ~m) in
      let graphs =
        List.map
          (fun (seed, n) -> planted_graph ~seed:(seed + m) ~m ~n)
          [ (1, 12); (2, 30); (3, 5) ]
      in
      let jd, all = jdiag_edges (Nn.Pvnet.config net) graphs in
      if m > 1 && (jd = 0 || jd = all) then
        Alcotest.failf "m=%d: %d of %d edges a·J + diag, want both kinds" m jd
          all;
      check_prepared_bits ~msg:(Printf.sprintf "planted m=%d" m) net
        (interleave (List.map sample_states graphs)))
    [ 1; 2; 5; 9; 13 ]

(* The function graphs of the MiniC corpus (m = 9: eight registers and
   the spill color), whose edges are all a·J + diag. *)
let test_prepared_bitwise_minic () =
  let graphs =
    List.concat_map
      (fun (_, src) ->
        List.filter_map
          (fun f ->
            let g =
              (Cir.Alloc_pbqp.build (Cir.Liveness.analyze f)).Cir.Alloc_pbqp.graph
            in
            if Graph.n_alive g > 0 then Some g else None)
          (Cir.Lower.compile src).Cir.Ir.funcs)
      Cir.Programs.all
  in
  let m = Graph.m (List.hd graphs) in
  let net = jittered_net ~seed:41 (Nn.Pvnet.default_config ~m) in
  let jd, all = jdiag_edges (Nn.Pvnet.config net) graphs in
  if jd <> all then
    Alcotest.failf "%d of %d MiniC edges a·J + diag, want all" jd all;
  check_prepared_bits ~msg:"MiniC functions" net
    (interleave (List.map sample_states graphs))

(* The tape op against [Ad.mv] on the dense matrix φ(M)/m built from
   the costs: value and ∂h bit for bit, with zeros in h and in the
   incoming gradient (where [Tensor.tmv] skips a row). *)
let test_message_apply_tape () =
  List.iter
    (fun m ->
      let r = rng (300 + m) in
      let vec () =
        Tensor.init1 m (fun _ ->
            if Random.State.int r 4 = 0 then 0.0
            else Random.State.float r 2.0 -. 1.0)
      in
      let config = Nn.Pvnet.default_config ~m in
      let dense mat =
        Tensor.init2 m m (fun i j ->
            let c = Mat.get mat i j in
            (if Cost.is_inf c then 0.0
             else 1.0 /. (1.0 +. (c /. config.Nn.Pvnet.cost_scale)))
            /. float_of_int m)
      in
      List.iteri
        (fun i (mat, _) ->
          let msg = Nn.Pvnet.classify config mat in
          let h = vec () and g = vec () in
          let run op =
            let x = Nn.Ad.const h in
            let y = op x in
            Nn.Ad.backward (Nn.Ad.sum (Nn.Ad.mul y (Nn.Ad.const g)));
            (Nn.Ad.value y, Nn.Ad.grad x)
          in
          let v, dh = run (Nn.Pvnet.message_apply msg) in
          let v', dh' = run (Nn.Ad.mv (Nn.Ad.const (dense mat))) in
          if not (tensor_bits_equal v v' && tensor_bits_equal dh dh') then
            Alcotest.failf "m=%d planted %d: message_apply <> Ad.mv" m i)
        (planted_mats ~rng:r m))
    [ 1; 2; 5; 9; 13 ]

(* Words this domain has allocated, wherever they went: minor words plus
   the words allocated straight into the major heap.  Major words also
   count the promoted ones, which the minor count already holds.  A
   block over 256 words skips the minor heap, so the minor count alone
   would miss a per-call scratch buffer.  The minor part comes from
   [Gc.minor_words]: the minor count of [Gc.counters] on OCaml 5.1 reads
   an eighth of the words still in the minor heap. *)
let allocated_words () =
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Counter gate on the arena forward: once a replica is warm (instance
   encoding built, CSR scratch grown), re-preparing the states of the
   PRO1 path allocates a fixed number of words per call, nearly all of
   them the result (the 3m readout row, the mask copy and the record,
   64 words at m = 13); the encoding walk, the four GCN GEMM calls, the
   message pass and the cost features allocate nothing.  An allocation
   added to the message pass, the GEMM plumbing or the fill (an option
   per call, a boxed float per feature, a scratch per edge) moves the
   count. *)
let prepare_words = 68.0
let test_prepare_allocation () =
  let states = Array.of_list (pro_path (pro_residual 1)) in
  let m = Graph.m (fst states.(0)) in
  let net = jittered_net ~seed:31 (Nn.Pvnet.default_config ~m) in
  let out = Array.make (Array.length states) None in
  let pass () =
    let w0 = allocated_words () in
    for i = 0 to Array.length states - 1 do
      let g, next = states.(i) in
      out.(i) <- Some (Nn.Pvnet.prepare net g ~next)
    done;
    (allocated_words () -. w0) /. float_of_int (Array.length states)
  in
  ignore (pass ());
  for k = 1 to 2 do
    let per = pass () in
    if per <> prepare_words then
      Alcotest.failf "warm pass %d: %.3f words per prepare, expected %.1f"
        k per prepare_words
  done

(* Counter gate on the batched trunk forward: a warm 32-row
   [predict_prepared] (arena buffers for that batch size already grown)
   allocates a fixed number of words: the (priors, value) results of the
   per-row mask epilogue and what the trunk and head passes allocate
   today.  A scratch tensor or closure added to the trunk, the heads or
   the masking moves the count, a buffer-sized one by its full size. *)
let predict_prepared_words = 799.0
let test_predict_prepared_allocation () =
  let m = 13 in
  let net = jittered_net ~seed:37 (Nn.Pvnet.default_config ~m) in
  let g =
    Generate.erdos_renyi ~rng:(rng 2)
      { Generate.default with n = 40; m; p_edge = 0.15 }
  in
  let preps =
    Array.of_list
      (List.filteri (fun i _ -> i < 32) (Graph.vertices g))
    |> Array.map (fun v -> Nn.Pvnet.prepare net g ~next:v)
  in
  let pass () =
    let w0 = allocated_words () in
    ignore (Sys.opaque_identity (Nn.Pvnet.predict_prepared net preps));
    allocated_words () -. w0
  in
  ignore (pass ());
  for k = 1 to 2 do
    let words = pass () in
    if words <> predict_prepared_words then
      Alcotest.failf
        "warm pass %d: %.1f words per 32-row predict_prepared, expected %.1f"
        k words predict_prepared_words
  done

(* gradient check through the full network on a tiny graph *)
let test_pvnet_full_gradcheck () =
  let net =
    Nn.Pvnet.create ~rng:(rng 13)
      { (Nn.Pvnet.default_config ~m:2) with trunk_width = 4; trunk_blocks = 1;
        gcn_layers = 1 }
  in
  let g = Graph.create ~m:2 ~n:2 in
  Graph.set_cost g 0 (Vec.of_array [| 0.5; 1.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; 2.0 |]);
  Graph.add_edge g 0 1 (Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]);
  let sample =
    { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 0.7; 0.3 |]; value = 0.5 }
  in
  check_grads ~tol:2e-3 "pvnet loss" (Nn.Pvnet.params net) (fun ctx ->
      Nn.Pvnet.loss net ctx sample)

(* ------------------------------------------------------------------ *)
(* lib/check gradient batteries: Linear / ReLU / Tanh / LayerNorm / the
   residual block (tolerance 1e-4), and the full pvnet loss. *)

let no_grad_errors name findings =
  match Check.Diag.errors_only findings with
  | [] -> ()
  | errs -> Alcotest.failf "%s:\n%s" name (Check.Diag.to_string errs)

let test_check_layer_battery () =
  no_grad_errors "layer battery"
    (Check.Gradcheck.layer_battery ~tol:1e-4 ())

let test_check_pvnet_battery () =
  no_grad_errors "pvnet battery" (Check.Gradcheck.pvnet_battery ())

(* zero tolerance must flag float-rounding mismatches on every layer —
   proof the finite-difference sweep actually runs and compares *)
let test_check_battery_detects () =
  let findings = Check.Gradcheck.layer_battery ~tol:0.0 () in
  if not (Check.Diag.has_errors findings) then
    Alcotest.fail "tolerance-0 battery reported no findings"

let () =
  Alcotest.run "nn"
    [
      ( "tensor",
        [
          Alcotest.test_case "shapes" `Quick test_tensor_shapes;
          Alcotest.test_case "matmul" `Quick test_tensor_matmul;
          Alcotest.test_case "mv/tmv" `Quick test_tensor_mv_tmv;
          Alcotest.test_case "outer/dot" `Quick test_tensor_outer_dot;
          Alcotest.test_case "concat" `Quick test_tensor_concat;
          Alcotest.test_case "reductions" `Quick test_tensor_reductions;
          Alcotest.test_case "shape errors" `Quick test_tensor_shape_errors;
        ] );
      ( "autodiff",
        [
          Alcotest.test_case "arith grads" `Quick test_grad_arith;
          Alcotest.test_case "scale/neg/mean grads" `Quick
            test_grad_scale_neg_mean;
          Alcotest.test_case "relu/tanh grads" `Quick test_grad_relu_tanh;
          Alcotest.test_case "mv grads" `Quick test_grad_mv;
          Alcotest.test_case "concat/mean_list grads" `Quick
            test_grad_concat_meanlist;
          Alcotest.test_case "softmax xent grads" `Quick test_grad_softmax_xent;
          Alcotest.test_case "layernorm grads" `Quick test_grad_layernorm;
          Alcotest.test_case "shared var accumulates" `Quick
            test_grad_shared_var;
          Alcotest.test_case "layer grads" `Quick test_grad_layers;
        ] );
      ( "adam",
        [
          Alcotest.test_case "quadratic convergence" `Quick test_adam_quadratic;
          Alcotest.test_case "gradient clipping" `Quick test_adam_grad_clip;
          Alcotest.test_case "weight decay" `Quick test_adam_weight_decay;
          Alcotest.test_case "save/load continues identically" `Quick
            test_adam_save_load_continues_identically;
        ] );
      ( "pvnet",
        [
          Alcotest.test_case "predict shape & masking" `Quick
            test_pvnet_predict_shape;
          Alcotest.test_case "dead-end priors" `Quick test_pvnet_dead_end_priors;
          Alcotest.test_case "deterministic" `Quick test_pvnet_deterministic;
          Alcotest.test_case "m mismatch" `Quick test_pvnet_m_mismatch;
          Alcotest.test_case "training reduces loss" `Quick
            test_pvnet_training_reduces_loss;
          Alcotest.test_case "training moves prediction" `Quick
            test_pvnet_training_moves_prediction;
          Alcotest.test_case "save/load roundtrip" `Quick test_pvnet_save_load;
          Alcotest.test_case "param count" `Quick test_pvnet_param_count;
          Alcotest.test_case "predict_prepared basics" `Quick
            test_pvnet_prepared_basic;
          Alcotest.test_case "prepare m mismatch" `Quick
            test_pvnet_prepare_m_mismatch;
          test_pvnet_prepared_property;
          Alcotest.test_case "prepare = predict bitwise (m 2/9/13, n<=200)"
            `Quick test_prepared_bitwise_real_sizes;
          Alcotest.test_case "prepare = predict bitwise (PRO residuals)"
            `Quick test_prepared_bitwise_pro;
          Alcotest.test_case "prepare minor words (warm PRO1 path)" `Quick
            test_prepare_allocation;
          Alcotest.test_case "predict_prepared minor words (warm 32-row batch)"
            `Quick test_predict_prepared_allocation;
          Alcotest.test_case "message classes (planted, m 1/2/5/9/13)" `Quick
            test_message_classify;
          Alcotest.test_case "prepare = predict bitwise (planted a·J + diag)"
            `Quick test_prepared_bitwise_planted;
          Alcotest.test_case "prepare = predict bitwise (MiniC functions, m 9)"
            `Quick test_prepared_bitwise_minic;
          Alcotest.test_case "message tape op = Ad.mv bitwise" `Quick
            test_message_apply_tape;
          Alcotest.test_case "full network gradcheck" `Quick
            test_pvnet_full_gradcheck;
          Alcotest.test_case "encoding = fresh replica (trail search leaves)"
            `Quick test_encoding_trail_search;
          Alcotest.test_case "encoding = fresh replica (deep state, then root)"
            `Quick test_encoding_deep_then_root;
          Alcotest.test_case "encoding = fresh replica (edge set changed)"
            `Quick test_encoding_edge_change;
        ] );
      ( "check-gradcheck",
        [
          Alcotest.test_case "layer battery (1e-4)" `Quick
            test_check_layer_battery;
          Alcotest.test_case "pvnet battery" `Quick test_check_pvnet_battery;
          Alcotest.test_case "detects at tol 0" `Quick
            test_check_battery_detects;
        ] );
    ]
