(* Numerical gradient checker: central finite differences against the
   reverse-mode gradients of nn/ad.ml.  Exposed both as a primitive
   ([scalar]) for tests and as ready-made batteries over every layer type
   and the full policy/value network. *)

let default_eps = 1e-4
let default_tol = 1e-4

(* Check d(f)/d(var) for every var; findings name the offending parameter
   and component.  [f] must build a scalar from a fresh Ad context. *)
let scalar ?(eps = default_eps) ?(tol = default_tol) ~name vars f =
  let c = Diag.collector () in
  let eval () =
    let ctx = Nn.Ad.ctx () in
    Tensor.get1 (Nn.Ad.value (f ctx)) 0
  in
  let ctx = Nn.Ad.ctx () in
  let root = f ctx in
  (if Tensor.numel (Nn.Ad.value root) <> 1 then
     Diag.errorf c "grad-not-scalar" Diag.Global "%s: function is not scalar"
       name
   else begin
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
         let worst = ref 0.0 and worst_i = ref (-1) in
         Float.Array.iteri
           (fun i x ->
             Float.Array.set data i (x +. eps);
             let up = eval () in
             Float.Array.set data i (x -. eps);
             let down = eval () in
             Float.Array.set data i x;
             let num = (up -. down) /. (2.0 *. eps) in
             let rel =
               Float.abs (num -. Float.Array.get gd i)
               /. (1.0 +. Float.abs num)
             in
             if rel > !worst then begin
               worst := rel;
               worst_i := i
             end)
           data;
         if !worst > tol then
           Diag.errorf c "grad-mismatch" (Diag.Param v.Nn.Var.name)
             "%s: component %d disagrees with finite differences \
              (relative error %.2e > %.2e)"
             name !worst_i !worst tol)
       vars
   end);
  Diag.report c

(* --- layer battery ---------------------------------------------------- *)

let mkvar name a = Nn.Var.create ~name (Tensor.of_array1 a)

(* Inputs chosen away from the ReLU kink so the subgradient is exact. *)
let probe = [| 0.47; -1.23; 2.01; 0.31 |]

let layer_battery ?eps ?tol () =
  let rng = Random.State.make [| 2024 |] in
  let x = mkvar "x" probe in
  let check name vars f = scalar ?eps ?tol ~name vars f in
  let dim = Array.length probe in
  List.concat
    [
      (let lin =
         Nn.Layer.Linear.create ~rng ~name:"gc.lin" ~in_dim:dim ~out_dim:3
       in
       check "linear" (x :: Nn.Layer.Linear.params lin) (fun ctx ->
           Nn.Ad.sum
             (Nn.Ad.tanh_
                (Nn.Layer.Linear.forward ctx lin (Nn.Ad.of_var ctx x)))));
      check "relu" [ x ] (fun ctx ->
          Nn.Ad.sum (Nn.Ad.relu (Nn.Ad.of_var ctx x)));
      check "tanh" [ x ] (fun ctx ->
          Nn.Ad.sum (Nn.Ad.tanh_ (Nn.Ad.of_var ctx x)));
      (let ln = Nn.Layer.Layernorm.create ~name:"gc.ln" ~dim in
       check "layernorm"
         (x :: Nn.Layer.Layernorm.params ln)
         (fun ctx ->
           Nn.Ad.sum
             (Nn.Ad.tanh_
                (Nn.Layer.Layernorm.forward ctx ln (Nn.Ad.of_var ctx x)))));
      (let res = Nn.Layer.Residual.create ~rng ~name:"gc.res" ~dim in
       check "residual"
         (x :: Nn.Layer.Residual.params res)
         (fun ctx ->
           Nn.Ad.sum
             (Nn.Ad.tanh_
                (Nn.Layer.Residual.forward ctx res (Nn.Ad.of_var ctx x)))));
    ]

(* --- full network ----------------------------------------------------- *)

(* Check the training loss gradient for every parameter of [net] on one
   sample; this exercises the GCN message passing, trunk, heads, and the
   loss itself. *)
let pvnet ?eps ?(tol = 2e-3) net sample =
  scalar ?eps ~tol ~name:"pvnet-loss" (Nn.Pvnet.params net) (fun ctx ->
      Nn.Pvnet.loss net ctx sample)

(* Self-contained battery: a tiny network over a 2-vertex graph, so the
   finite-difference sweep over every parameter stays fast. *)
let pvnet_battery ?eps ?tol () =
  let open Pbqp in
  let net =
    Nn.Pvnet.create
      ~rng:(Random.State.make [| 7 |])
      {
        (Nn.Pvnet.default_config ~m:2) with
        trunk_width = 4;
        trunk_blocks = 1;
        gcn_layers = 1;
      }
  in
  let g = Graph.create ~m:2 ~n:2 in
  Graph.set_cost g 0 (Vec.of_array [| 0.5; 1.0 |]);
  Graph.set_cost g 1 (Vec.of_array [| 0.0; 2.0 |]);
  Graph.add_edge g 0 1 (Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]);
  let sample =
    { Nn.Pvnet.instance = Graph.freeze g; next = 0; policy = [| 0.7; 0.3 |]; value = 0.5 }
  in
  pvnet ?eps ?tol net sample
