type t = {
  id : int;
  value : Tensor.t;
  mutable grad : Tensor.t option;
  parents : t array;
  bwd : Tensor.t -> unit;
      (* Given dL/d(this node), accumulate into the parents' grads. *)
}

type ctx = { memo : (int, t) Hashtbl.t }

let ctx () = { memo = Hashtbl.create 16 }
(* Atomic: tapes are built concurrently on worker domains; ids only need
   to be unique and monotone per tape, which a shared atomic preserves. *)
let counter = Atomic.make 0

let node value parents bwd =
  { id = Atomic.fetch_and_add counter 1 + 1; value; grad = None; parents; bwd }

let value n = n.value
let grad n = match n.grad with Some g -> g | None -> Tensor.zeros (Tensor.shape n.value)

let accum n g =
  match n.grad with
  | None -> n.grad <- Some (Tensor.copy g)
  | Some acc -> Tensor.add_into acc g

let const v = node v [||] (fun _ -> ())
let scalar x = const (Tensor.scalar x)

let of_var ctx (v : Var.t) =
  match Hashtbl.find_opt ctx.memo v.Var.id with
  | Some n -> n
  | None ->
      let n = const v.Var.value in
      Hashtbl.replace ctx.memo v.Var.id n;
      n

let var_grad ctx (v : Var.t) =
  Option.bind (Hashtbl.find_opt ctx.memo v.Var.id) (fun n -> n.grad)

let binop f dfa dfb a b =
  node (f a.value b.value)
    [| a; b |]
    (fun g ->
      accum a (dfa g);
      accum b (dfb g))

let add a b = binop Tensor.add (fun g -> g) (fun g -> g) a b
let sub a b = binop Tensor.sub (fun g -> g) (fun g -> Tensor.scale (-1.0) g) a b

let mul a b =
  binop Tensor.mul
    (fun g -> Tensor.mul g b.value)
    (fun g -> Tensor.mul g a.value)
    a b

let scale s a = node (Tensor.scale s a.value) [| a |] (fun g -> accum a (Tensor.scale s g))
let neg a = scale (-1.0) a

let relu a =
  node
    (Tensor.map (fun x -> if x > 0.0 then x else 0.0) a.value)
    [| a |]
    (fun g ->
      accum a (Tensor.map2 (fun gv x -> if x > 0.0 then gv else 0.0) g a.value))

let tanh_ a =
  let y = Tensor.map Float.tanh a.value in
  node y [| a |] (fun g ->
      accum a (Tensor.map2 (fun gv yv -> gv *. (1.0 -. (yv *. yv))) g y))

let mv m v =
  node (Tensor.mv m.value v.value)
    [| m; v |]
    (fun g ->
      accum m (Tensor.outer g v.value);
      accum v (Tensor.tmv m.value g))

let linear ~apply ~transpose x =
  node (apply x.value) [| x |] (fun g -> accum x (transpose g))

let sum a =
  node
    (Tensor.scalar (Tensor.sum a.value))
    [| a |]
    (fun g ->
      let gs = Tensor.get1 g 0 in
      accum a (Tensor.full (Tensor.shape a.value) gs))

let mean a =
  let n = float_of_int (Tensor.numel a.value) in
  node
    (Tensor.scalar (Tensor.mean a.value))
    [| a |]
    (fun g ->
      let gs = Tensor.get1 g 0 /. n in
      accum a (Tensor.full (Tensor.shape a.value) gs))

let concat1 xs =
  match xs with
  | [] -> invalid_arg "Ad.concat1: empty"
  | xs ->
      let parents = Array.of_list xs in
      node
        (Tensor.concat1 (List.map (fun x -> x.value) xs))
        parents
        (fun g ->
          let gdata = Tensor.data g in
          let pos = ref 0 in
          Array.iter
            (fun p ->
              let k = Tensor.numel p.value in
              accum p (Tensor.of_float_array (Float.Array.sub gdata !pos k));
              pos := !pos + k)
            parents)

let mean_list xs =
  match xs with
  | [] -> invalid_arg "Ad.mean_list: empty"
  | x0 :: _ ->
      let parents = Array.of_list xs in
      let k = float_of_int (Array.length parents) in
      let acc = Tensor.zeros (Tensor.shape x0.value) in
      Array.iter (fun p -> Tensor.add_into acc p.value) parents;
      node (Tensor.scale (1.0 /. k) acc) parents (fun g ->
          let gp = Tensor.scale (1.0 /. k) g in
          Array.iter (fun p -> accum p gp) parents)

let softmax logits =
  let m = Tensor.max_value logits in
  let e = Tensor.map (fun x -> exp (x -. m)) logits in
  let z = Tensor.sum e in
  Tensor.scale (1.0 /. z) e

let softmax_xent logits target =
  if not (Tensor.same_shape logits.value target) then
    invalid_arg "Ad.softmax_xent: shape mismatch";
  let p = softmax logits.value in
  let loss = ref 0.0 in
  let pd = Tensor.data p and td = Tensor.data target in
  Float.Array.iteri
    (fun i ti ->
      if ti > 0.0 then
        loss := !loss -. (ti *. log (Float.max (Float.Array.get pd i) 1e-30)))
    td;
  node (Tensor.scalar !loss) [| logits |] (fun g ->
      let gs = Tensor.get1 g 0 in
      accum logits (Tensor.scale gs (Tensor.sub p target)))

let layernorm ?(eps = 1e-5) ~gain ~bias x =
  let n = Tensor.numel x.value in
  let nf = float_of_int n in
  let mu = Tensor.mean x.value in
  let var =
    Float.Array.fold_left
      (fun acc v -> acc +. ((v -. mu) *. (v -. mu)))
      0.0 (Tensor.data x.value)
    /. nf
  in
  let sigma = sqrt (var +. eps) in
  let xhat = Tensor.map (fun v -> (v -. mu) /. sigma) x.value in
  let y = Tensor.add (Tensor.mul gain.value xhat) bias.value in
  node y
    [| x; gain; bias |]
    (fun g ->
      accum bias g;
      accum gain (Tensor.mul g xhat);
      (* dL/dxhat = g * gain; then the standard layernorm jacobian:
         dx = (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)) / sigma *)
      let dxhat = Tensor.mul g gain.value in
      let m1 = Tensor.mean dxhat in
      let m2 = Tensor.mean (Tensor.mul dxhat xhat) in
      let dx =
        Tensor.map2
          (fun dxh xh -> (dxh -. m1 -. (xh *. m2)) /. sigma)
          dxhat xhat
      in
      accum x dx)

let backward root =
  if Tensor.numel root.value <> 1 then
    invalid_arg "Ad.backward: root must be scalar";
  (* Reverse post-order over parent edges: every consumer is processed
     before the node it feeds, so grads are complete when bwd runs. *)
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs n =
    if not (Hashtbl.mem visited n.id) then begin
      Hashtbl.replace visited n.id ();
      Array.iter dfs n.parents;
      order := n :: !order
    end
  in
  dfs root;
  root.grad <- Some (Tensor.scalar 1.0);
  List.iter (fun n -> match n.grad with Some g -> n.bwd g | None -> ()) !order
