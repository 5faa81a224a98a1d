(* Flat unboxed tensor core.

   Storage is a single [floatarray] per tensor (unboxed float64, flat
   row-major) — rank-2 element (i, j) lives at [i * cols + j].  The hot
   GEMM kernels additionally use one Bigarray-backed side structure,
   [packed]: the B operand repacked into contiguous width-4 column
   panels (float64 Bigarray) so the inner loop streams one cache line
   per panel step and the pack cost is amortized across a whole batch
   (the packed weights are memoized per network version upstream).

   Bit-identity discipline: every float kernel accumulates each output
   cell in globally ascending-k order and skips exact-zero A
   contributions ([if aik <> 0.0]), so [matmul_naive] and the packed
   fused kernel produce bit-identical results. *)

module F = Float.Array

type t = { shape : int array; data : floatarray }

let check_shape shape =
  match shape with
  | [| n |] when n > 0 -> ()
  | [| r; c |] when r > 0 && c > 0 -> ()
  | _ -> invalid_arg "Tensor: shape must be [|n|] or [|r; c|] with positive dims"

let numel_of shape = Array.fold_left ( * ) 1 shape

let zeros shape =
  check_shape shape;
  { shape = Array.copy shape; data = F.make (numel_of shape) 0.0 }

let full shape x =
  check_shape shape;
  { shape = Array.copy shape; data = F.make (numel_of shape) x }

let init1 n f =
  check_shape [| n |];
  { shape = [| n |]; data = F.init n f }

let init2 r c f =
  check_shape [| r; c |];
  { shape = [| r; c |]; data = F.init (r * c) (fun k -> f (k / c) (k mod c)) }

let of_array1 a =
  if Array.length a = 0 then invalid_arg "Tensor.of_array1: empty";
  { shape = [| Array.length a |]; data = F.map_from_array (fun x -> x) a }

let of_array2 a =
  let r = Array.length a in
  if r = 0 then invalid_arg "Tensor.of_array2: empty";
  let c = Array.length a.(0) in
  if c = 0 then invalid_arg "Tensor.of_array2: empty row";
  Array.iter
    (fun row -> if Array.length row <> c then invalid_arg "Tensor.of_array2: ragged")
    a;
  init2 r c (fun i j -> a.(i).(j))

let of_float_array fa =
  if F.length fa = 0 then invalid_arg "Tensor.of_float_array: empty";
  { shape = [| F.length fa |]; data = F.copy fa }

let to_float_array t = F.copy t.data
let scalar x = { shape = [| 1 |]; data = F.make 1 x }
let shape t = Array.copy t.shape
let rank t = Array.length t.shape
let numel t = F.length t.data

let dim1 t =
  match t.shape with [| n |] -> n | _ -> invalid_arg "Tensor.dim1: not rank 1"

let dims2 t =
  match t.shape with
  | [| r; c |] -> (r, c)
  | _ -> invalid_arg "Tensor.dims2: not rank 2"

let same_shape a b = a.shape = b.shape
let get1 t i = ignore (dim1 t); F.get t.data i

let get2 t i j =
  let _, c = dims2 t in
  F.get t.data ((i * c) + j)

let to_array1 t = ignore (dim1 t); F.map_to_array (fun x -> x) t.data
let data t = t.data
let copy t = { shape = Array.copy t.shape; data = F.copy t.data }
let fill t x = F.fill t.data 0 (F.length t.data) x

let lift2 name f a b =
  if not (same_shape a b) then invalid_arg (Printf.sprintf "Tensor.%s: shape mismatch" name);
  { shape = Array.copy a.shape;
    data = F.init (F.length a.data) (fun k -> f (F.get a.data k) (F.get b.data k)) }

let add a b = lift2 "add" ( +. ) a b
let sub a b = lift2 "sub" ( -. ) a b
let mul a b = lift2 "mul" ( *. ) a b
let scale s t = { shape = Array.copy t.shape; data = F.map (fun x -> s *. x) t.data }
let map f t = { shape = Array.copy t.shape; data = F.map f t.data }
let map2 f a b = lift2 "map2" f a b

let add_into dst src =
  if not (same_shape dst src) then invalid_arg "Tensor.add_into: shape mismatch";
  let dd = dst.data and sd = src.data in
  for k = 0 to F.length sd - 1 do
    F.unsafe_set dd k (F.unsafe_get dd k +. F.unsafe_get sd k)
  done

let axpy a x y =
  if not (same_shape x y) then invalid_arg "Tensor.axpy: shape mismatch";
  let xd = x.data and yd = y.data in
  for k = 0 to F.length xd - 1 do
    F.unsafe_set yd k (F.unsafe_get yd k +. (a *. F.unsafe_get xd k))
  done

let matmul_naive a b =
  let ra, ca = dims2 a and rb, cb = dims2 b in
  if ca <> rb then invalid_arg "Tensor.matmul_naive: inner dims differ";
  let out = zeros [| ra; cb |] in
  let ad = a.data and bd = b.data and od = out.data in
  for i = 0 to ra - 1 do
    for k = 0 to ca - 1 do
      let aik = F.get ad ((i * ca) + k) in
      if aik <> 0.0 then
        for j = 0 to cb - 1 do
          F.set od ((i * cb) + j)
            (F.get od ((i * cb) + j) +. (aik *. F.get bd ((k * cb) + j)))
        done
    done
  done;
  out

(* {2 Packed-panel GEMM with fused epilogues} *)

type ba64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* B repacked into width-8 column panels: panel [p] covers output
   columns [8p, 8p+8) (the last panel zero-padded past [pn]), and
   element (k, jj) of panel [p] lives at [p * (pk * 8) + k * 8 + jj].
   The fused kernel then walks A's row once while streaming each panel
   contiguously — one pass over memory per output row block, with the
   eight per-panel accumulators living in registers instead of [od];
   the per-k loads of A and the zero-test amortize over 8 columns. *)
type packed = { pk : int; pn : int; panels : ba64 }

let panel_width = 8

let packed_dims p = (p.pk, p.pn)

let pack_panels ~pk ~pn get =
  let npanels = (pn + panel_width - 1) / panel_width in
  let panels =
    Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout
      (npanels * pk * panel_width)
  in
  Bigarray.Array1.fill panels 0.0;
  for p = 0 to npanels - 1 do
    let base = p * pk * panel_width in
    let j0 = p * panel_width in
    for k = 0 to pk - 1 do
      for jj = 0 to min panel_width (pn - j0) - 1 do
        Bigarray.Array1.unsafe_set panels (base + (k * panel_width) + jj)
          (get k (j0 + jj))
      done
    done
  done;
  { pk; pn; panels }

let pack b =
  let rb, cb = dims2 b in
  let bd = b.data in
  pack_panels ~pk:rb ~pn:cb (fun k j -> F.unsafe_get bd ((k * cb) + j))

let pack_transposed w =
  let rw, cw = dims2 w in
  let wd = w.data in
  (* packs wᵀ (cw × rw) without materializing it: element (k, j) of the
     packed B is w.(j).(k) *)
  pack_panels ~pk:cw ~pn:rw (fun k j -> F.unsafe_get wd ((j * cw) + k))

(* The fused kernel over output rows [0, rows).  Each output cell is
   accumulated in a register in ascending-k order with the same
   zero-skip as the naive kernel, then written exactly once after the
   epilogue — so [out == residual] aliasing is safe (the residual cell
   is read before the single write), and fused results are bit-identical
   to the unfused [matmul_naive; add bias rowwise; add residual; relu]
   sequence, which applies the exact same float operations in the exact
   same order. *)
let matmul_packed_rows od ad ~ca ~bp ~bd ~rd ~relu ~rows =
  let pn = bp.pn and panels = bp.panels in
  let bias = F.length bd > 0 and residual = F.length rd > 0 in
  let npanels = (pn + panel_width - 1) / panel_width in
  let pstride = ca * panel_width in
  for i = 0 to rows - 1 do
    let arow = i * ca in
    let orow = i * pn in
    for p = 0 to npanels - 1 do
      let base = p * pstride in
      let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
      let c4 = ref 0.0 and c5 = ref 0.0 and c6 = ref 0.0 and c7 = ref 0.0 in
      for k = 0 to ca - 1 do
        let aik = F.unsafe_get ad (arow + k) in
        if aik <> 0.0 then begin
          let kb = base + (k * panel_width) in
          c0 := !c0 +. (aik *. Bigarray.Array1.unsafe_get panels kb);
          c1 := !c1 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 1));
          c2 := !c2 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 2));
          c3 := !c3 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 3));
          c4 := !c4 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 4));
          c5 := !c5 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 5));
          c6 := !c6 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 6));
          c7 := !c7 +. (aik *. Bigarray.Array1.unsafe_get panels (kb + 7))
        end
      done;
      let j0 = p * panel_width in
      for jj = 0 to min panel_width (pn - j0) - 1 do
        let acc =
          match jj with
          | 0 -> !c0
          | 1 -> !c1
          | 2 -> !c2
          | 3 -> !c3
          | 4 -> !c4
          | 5 -> !c5
          | 6 -> !c6
          | _ -> !c7
        in
        let j = j0 + jj in
        let v = if bias then acc +. F.unsafe_get bd j else acc in
        let v = if residual then F.unsafe_get rd (orow + j) +. v else v in
        (* same expression as the standalone relu pass: [else] also maps
           -0.0 and nan to +0.0 *)
        let v = if relu then (if v > 0.0 then v else 0.0) else v in
        F.unsafe_set od (orow + j) v
      done
    done
  done
[@@hot]

(* The absent bias or residual of the fused kernel.  The entry points
   pass it instead of an option, and the kernel reads an empty operand
   as absent, so a call builds no option. *)
let no_operand = { shape = [| 0 |]; data = F.create 0 }

let rows2 name t =
  match t.shape with
  | [| r; _ |] -> r
  | _ -> invalid_arg ("Tensor." ^ name ^ ": not rank 2")

let cols2 name t =
  match t.shape with
  | [| _; c |] -> c
  | _ -> invalid_arg ("Tensor." ^ name ^ ": not rank 2")

(* [rows] of a buffer with [r] rows: exactly that many when [exact],
   at least that many otherwise. *)
let fits ~exact ~rows r = if exact then r = rows else r >= rows

(* Shared validation and dispatch of the packed entry points: the
   product runs over the first [rows] rows of [a], [out] and [residual],
   each of which must have at least that many ([exact]: exactly that
   many).  Allocates nothing on the valid path. *)
let packed_prefix_into name ~exact ~rows ~bias ~residual ~relu out a bp =
  let ca = cols2 name a in
  if ca <> bp.pk then invalid_arg ("Tensor." ^ name ^ ": inner dims differ");
  if
    rows < 0
    || (not (fits ~exact ~rows (rows2 name a)))
    || (not (fits ~exact ~rows (rows2 name out)))
    || cols2 name out <> bp.pn
  then invalid_arg ("Tensor." ^ name ^ ": output shape mismatch");
  if out.data == a.data then
    invalid_arg ("Tensor." ^ name ^ ": output aliases input");
  if bias != no_operand && dim1 bias <> bp.pn then
    invalid_arg ("Tensor." ^ name ^ ": bias width mismatch");
  if
    residual != no_operand
    && ((not (fits ~exact ~rows (rows2 name residual)))
       || cols2 name residual <> bp.pn)
  then invalid_arg ("Tensor." ^ name ^ ": residual shape mismatch");
  matmul_packed_rows out.data a.data ~ca ~bp ~bd:bias.data ~rd:residual.data
    ~relu ~rows

let matmul_packed_into ?(bias = no_operand) ?(residual = no_operand)
    ?(relu = false) out a bp =
  packed_prefix_into "matmul_packed_into" ~exact:true
    ~rows:(rows2 "matmul_packed_into" a) ~bias ~residual ~relu out a bp

let matmul_packed_prefix_into ~rows ~bias ~relu out a bp =
  packed_prefix_into "matmul_packed_prefix_into" ~exact:false ~rows ~bias
    ~residual:no_operand ~relu out a bp

let matmul_packed_prefix_residual_into ~rows ~bias ~residual ~relu out a bp =
  packed_prefix_into "matmul_packed_prefix_residual_into" ~exact:false ~rows
    ~bias ~residual ~relu out a bp

let blit_row_into src i dst =
  let c = dim1 src in
  let r = rows2 "blit_row_into" dst and cd = cols2 "blit_row_into" dst in
  if cd <> c then invalid_arg "Tensor.blit_row_into: width mismatch";
  if i < 0 || i >= r then invalid_arg "Tensor.blit_row_into: row out of bounds";
  let sd = src.data and dd = dst.data in
  let base = i * c in
  for j = 0 to c - 1 do
    F.unsafe_set dd (base + j) (F.unsafe_get sd j)
  done
[@@hot]

let stack_rows rows =
  match rows with
  | [] -> invalid_arg "Tensor.stack_rows: empty"
  | r0 :: _ ->
      let c = dim1 r0 in
      let n = List.length rows in
      let out = zeros [| n; c |] in
      List.iteri
        (fun i r ->
          if dim1 r <> c then invalid_arg "Tensor.stack_rows: ragged rows";
          blit_row_into r i out)
        rows;
      out

let row m i =
  let r, c = dims2 m in
  if i < 0 || i >= r then invalid_arg "Tensor.row: index out of bounds";
  { shape = [| c |]; data = F.sub m.data (i * c) c }

let mv m v =
  let r, c = dims2 m in
  if dim1 v <> c then invalid_arg "Tensor.mv: dims differ";
  let md = m.data and vd = v.data in
  init1 r (fun i ->
      let acc = ref 0.0 in
      for j = 0 to c - 1 do
        acc := !acc +. (F.get md ((i * c) + j) *. F.get vd j)
      done;
      !acc)

let tmv m v =
  let r, c = dims2 m in
  if dim1 v <> r then invalid_arg "Tensor.tmv: dims differ";
  let out = zeros [| c |] in
  let md = m.data and vd = v.data and od = out.data in
  for i = 0 to r - 1 do
    let vi = F.get vd i in
    if vi <> 0.0 then
      for j = 0 to c - 1 do
        F.set od j (F.get od j +. (F.get md ((i * c) + j) *. vi))
      done
  done;
  out

let outer u v =
  let n = dim1 u and m = dim1 v in
  let ud = u.data and vd = v.data in
  init2 n m (fun i j -> F.get ud i *. F.get vd j)

let dot a b =
  if not (same_shape a b) then invalid_arg "Tensor.dot: shape mismatch";
  let ad = a.data and bd = b.data in
  let acc = ref 0.0 in
  for k = 0 to F.length ad - 1 do
    acc := !acc +. (F.unsafe_get ad k *. F.unsafe_get bd k)
  done;
  !acc

let transpose m =
  let r, c = dims2 m in
  let md = m.data in
  init2 c r (fun i j -> F.get md ((j * c) + i))

let sum t = F.fold_left ( +. ) 0.0 t.data
let mean t = sum t /. float_of_int (numel t)
let max_value t = F.fold_left Float.max neg_infinity t.data

let argmax1 t =
  ignore (dim1 t);
  let d = t.data in
  let best = ref 0 in
  for i = 1 to F.length d - 1 do
    if F.get d i > F.get d !best then best := i
  done;
  !best

let l2norm_sq t = F.fold_left (fun acc x -> acc +. (x *. x)) 0.0 t.data

let uniform ~rng ~lo ~hi shape =
  check_shape shape;
  { shape = Array.copy shape;
    data =
      F.init (numel_of shape) (fun _ ->
          lo +. Random.State.float rng (hi -. lo)) }

let xavier ~rng ~fan_in ~fan_out shape =
  let bound = sqrt (6.0 /. float_of_int (fan_in + fan_out)) in
  uniform ~rng ~lo:(-.bound) ~hi:bound shape

let concat1 ts =
  let ts = List.map (fun t -> ignore (dim1 t); t) ts in
  let n = List.fold_left (fun acc t -> acc + numel t) 0 ts in
  if n = 0 then invalid_arg "Tensor.concat1: empty";
  let out = zeros [| n |] in
  let pos = ref 0 in
  List.iter
    (fun t ->
      F.blit t.data 0 out.data !pos (F.length t.data);
      pos := !pos + F.length t.data)
    ts;
  out

let approx_equal ?(eps = 1e-9) a b =
  same_shape a b
  &&
  let ad = a.data and bd = b.data in
  let ok = ref true in
  for k = 0 to F.length ad - 1 do
    if Float.abs (F.get ad k -. F.get bd k) > eps then ok := false
  done;
  !ok

let pp ppf t =
  let row_list off len =
    List.init len (fun k -> F.get t.data (off + k))
  in
  match t.shape with
  | [| n |] ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           (fun ppf x -> Format.fprintf ppf "%g" x))
        (row_list 0 n)
  | [| r; c |] ->
      Format.fprintf ppf "@[<v>";
      for i = 0 to r - 1 do
        if i > 0 then Format.fprintf ppf "@,";
        Format.fprintf ppf "[%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
             (fun ppf x -> Format.fprintf ppf "%g" x))
          (row_list (i * c) c)
      done;
      Format.fprintf ppf "@]"
  | _ -> assert false
