(* Flat unboxed tensor core.

   Storage is a single [floatarray] per tensor (unboxed float64, flat
   row-major) — rank-2 element (i, j) lives at [i * cols + j].  The hot
   GEMM kernels additionally use two Bigarray-backed side structures:

   - [packed]: the B operand repacked into contiguous width-4 column
     panels (float64 Bigarray) so the inner loop streams one cache line
     per panel step and the pack cost is amortized across a whole batch
     (the packed weights are memoized per network version upstream);
   - [Q.qmat]: per-row int8 quantized weights (int8 Bigarray) for the
     inference-only quantized serving path, with float rescale in the
     epilogue.

   Bit-identity discipline: every float kernel accumulates each output
   cell in globally ascending-k order and skips exact-zero A
   contributions ([if aik <> 0.0]), so [matmul_naive], the tiled
   [matmul]/[matmul_into], and the packed fused kernel all produce
   bit-identical results, for every pool size (row splits never change a
   per-cell accumulation order). *)

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
let set1 t i x = ignore (dim1 t); F.set t.data i x

let get2 t i j =
  let _, c = dims2 t in
  F.get t.data ((i * c) + j)

let set2 t i j x =
  let _, c = dims2 t in
  F.set t.data ((i * c) + j) x

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
  if ca <> rb then invalid_arg "Tensor.matmul: inner dims differ";
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

(* Cache-tiled GEMM.  Per output element the k-accumulation order is
   globally ascending — the same order the naive kernel uses — and skipped
   zero contributions add exact (positive) zeros, so results are
   bit-identical to [matmul_naive].  32×32 double tiles are 8 KB: an A
   tile, a B tile and an out row-block coexist in a 32 KB L1. *)
let block = 32

(* The tiled kernel restricted to output rows [lo, hi): zero-fills its
   own row range then accumulates into it, so disjoint row ranges touch
   disjoint slices of [od] and can run on different domains.  Splitting
   by rows does not change any per-element accumulation order (each
   output cell's k-sum lives entirely inside one row), so any partition
   is bit-identical to the serial [lo=0, hi=ra] call. *)
let matmul_rows od ad bd ~ca ~cb ~lo ~hi =
  F.fill od (lo * cb) ((hi - lo) * cb) 0.0;
  let ib = ref lo in
  while !ib < hi do
    let imax = min (!ib + block) hi in
    let kb = ref 0 in
    while !kb < ca do
      let kmax = min (!kb + block) ca in
      let jb = ref 0 in
      while !jb < cb do
        let jmax = min (!jb + block) cb in
        (* dims are validated by the caller, so every index below is in
           range; unsafe accesses drop the per-element bounds checks
           that dominate the inner loop *)
        for i = !ib to imax - 1 do
          let orow = i * cb in
          for k = !kb to kmax - 1 do
            let aik = F.unsafe_get ad ((i * ca) + k) in
            if aik <> 0.0 then begin
              let brow = k * cb in
              for j = !jb to jmax - 1 do
                F.unsafe_set od (orow + j)
                  (F.unsafe_get od (orow + j)
                  +. (aik *. F.unsafe_get bd (brow + j)))
              done
            end
          done
        done;
        jb := !jb + block
      done;
      kb := !kb + block
    done;
    ib := !ib + block
  done
[@@hot]

(* Optional pool for parallel GEMM; set once at startup by the driver.
   Atomic so a concurrent reader sees either the old or the new pool,
   never a torn value. *)
let pool : Par.Pool.t option Atomic.t = Atomic.make None
let set_pool p = Atomic.set pool p
let get_pool () = Atomic.get pool

(* Below this many multiply-adds the fork/join overhead beats the win. *)
let par_threshold = 65536

let matmul_into out a b =
  let ra, ca = dims2 a and rb, cb = dims2 b in
  if ca <> rb then invalid_arg "Tensor.matmul_into: inner dims differ";
  let ro, co = dims2 out in
  if ro <> ra || co <> cb then
    invalid_arg "Tensor.matmul_into: output shape mismatch";
  if out.data == a.data || out.data == b.data then
    invalid_arg "Tensor.matmul_into: output aliases an input";
  let ad = a.data and bd = b.data and od = out.data in
  match Atomic.get pool with
  | Some p
    when Par.Pool.size p > 1 && ra > 1 && ra * ca * cb >= par_threshold ->
      Par.Pool.parallel_rows p ~rows:ra (fun ~lo ~hi ->
          matmul_rows od ad bd ~ca ~cb ~lo ~hi)
  | _ -> matmul_rows od ad bd ~ca ~cb ~lo:0 ~hi:ra

let matmul a b =
  let ra, ca = dims2 a and rb, cb = dims2 b in
  if ca <> rb then invalid_arg "Tensor.matmul: inner dims differ";
  let out = zeros [| ra; cb |] in
  matmul_into out a b;
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

(* The fused kernel restricted to output rows [lo, hi).  Each output
   cell is accumulated in a register in ascending-k order with the same
   zero-skip as the naive/tiled kernels, then written exactly once after
   the epilogue — so [out == residual] aliasing is safe (the residual
   cell is read before the single write), and fused results are
   bit-identical to the unfused
   [matmul_into; add bias rowwise; add residual; relu] sequence, which
   applies the exact same float operations in the exact same order. *)
let matmul_packed_rows od ad ~ca ~bp ~bias ~residual ~relu ~lo ~hi =
  let pn = bp.pn and panels = bp.panels in
  let npanels = (pn + panel_width - 1) / panel_width in
  let pstride = ca * panel_width in
  for i = lo to hi - 1 do
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
        let v =
          match bias with
          | Some bd -> acc +. F.unsafe_get bd j
          | None -> acc
        in
        let v =
          match residual with
          | Some rd -> F.unsafe_get rd (orow + j) +. v
          | None -> v
        in
        (* same expression as the standalone relu pass: [else] also maps
           -0.0 and nan to +0.0 *)
        let v = if relu then (if v > 0.0 then v else 0.0) else v in
        F.unsafe_set od (orow + j) v
      done
    done
  done
[@@hot]

(* Shared validation and dispatch of the two packed entry points: the
   product runs over the first [rows] rows of [a], [out] and [residual],
   each of which must have at least that many ([exact]: exactly that
   many). *)
let packed_prefix_into name ~exact ~rows ~bias ~residual ~relu out a bp =
  let fits r = if exact then r = rows else r >= rows in
  let ra, ca = dims2 a in
  if ca <> bp.pk then invalid_arg ("Tensor." ^ name ^ ": inner dims differ");
  let ro, co = dims2 out in
  if rows < 0 || not (fits ra && fits ro) || co <> bp.pn then
    invalid_arg ("Tensor." ^ name ^ ": output shape mismatch");
  if out.data == a.data then
    invalid_arg ("Tensor." ^ name ^ ": output aliases input");
  let bias =
    match bias with
    | None -> None
    | Some b ->
        if dim1 b <> bp.pn then
          invalid_arg ("Tensor." ^ name ^ ": bias width mismatch");
        Some b.data
  in
  let residual =
    match residual with
    | None -> None
    | Some r ->
        let rr, rc = dims2 r in
        if not (fits rr) || rc <> bp.pn then
          invalid_arg ("Tensor." ^ name ^ ": residual shape mismatch");
        Some r.data
  in
  let ad = a.data and od = out.data in
  match Atomic.get pool with
  | Some p
    when Par.Pool.size p > 1 && rows > 1 && rows * ca * bp.pn >= par_threshold
    ->
      Par.Pool.parallel_rows p ~rows (fun ~lo ~hi ->
          matmul_packed_rows od ad ~ca ~bp ~bias ~residual ~relu ~lo ~hi)
  | _ -> matmul_packed_rows od ad ~ca ~bp ~bias ~residual ~relu ~lo:0 ~hi:rows

let matmul_packed_into ?bias ?residual ?(relu = false) out a bp =
  packed_prefix_into "matmul_packed_into" ~exact:true ~rows:(fst (dims2 a))
    ~bias ~residual ~relu out a bp

let matmul_packed_prefix_into ~rows ~bias ~residual ~relu out a bp =
  packed_prefix_into "matmul_packed_prefix_into" ~exact:false ~rows
    ~bias:(Some bias) ~residual ~relu out a bp

(* {2 Int8 quantized serving path} *)

module Q = struct
  type i8 = (int, Bigarray.int8_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* Per-row symmetric int8 quantization: row [r] of the original matrix
     is [scale.(r) * q.(r, k)] with [q] clamped to [-127, 127] (round
     half away from zero).  [qmat] is inference-only — it never feeds
     gradients — and is memoized per network version upstream. *)
  type qmat = { qrows : int; qcols : int; q : i8; scales : floatarray }

  let rows m = m.qrows
  let cols m = m.qcols

  (* [@inline always]: a non-inlined call would box both float arguments
     at every quantized cell — the activation-quant loop must stay
     allocation-free. *)
  let[@inline always] quantize_value ~inv x =
    let r = Float.round (x *. inv) in
    let r = if r > 127.0 then 127.0 else if r < -127.0 then -127.0 else r in
    int_of_float r

  let quantize_rows m =
    let r, c = dims2 m in
    let md = m.data in
    let q = Bigarray.Array1.create Bigarray.Int8_signed Bigarray.C_layout (r * c) in
    let scales = F.make r 0.0 in
    for i = 0 to r - 1 do
      let base = i * c in
      let absmax = ref 0.0 in
      for k = 0 to c - 1 do
        let a = Float.abs (F.unsafe_get md (base + k)) in
        if a > !absmax then absmax := a
      done;
      let scale = if !absmax = 0.0 then 1.0 else !absmax /. 127.0 in
      let inv = 1.0 /. scale in
      F.unsafe_set scales i scale;
      for k = 0 to c - 1 do
        Bigarray.Array1.unsafe_set q (base + k)
          (quantize_value ~inv (F.unsafe_get md (base + k)))
      done
    done;
    { qrows = r; qcols = c; q; scales }

  (* Reusable activation-quantization buffers: [qx] holds the int8
     activations (row-major, up to [rows * cols]), [xscales] the per-row
     scales.  Sized once per batch shape and reused across layers so the
     quantized forward allocates nothing per call. *)
  type scratch = { cap_rows : int; cap : int; qx : i8; xscales : floatarray }

  let scratch ~rows ~cols =
    if rows <= 0 || cols <= 0 then invalid_arg "Tensor.Q.scratch: bad dims";
    { cap_rows = rows;
      cap = rows * cols;
      qx = Bigarray.Array1.create Bigarray.Int8_signed Bigarray.C_layout (rows * cols);
      xscales = F.make rows 0.0 }

  (* int8×int8→int GEMM against quantized weights, with the float
     rescale (and the same fused bias/residual/relu epilogue as the
     float kernel) applied per output cell: activations are quantized
     per row on the fly into [scratch], the accumulator is a native int
     (63-bit — no overflow for any realistic K: |acc| <= K * 127²), and
     [out.(i, j) = acc * (xscale_i * wscale_j) (+ bias_j) ...]. *)
  (* [qx]'s type must be ground here: a polymorphic kind/layout would
     compile every element access to the generic (C-call) bigarray read
     instead of a direct int8 load. *)
  let matmul_qt_rows od ~(qx : i8) ~xscales ~qw ~ca ~bias ~residual ~relu ~lo
      ~hi =
    let pn = qw.qrows and wq = qw.q and wscales = qw.scales in
    (* Width-8 output blocks, like the float packed kernel: one pass over
       the activation row feeds 8 integer accumulators, amortizing the
       per-k activation load and zero-skip (relu layers quantize to many
       exact zeros).  Integer accumulation is exact, so the blocking and
       the skip cannot change any output bit; the tail columns below run
       the plain per-column loop. *)
    let full = pn - (pn mod 8) in
    for i = lo to hi - 1 do
      let xrow = i * ca in
      let orow = i * pn in
      let sx = F.unsafe_get xscales i in
      let j0 = ref 0 in
      while !j0 < full do
        let w0 = !j0 * ca in
        let w1 = w0 + ca and w2 = w0 + (2 * ca) and w3 = w0 + (3 * ca) in
        let w4 = w0 + (4 * ca) and w5 = w0 + (5 * ca) in
        let w6 = w0 + (6 * ca) and w7 = w0 + (7 * ca) in
        let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 in
        let c4 = ref 0 and c5 = ref 0 and c6 = ref 0 and c7 = ref 0 in
        for k = 0 to ca - 1 do
          let xv = Bigarray.Array1.unsafe_get qx (xrow + k) in
          if xv <> 0 then begin
            c0 := !c0 + (xv * Bigarray.Array1.unsafe_get wq (w0 + k));
            c1 := !c1 + (xv * Bigarray.Array1.unsafe_get wq (w1 + k));
            c2 := !c2 + (xv * Bigarray.Array1.unsafe_get wq (w2 + k));
            c3 := !c3 + (xv * Bigarray.Array1.unsafe_get wq (w3 + k));
            c4 := !c4 + (xv * Bigarray.Array1.unsafe_get wq (w4 + k));
            c5 := !c5 + (xv * Bigarray.Array1.unsafe_get wq (w5 + k));
            c6 := !c6 + (xv * Bigarray.Array1.unsafe_get wq (w6 + k));
            c7 := !c7 + (xv * Bigarray.Array1.unsafe_get wq (w7 + k))
          end
        done;
        for jj = 0 to 7 do
          let j = !j0 + jj in
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
          let v = float_of_int acc *. (sx *. F.unsafe_get wscales j) in
          let v =
            match bias with Some bd -> v +. F.unsafe_get bd j | None -> v
          in
          let v =
            match residual with
            | Some rd -> F.unsafe_get rd (orow + j) +. v
            | None -> v
          in
          let v = if relu then (if v > 0.0 then v else 0.0) else v in
          F.unsafe_set od (orow + j) v
        done;
        j0 := !j0 + 8
      done;
      for j = full to pn - 1 do
        let wrow = j * ca in
        let acc = ref 0 in
        for k = 0 to ca - 1 do
          acc :=
            !acc
            + (Bigarray.Array1.unsafe_get qx (xrow + k)
              * Bigarray.Array1.unsafe_get wq (wrow + k))
        done;
        let v = float_of_int !acc *. (sx *. F.unsafe_get wscales j) in
        let v =
          match bias with Some bd -> v +. F.unsafe_get bd j | None -> v
        in
        let v =
          match residual with
          | Some rd -> F.unsafe_get rd (orow + j) +. v
          | None -> v
        in
        let v = if relu then (if v > 0.0 then v else 0.0) else v in
        F.unsafe_set od (orow + j) v
      done
    done
  [@@hot]

  let matmul_qt_into ?bias ?residual ?(relu = false) ~scratch:s out x qw =
    let ra, ca = dims2 x in
    if ca <> qw.qcols then invalid_arg "Tensor.Q.matmul_qt_into: inner dims differ";
    let ro, co = dims2 out in
    if ro <> ra || co <> qw.qrows then
      invalid_arg "Tensor.Q.matmul_qt_into: output shape mismatch";
    if out.data == x.data then
      invalid_arg "Tensor.Q.matmul_qt_into: output aliases input";
    if ra > s.cap_rows || ra * ca > s.cap then
      invalid_arg "Tensor.Q.matmul_qt_into: scratch too small";
    let bias =
      match bias with
      | None -> None
      | Some b ->
          if dim1 b <> qw.qrows then
            invalid_arg "Tensor.Q.matmul_qt_into: bias width mismatch";
          Some b.data
    in
    let residual =
      match residual with
      | None -> None
      | Some r ->
          if dims2 r <> (ra, qw.qrows) then
            invalid_arg "Tensor.Q.matmul_qt_into: residual shape mismatch";
          Some r.data
    in
    let xd = x.data and od = out.data in
    let qx = s.qx and xscales = s.xscales in
    (* dynamic per-row activation quantization into the scratch *)
    for i = 0 to ra - 1 do
      let base = i * ca in
      let absmax = ref 0.0 in
      for k = 0 to ca - 1 do
        let a = Float.abs (F.unsafe_get xd (base + k)) in
        if a > !absmax then absmax := a
      done;
      let scale = if !absmax = 0.0 then 1.0 else !absmax /. 127.0 in
      let inv = 1.0 /. scale in
      F.unsafe_set xscales i scale;
      for k = 0 to ca - 1 do
        Bigarray.Array1.unsafe_set qx (base + k)
          (quantize_value ~inv (F.unsafe_get xd (base + k)))
      done
    done;
    match Atomic.get pool with
    | Some p
      when Par.Pool.size p > 1 && ra > 1 && ra * ca * qw.qrows >= par_threshold
      ->
        Par.Pool.parallel_rows p ~rows:ra (fun ~lo ~hi ->
            matmul_qt_rows od ~qx ~xscales ~qw ~ca ~bias ~residual ~relu ~lo
              ~hi)
    | _ -> matmul_qt_rows od ~qx ~xscales ~qw ~ca ~bias ~residual ~relu ~lo:0 ~hi:ra

  (* Test-only tamper hook: flip the sign of the largest-magnitude cell
     of the quantized matrix in place.  The memoized qmat still carries a
     valid version stamp upstream, so a certification pass sees a real
     int8-vs-float divergence — used to prove the accuracy gate rejects
     corrupted weights. *)
  let corrupt_for_test m =
    let n = m.qrows * m.qcols in
    let best = ref 0 in
    for k = 1 to n - 1 do
      if abs (Bigarray.Array1.get m.q k) > abs (Bigarray.Array1.get m.q !best)
      then best := k
    done;
    let v = Bigarray.Array1.get m.q !best in
    Bigarray.Array1.set m.q !best
      (if v = 0 then 127 else if v > 0 then -v else 127)
end

let blit_row_into src i dst =
  let c = dim1 src in
  let r, cd = dims2 dst in
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

let gaussian ~rng ~mean ~stddev shape =
  check_shape shape;
  let sample () =
    let u1 = Float.max 1e-12 (Random.State.float rng 1.0) in
    let u2 = Random.State.float rng 1.0 in
    mean +. (stddev *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))
  in
  { shape = Array.copy shape; data = F.init (numel_of shape) (fun _ -> sample ()) }

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
