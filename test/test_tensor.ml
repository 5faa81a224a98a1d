(* Equivalence tests for the packed-panel GEMM: [Tensor.matmul_packed_into]
   must be BIT-identical to [Tensor.matmul_naive] — same k-ascending
   accumulation order per output element, so not even the last ulp may
   differ.  Random shapes, adversarial shapes straddling the 8-wide
   panel boundary, sparsity (the zero-skip path), the fused epilogues,
   the floatarray bridges and the row-stacking helpers. *)

open Testutil

(* bit-level equality: approx_equal would hide an accumulation-order bug *)
let bits_equal a b = tensor_bits_equal a b

let t_bits = Alcotest.testable Tensor.pp bits_equal

(* Random matrices with zeros mixed in (exercises the packed kernel's
   zero-skip), negatives, and a wide magnitude range so accumulation
   order would actually show up in the low bits if it differed. *)
let random_matrix rng ?(p_zero = 0.2) r c =
  Tensor.init2 r c (fun _ _ ->
      if Random.State.float rng 1.0 < p_zero then 0.0
      else
        let mag = 10.0 ** Random.State.float rng 6.0 in
        (Random.State.float rng 2.0 -. 1.0) *. mag)

let test_stack_rows_row_roundtrip () =
  let rng = rng 11 in
  let m = random_matrix rng 7 5 in
  let rows = List.init 7 (Tensor.row m) in
  Alcotest.check t_bits "stack (row m i) = m" m (Tensor.stack_rows rows);
  let r3 = Tensor.row m 3 in
  Alcotest.(check int) "row rank" 1 (Tensor.rank r3);
  Alcotest.(check (float 0.0)) "row copies" (Tensor.get2 m 3 2)
    (Tensor.get1 r3 2);
  (* mutating the extracted row must not write through to the matrix *)
  Float.Array.set (Tensor.data r3) 2 123.0;
  Alcotest.(check bool) "row is a copy" false (Tensor.get2 m 3 2 = 123.0)

let test_blit_row_into () =
  let rng = rng 13 in
  let m = random_matrix rng 4 6 in
  let src = random_matrix rng 1 6 in
  let src = Tensor.row src 0 in
  let expect =
    Tensor.init2 4 6 (fun i j ->
        if i = 2 then Tensor.get1 src j else Tensor.get2 m i j)
  in
  Tensor.blit_row_into src 2 m;
  Alcotest.check t_bits "row 2 overwritten, others untouched" expect m;
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Tensor.blit_row_into: width mismatch") (fun () ->
      Tensor.blit_row_into (Tensor.zeros [| 5 |]) 0 m);
  Alcotest.check_raises "row out of bounds"
    (Invalid_argument "Tensor.blit_row_into: row out of bounds") (fun () ->
      Tensor.blit_row_into (Tensor.zeros [| 6 |]) 4 m)

(* ------------------------------------------------------------------ *)
(* Packed-panel GEMM with fused epilogues: [matmul_packed_into] must be
   bit-identical to the naive kernel (same ascending-k
   zero-skip accumulation per cell) and, with epilogues, to the unfused
   sequence "matmul, + bias, + residual, relu" in exactly that order. *)

(* the unfused reference epilogue, same float ops in the same order as
   the fused kernel's *)
let epilogue ?bias ?residual ~relu prod =
  let r, c = Tensor.dims2 prod in
  Tensor.init2 r c (fun i j ->
      let v = Tensor.get2 prod i j in
      let v = match bias with Some b -> v +. Tensor.get1 b j | None -> v in
      let v =
        match residual with Some m -> Tensor.get2 m i j +. v | None -> v
      in
      if relu then (if v > 0.0 then v else 0.0) else v)

let check_packed rng ?p_zero ra ca cb =
  let a = random_matrix rng ?p_zero ra ca in
  let b = random_matrix rng ?p_zero ca cb in
  let out = Tensor.init2 ra cb (fun _ _ -> Float.nan) in
  Tensor.matmul_packed_into out a (Tensor.pack b);
  if not (bits_equal out (Tensor.matmul_naive a b)) then
    Alcotest.failf "packed <> naive for %dx%d @ %dx%d" ra ca ca cb

let test_packed_equals_naive_random =
  let arb =
    QCheck.make
      ~print:(fun (s, ra, ca, cb) ->
        Printf.sprintf "seed=%d %dx%d @ %dx%d" s ra ca ca cb)
      QCheck.Gen.(
        let* s = int_bound 1_000_000 in
        let* ra = int_range 1 70 in
        let* ca = int_range 1 70 in
        let* cb = int_range 1 70 in
        pure (s, ra, ca, cb))
  in
  qtest ~count:60 "packed = naive (random shapes, bitwise)" arb
    (fun (s, ra, ca, cb) ->
      check_packed (rng s) ra ca cb;
      true)

let test_packed_adversarial () =
  let rng = rng 21 in
  (* the panel width is 8: 7/8/9 and 15/16/17 cross every tail case, and
     the 95%-zero pair exercises the zero-skip against panel padding *)
  List.iter
    (fun (ra, ca, cb) -> check_packed rng ra ca cb)
    [
      (1, 1, 1);
      (1, 64, 1);
      (3, 5, 7);
      (5, 3, 8);
      (4, 4, 9);
      (2, 33, 15);
      (33, 2, 16);
      (9, 17, 17);
      (31, 32, 33);
      (16, 48, 24);
    ];
  check_packed rng ~p_zero:0.95 45 45 45

let test_pack_transposed () =
  let rng = rng 23 in
  (* x (b x k) times w^T for an n x k weight: the linear-layer forward *)
  List.iter
    (fun (b, k, n) ->
      let x = random_matrix rng b k in
      let w = random_matrix rng n k in
      let out = Tensor.init2 b n (fun _ _ -> Float.nan) in
      Tensor.matmul_packed_into out x (Tensor.pack_transposed w);
      Alcotest.check t_bits
        (Printf.sprintf "x w^T %dx%dx%d" b k n)
        (Tensor.matmul_naive x (Tensor.transpose w))
        out;
      Alcotest.(check (pair int int))
        "packed_dims" (k, n)
        (Tensor.packed_dims (Tensor.pack_transposed w)))
    [ (1, 1, 1); (4, 7, 9); (32, 39, 32); (5, 16, 13) ]

let test_fused_equals_unfused () =
  let rng = rng 25 in
  List.iter
    (fun (ra, ca, cb) ->
      let a = random_matrix rng ra ca in
      let b = random_matrix rng ca cb in
      let bias = Tensor.row (random_matrix rng 1 cb) 0 in
      let residual = random_matrix rng ra cb in
      let bp = Tensor.pack b in
      let prod = Tensor.matmul_naive a b in
      let check ?bias ?residual ~relu name =
        let out = Tensor.init2 ra cb (fun _ _ -> Float.nan) in
        Tensor.matmul_packed_into ?bias ?residual ~relu out a bp;
        Alcotest.check t_bits
          (Printf.sprintf "%s %dx%dx%d" name ra ca cb)
          (epilogue ?bias ?residual ~relu prod)
          out
      in
      check ~relu:false "no epilogue";
      check ~bias ~relu:false "bias";
      check ~bias ~relu:true "bias+relu";
      check ~bias ~residual ~relu:false "bias+residual";
      check ~bias ~residual ~relu:true "bias+residual+relu";
      check ~residual ~relu:true "residual+relu")
    [ (1, 3, 5); (7, 9, 8); (32, 39, 32); (13, 16, 17) ]

let test_fused_residual_aliasing () =
  (* out == residual: each cell is read before its single write, so
     accumulating straight into the residual buffer is bit-identical to
     the copying variant — the Pvnet trunk writes fc2 + skip in place *)
  let rng = rng 27 in
  let a = random_matrix rng 12 33 in
  let b = random_matrix rng 33 20 in
  let bias = Tensor.row (random_matrix rng 1 20) 0 in
  let residual = random_matrix rng 12 20 in
  let expect =
    epilogue ~bias ~residual ~relu:false (Tensor.matmul_naive a b)
  in
  let out = Tensor.copy residual in
  Tensor.matmul_packed_into ~bias ~residual:out out a (Tensor.pack b);
  Alcotest.check t_bits "out == residual aliasing" expect out

(* [matmul_packed_prefix_into] over the first [rows] rows of larger
   buffers: those rows bitwise equal to the exact-shape fused kernel,
   the rows past [rows] untouched (the GCN readout reuses capacity-sized
   buffers across graphs of every size) *)
let test_packed_prefix () =
  let rng = rng 29 in
  List.iter
    (fun (cap, rows, ca, cb) ->
      let a = random_matrix rng cap ca in
      let b = random_matrix rng ca cb in
      let bias = Tensor.row (random_matrix rng 1 cb) 0 in
      let residual = random_matrix rng cap cb in
      let bp = Tensor.pack b in
      let top m = Tensor.init2 rows (snd (Tensor.dims2 m)) (Tensor.get2 m) in
      List.iter
        (fun (name, residual, relu) ->
          let out = Tensor.init2 cap cb (fun _ _ -> Float.nan) in
          Tensor.matmul_packed_prefix_into ~rows ~bias ~residual ~relu out a bp;
          let expect = Tensor.init2 rows cb (fun _ _ -> Float.nan) in
          Tensor.matmul_packed_into ~bias ?residual:(Option.map top residual)
            ~relu expect (top a) bp;
          Alcotest.check t_bits
            (Printf.sprintf "%s rows %d of %d" name rows cap)
            expect (top out);
          for i = rows to cap - 1 do
            for j = 0 to cb - 1 do
              if not (Float.is_nan (Tensor.get2 out i j)) then
                Alcotest.failf "%s: row %d past the prefix was written" name i
            done
          done)
        [ ("bias", None, false); ("bias+residual+relu", Some residual, true) ])
    [ (1, 1, 3, 5); (9, 4, 13, 13); (40, 17, 9, 9); (64, 64, 13, 13) ];
  Alcotest.check_raises "rows past the buffer"
    (Invalid_argument "Tensor.matmul_packed_prefix_into: output shape mismatch")
    (fun () ->
      Tensor.matmul_packed_prefix_into ~rows:3 ~bias:(Tensor.zeros [| 4 |])
        ~residual:None ~relu:false (Tensor.zeros [| 2; 4 |])
        (Tensor.zeros [| 3; 3 |])
        (Tensor.pack (Tensor.zeros [| 3; 4 |])))

let test_packed_errors () =
  let a = Tensor.zeros [| 2; 3 |] in
  let bp = Tensor.pack (Tensor.zeros [| 3; 4 |]) in
  Alcotest.check_raises "inner dims"
    (Invalid_argument "Tensor.matmul_packed_into: inner dims differ")
    (fun () ->
      Tensor.matmul_packed_into (Tensor.zeros [| 2; 4 |])
        (Tensor.zeros [| 2; 4 |])
        bp);
  Alcotest.check_raises "output shape"
    (Invalid_argument "Tensor.matmul_packed_into: output shape mismatch")
    (fun () -> Tensor.matmul_packed_into (Tensor.zeros [| 4; 2 |]) a bp);
  Alcotest.check_raises "aliasing input"
    (Invalid_argument "Tensor.matmul_packed_into: output aliases input")
    (fun () ->
      let sq = Tensor.zeros [| 3; 3 |] in
      Tensor.matmul_packed_into sq sq (Tensor.pack (Tensor.zeros [| 3; 3 |])));
  Alcotest.check_raises "bias width"
    (Invalid_argument "Tensor.matmul_packed_into: bias width mismatch")
    (fun () ->
      Tensor.matmul_packed_into
        ~bias:(Tensor.zeros [| 3 |])
        (Tensor.zeros [| 2; 4 |])
        a bp)

(* ------------------------------------------------------------------ *)
(* floatarray bridges *)

let test_float_array_bridges () =
  let rng = rng 29 in
  let t = Tensor.row (random_matrix rng 1 9) 0 in
  let fa = Tensor.to_float_array t in
  Alcotest.check t_bits "of_float_array (to_float_array t) = t" t
    (Tensor.of_float_array fa);
  (* both directions copy: mutating the bridge value must not alias *)
  Float.Array.set fa 0 42.0;
  Alcotest.(check bool) "to_float_array copies" false (Tensor.get1 t 0 = 42.0);
  let t2 = Tensor.of_float_array fa in
  Float.Array.set fa 1 43.0;
  Alcotest.(check bool) "of_float_array copies" false (Tensor.get1 t2 1 = 43.0);
  (* rank-2 flattens row-major *)
  let m = random_matrix rng 3 4 in
  let fm = Tensor.to_float_array m in
  Alcotest.(check int) "rank-2 flat length" 12 (Float.Array.length fm);
  Alcotest.(check bool) "row-major order" true
    (Float.Array.get fm 5 = Tensor.get2 m 1 1);
  Alcotest.check_raises "empty"
    (Invalid_argument "Tensor.of_float_array: empty") (fun () ->
      ignore (Tensor.of_float_array (Float.Array.create 0)))

let test_stack_rows_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Tensor.stack_rows: empty")
    (fun () -> ignore (Tensor.stack_rows []));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Tensor.stack_rows: ragged rows") (fun () ->
      ignore (Tensor.stack_rows [ Tensor.zeros [| 2 |]; Tensor.zeros [| 3 |] ]));
  Alcotest.check_raises "row out of bounds"
    (Invalid_argument "Tensor.row: index out of bounds") (fun () ->
      ignore (Tensor.row (Tensor.zeros [| 2; 2 |]) 2))

let () =
  Alcotest.run "tensor"
    [
      ( "packed-gemm",
        [
          test_packed_equals_naive_random;
          Alcotest.test_case "panel-boundary shapes" `Quick
            test_packed_adversarial;
          Alcotest.test_case "pack_transposed = x w^T" `Quick
            test_pack_transposed;
          Alcotest.test_case "fused = unfused epilogue" `Quick
            test_fused_equals_unfused;
          Alcotest.test_case "out == residual aliasing" `Quick
            test_fused_residual_aliasing;
          Alcotest.test_case "packed errors" `Quick test_packed_errors;
          Alcotest.test_case "prefix rows = exact shape" `Quick
            test_packed_prefix;
        ] );
      ( "bridges",
        [
          Alcotest.test_case "floatarray round-trips copy" `Quick
            test_float_array_bridges;
        ] );
      ( "row-helpers",
        [
          Alcotest.test_case "stack_rows/row roundtrip" `Quick
            test_stack_rows_row_roundtrip;
          Alcotest.test_case "blit_row_into" `Quick test_blit_row_into;
          Alcotest.test_case "stack_rows errors" `Quick test_stack_rows_errors;
        ] );
    ]
