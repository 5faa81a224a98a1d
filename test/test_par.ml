(* Determinism-under-parallelism tests for the Par.Pool runtime: pool
   semantics (order-keyed results, fixed reduction order, exception
   propagation, nested-region inlining), the data-parallel training step
   against the serial one (bitwise), and a whole domains=4 training run
   against domains=1 (identical replay buffer and weights). *)

open Testutil

(* ------------------------------------------------------------------ *)
(* Pool semantics *)

let with_pool ~domains f =
  let pool = Par.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_order () =
  with_pool ~domains:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let ys = Par.Pool.map pool xs ~f:(fun ~worker:_ x -> x * x) in
      Alcotest.(check (array int))
        "slot i holds f(x_i) regardless of scheduling"
        (Array.map (fun x -> x * x) xs)
        ys)

let test_pool_reduce_order () =
  (* catastrophic-cancellation values: any reordering of the fold would
     change the float result, so equality with the sequential fold is
     evidence the reduction order really is fixed *)
  let v i = (10.0 ** float_of_int (i mod 17)) -. (0.1 *. float_of_int i) in
  let n = 200 in
  let serial = ref 0.0 in
  for i = 0 to n - 1 do
    serial := !serial +. v i
  done;
  with_pool ~domains:4 (fun pool ->
      let parallel =
        Par.Pool.reduce pool ~n ~map:(fun ~worker:_ i -> v i)
          ~fold:( +. ) ~init:0.0
      in
      Alcotest.(check bool)
        "ascending-index fold, bit for bit" true
        (Int64.equal (Int64.bits_of_float !serial)
           (Int64.bits_of_float parallel)))

let test_pool_parallel_for_covers () =
  with_pool ~domains:3 (fun pool ->
      let n = 97 in
      let hits = Array.make n 0 in
      (* disjoint chunks: each index is written by exactly one task *)
      Par.Pool.parallel_for pool ~n ~chunk:5 (fun ~worker:_ i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index ran exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_exception_propagates () =
  with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "task failure re-raised on caller"
        (Failure "task 13") (fun () ->
          ignore
            (Par.Pool.map pool
               (Array.init 20 (fun i -> i))
               ~f:(fun ~worker:_ i ->
                 if i = 13 then failwith "task 13" else i)));
      (* the pool must survive a failed region *)
      let ys =
        Par.Pool.map pool (Array.init 5 (fun i -> i)) ~f:(fun ~worker:_ i ->
            i + 1)
      in
      Alcotest.(check (array int)) "pool usable after failure"
        [| 1; 2; 3; 4; 5 |] ys)

let test_pool_reuse_many_regions () =
  with_pool ~domains:4 (fun pool ->
      let total = ref 0 in
      for round = 1 to 50 do
        let s =
          Par.Pool.reduce pool ~n:round ~map:(fun ~worker:_ i -> i)
            ~fold:( + ) ~init:0
        in
        total := !total + s
      done;
      let expect = ref 0 in
      for round = 1 to 50 do
        expect := !expect + (round * (round - 1) / 2)
      done;
      Alcotest.(check int) "50 regions on one pool" !expect !total)

let test_pool_nested_runs_inline () =
  with_pool ~domains:3 (fun pool ->
      (* a task that itself submits a region: must not deadlock, and the
         inner region must see the outer worker's index.  The (outer,
         inner) worker pairs are recorded inside the tasks and checked
         here on the submitting domain: Alcotest's reporting is not
         domain-safe, so no check may run on a worker. *)
      let outer =
        Par.Pool.map pool (Array.init 6 (fun i -> i)) ~f:(fun ~worker i ->
            let inner =
              Par.Pool.map pool
                (Array.init 4 (fun j -> j))
                ~f:(fun ~worker:w j -> ((i * 10) + j, (worker, w)))
            in
            ( Array.fold_left (fun acc (x, _) -> acc + x) 0 inner,
              Array.map snd inner ))
      in
      Array.iter
        (fun (_, pairs) ->
          Array.iter
            (fun (worker, w) ->
              Alcotest.(check int) "nested task inherits worker" worker w)
            pairs)
        outer;
      Alcotest.(check (array int)) "nested results"
        (Array.init 6 (fun i -> (i * 40) + 6))
        (Array.map fst outer))

let test_pool_shutdown_idempotent () =
  let pool = Par.Pool.create ~domains:3 in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool;
  Alcotest.check_raises "used after shutdown"
    (Invalid_argument "Par.Pool: pool already shut down") (fun () ->
      Par.Pool.run pool [| (fun _ -> ()) |])

let test_pool_size_clamped () =
  with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "size >= 1" 1 (Par.Pool.size pool);
      let ys =
        Par.Pool.map pool (Array.init 3 (fun i -> i)) ~f:(fun ~worker:_ i ->
            i * 2)
      in
      Alcotest.(check (array int)) "inline pool works" [| 0; 2; 4 |] ys)

(* ------------------------------------------------------------------ *)
(* Data-parallel training step: bitwise vs the serial step *)

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

let params_identical a b =
  List.for_all2
    (fun (x : Nn.Var.t) (y : Nn.Var.t) ->
      tensor_bits_equal x.Nn.Var.value y.Nn.Var.value)
    (Nn.Pvnet.params a) (Nn.Pvnet.params b)

let training_batch ~m ~seed n =
  let r = rng seed in
  List.init n (fun _ ->
      let g =
        Pbqp.Generate.erdos_renyi ~rng:r
          { Pbqp.Generate.default with n = 6; m; p_edge = 0.4; p_inf = 0.1 }
      in
      let next = Random.State.int r 6 in
      let raw = Array.init m (fun _ -> Random.State.float r 1.0 +. 0.01) in
      let s = Array.fold_left ( +. ) 0.0 raw in
      {
        Nn.Pvnet.graph = g;
        next;
        policy = Array.map (fun x -> x /. s) raw;
        value = Random.State.float r 2.0 -. 1.0;
      })

let test_train_batch_parallel_bitwise () =
  let m = 4 in
  let serial = tiny_net ~m () in
  let parallel = Nn.Pvnet.clone serial in
  let opt_s = Nn.Adam.create Nn.Adam.default_config in
  let opt_p = Nn.Adam.create Nn.Adam.default_config in
  with_pool ~domains:3 (fun pool ->
      let replicas =
        Array.init (Par.Pool.size pool) (fun w ->
            if w = 0 then parallel else Nn.Pvnet.clone parallel)
      in
      (* several compounding steps: a single-ulp divergence in step 1
         would be amplified by Adam's moments and caught below *)
      for step = 1 to 4 do
        let batch = training_batch ~m ~seed:(50 + step) 7 in
        let ls = Nn.Pvnet.train_batch serial opt_s batch in
        let lp =
          Nn.Pvnet.train_batch_parallel ~pool ~replicas parallel opt_p batch
        in
        Alcotest.(check bool)
          (Printf.sprintf "step %d loss identical" step)
          true
          (Int64.equal (Int64.bits_of_float ls) (Int64.bits_of_float lp));
        Alcotest.(check bool)
          (Printf.sprintf "step %d weights identical" step)
          true
          (params_identical serial parallel)
      done)

let test_train_batch_parallel_any_pool_size () =
  let m = 3 in
  let batch = training_batch ~m ~seed:77 6 in
  let reference = tiny_net ~m () in
  let opt_r = Nn.Adam.create Nn.Adam.default_config in
  let _ = Nn.Pvnet.train_batch reference opt_r batch in
  List.iter
    (fun domains ->
      let net = tiny_net ~m () in
      let opt = Nn.Adam.create Nn.Adam.default_config in
      with_pool ~domains (fun pool ->
          let replicas =
            Array.init (Par.Pool.size pool) (fun w ->
                if w = 0 then net else Nn.Pvnet.clone net)
          in
          let _ =
            Nn.Pvnet.train_batch_parallel ~pool ~replicas net opt batch
          in
          Alcotest.(check bool)
            (Printf.sprintf "pool size %d = serial step" domains)
            true
            (params_identical reference net)))
    [ 1; 2; 4; 8 ]

let test_train_batch_parallel_validates () =
  let m = 3 in
  let net = tiny_net ~m () in
  let opt = Nn.Adam.create Nn.Adam.default_config in
  with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "replica count must match pool size"
        (Invalid_argument
           "Pvnet.train_batch_parallel: replicas/pool size mismatch")
        (fun () ->
          ignore
            (Nn.Pvnet.train_batch_parallel ~pool ~replicas:[| net |] net opt
               (training_batch ~m ~seed:9 2))))

(* ------------------------------------------------------------------ *)
(* Whole-run invariance: domains=4 vs domains=1, same seed *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_training_domain_count_invariant () =
  let m = 3 in
  let dir = Filename.temp_file "parrun" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let run domains =
    let prefix = Filename.concat dir (Printf.sprintf "d%d" domains) in
    let cfg =
      {
        (Core.Train.default_config ~m) with
        iterations = 2;
        episodes_per_iteration = 4;
        domains;
        mcts = { Mcts.default_config with k = 6 };
        net =
          { (Nn.Pvnet.default_config ~m) with trunk_width = 8;
            trunk_blocks = 1; gcn_layers = 1 };
        n_mean = 6.0;
        n_stddev = 1.0;
        n_min = 3;
        arena_games = 2;
        batches_per_iteration = 2;
        batch_size = 8;
        checkpoint = Some prefix;
      }
    in
    let failures = ref [] in
    let net =
      Core.Train.run
        ~on_iteration:(fun p ->
          failures := p.Core.Train.episodes_failed :: !failures)
        ~rng:(rng 5) cfg
    in
    (net, read_file (prefix ^ ".replay.txt"), !failures)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let net1, replay1, failed1 = run 1 in
      let net4, replay4, failed4 = run 4 in
      Alcotest.(check string)
        "replay buffers identical, byte for byte" replay1 replay4;
      Alcotest.(check (list int)) "episodes_failed identical" failed1 failed4;
      Alcotest.(check bool) "final nets identical, bit for bit" true
        (params_identical net1 net4))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "reduce order fixed" `Quick
            test_pool_reduce_order;
          Alcotest.test_case "parallel_for covers" `Quick
            test_pool_parallel_for_covers;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "reuse across regions" `Quick
            test_pool_reuse_many_regions;
          Alcotest.test_case "nested regions inline" `Quick
            test_pool_nested_runs_inline;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "size clamped" `Quick test_pool_size_clamped;
        ] );
      ( "train-step",
        [
          Alcotest.test_case "parallel = serial, bitwise, compounding" `Quick
            test_train_batch_parallel_bitwise;
          Alcotest.test_case "every pool size = serial" `Quick
            test_train_batch_parallel_any_pool_size;
          Alcotest.test_case "replica validation" `Quick
            test_train_batch_parallel_validates;
        ] );
      ( "training-run",
        [
          Alcotest.test_case "domains=4 = domains=1 (replay + weights)"
            `Slow test_training_domain_count_invariant;
        ] );
    ]
