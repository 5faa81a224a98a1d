(* Tests for the inference service (Nn.Infer) and the shared striped
   evaluation cache (Nn.Cache): a service is a counted direct call (no
   submit waits on another worker, a forward exception reaches only its
   submitter), the one-worker solve's row accounting, bitwise episode
   equivalence across service pool sizes x {cache off, on}, striped-cache
   consistency under concurrent domains, and whole training runs
   bit-identical across pool sizes. *)

open Pbqp
open Testutil

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let with_pool ~domains f =
  let pool = Par.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

let random_graph ~seed ~n ~m =
  Generate.erdos_renyi ~rng:(rng seed)
    { Generate.default with n; m; p_edge = 0.5; p_inf = 0.1 }

(* One prepared leaf per vertex of [g]: a stand-in for MCTS leaves. *)
let leaves net g =
  Array.of_list
    (List.map (fun v -> Nn.Pvnet.prepare net g ~next:v) (Graph.vertices g))

let results_eq a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (pa, va) (pb, vb) ->
         bits_eq va vb
         && Array.length pa = Array.length pb
         && Array.for_all2 bits_eq pa pb)
       a b

let check_results msg a b =
  if not (results_eq a b) then Alcotest.failf "%s: results differ" msg

(* ------------------------------------------------------------------ *)
(* A counted direct call *)

(* Submit every prepared row, one at a time. *)
let submit_all srv ~net preps = Array.map (Nn.Infer.submit srv ~net) preps

let test_single_worker_direct () =
  let m = 3 in
  let net = tiny_net ~m () in
  let g = random_graph ~seed:11 ~n:6 ~m in
  let preps = leaves net g in
  let direct = Nn.Pvnet.predict_prepared net preps in
  let srv = Nn.Infer.create ~max_batch:4 ~wait_us:0 ~workers:1 () in
  check_results "single worker = direct predict_prepared" direct
    (submit_all srv ~net preps);
  (* each row is one counted forward, and nothing waits *)
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "rows = leaves" (Array.length preps)
    s.Nn.Infer.rows;
  Alcotest.(check int) "one batch per row" s.Nn.Infer.rows
    s.Nn.Infer.batches;
  Alcotest.(check int) "no timeout flush" 0 s.Nn.Infer.timeout_flushes;
  Alcotest.(check (float 0.0)) "no wait" 0.0 s.Nn.Infer.wait_p99_us

(* Spin until [cond ()] holds or [seconds] pass; whether it held. *)
let wait_until ~seconds cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* On a two-worker service, worker B is stalled (it never submits
   until released) while worker A submits.  A's submits must return with
   B still stalled: no rule may park a row until the other worker
   submits too.  The 10 s [wait_us] would hold a row far past the 5 s
   check under any such rule. *)
let test_submit_never_waits () =
  let m = 3 in
  let net = tiny_net ~m () in
  let other = Nn.Pvnet.clone net in
  let preps = leaves net (random_graph ~seed:13 ~n:5 ~m) in
  let preps_b = leaves other (random_graph ~seed:14 ~n:5 ~m) in
  let srv = Nn.Infer.create ~max_batch:64 ~wait_us:10_000_000 ~workers:2 () in
  let release = Atomic.make false and a_done = Atomic.make false in
  let b =
    Domain.spawn (fun () ->
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done;
        submit_all srv ~net:other preps_b)
  in
  let a =
    Domain.spawn (fun () ->
        let r = submit_all srv ~net preps in
        Atomic.set a_done true;
        r)
  in
  let returned = wait_until ~seconds:5.0 (fun () -> Atomic.get a_done) in
  Atomic.set release true;
  let ra = Domain.join a and rb = Domain.join b in
  Alcotest.(check bool) "A's submits returned while B was stalled" true
    returned;
  check_results "A's rows = direct" (Nn.Pvnet.predict_prepared net preps) ra;
  check_results "B's rows = direct"
    (Nn.Pvnet.predict_prepared other preps_b)
    rb;
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "rows"
    (Array.length preps + Array.length preps_b)
    s.Nn.Infer.rows;
  Alcotest.(check int) "one batch per row" s.Nn.Infer.rows
    s.Nn.Infer.batches

(* Rows prepared under an m = 5 net are wider than an m = 3 net reads,
   so their forward raises.  The exception reaches its submitter only:
   the other worker's rows, submitted at the same time, are served, and
   so is every row after the failure. *)
let test_forward_exception_reaches_only_its_submitter () =
  let m = 3 in
  let base = tiny_net ~m () in
  let other = tiny_net ~seed:4 ~m:5 () in
  let w_good = leaves base (random_graph ~seed:31 ~n:5 ~m) in
  let w_bad = leaves other (random_graph ~seed:32 ~n:5 ~m:5) in
  with_pool ~domains:2 (fun pool ->
      let srv = Nn.Infer.create ~workers:2 () in
      let replicas = [| base; Nn.Pvnet.clone base |] in
      let outcomes =
        Par.Pool.map pool [| w_good; w_bad |] ~f:(fun ~worker w ->
            match submit_all srv ~net:replicas.(worker) w with
            | r -> Some r
            | exception Invalid_argument _ -> None)
      in
      (match outcomes.(0) with
      | Some r ->
          check_results "the good rows = direct"
            (Nn.Pvnet.predict_prepared base w_good)
            r
      | None -> Alcotest.fail "the good rows saw the other's exception");
      Alcotest.(check bool) "the bad rows raised" true (outcomes.(1) = None);
      let w2 = leaves base (random_graph ~seed:33 ~n:5 ~m) in
      let direct = Nn.Pvnet.predict_prepared base w2 in
      let again =
        Par.Pool.map pool [| 0; 1 |] ~f:(fun ~worker _ ->
            submit_all srv ~net:replicas.(worker) w2)
      in
      Array.iter (fun r -> check_results "post-failure submit" direct r) again;
      let s = Nn.Infer.stats srv in
      Alcotest.(check int) "the failed row is not counted"
        (Array.length w_good + (2 * Array.length w2))
        s.Nn.Infer.batches)

(* The CLI path: a solve on a one-worker service (what pbqp_solve,
   minicc and atec get, since a solve given no service creates one)
   sends every cache miss through the service as a counted direct call,
   so test_wire's daemon row identity holds here too. *)
let test_one_worker_solve_counts_every_row () =
  let machine = Ate.Machine.default in
  let g =
    (Ate.Pbqp_build.build machine
       (Ate.Program.analyze_exn (Ate.Progen.pro ~machine 1)))
      .Ate.Pbqp_build.graph
  in
  let net = tiny_net ~m:(Graph.m g) () in
  let cache = Nn.Cache.striped ~stripes:1 ~capacity:4096 in
  let serve = Nn.Infer.create ~workers:1 () in
  let e0 = Nn.Pvnet.eval_count net in
  (* the second, identical solve is answered from the cache *)
  for _ = 1 to 2 do
    ignore
      (Core.Solver.solve_feasible ~net
         ~mcts:{ Mcts.default_config with k = 8 }
         ~max_backtracks:20 ~cache ~serve g)
  done;
  let s = Nn.Infer.stats serve and c = Nn.Cache.stats cache in
  let lookups = c.Nn.Evalcache.hits + c.Nn.Evalcache.misses in
  Alcotest.(check bool) "leaves were evaluated" true (s.Nn.Infer.rows > 0);
  Alcotest.(check bool) "the cache answered some" true
    (c.Nn.Evalcache.hits > 0);
  Alcotest.(check int) "infer rows = forward rows"
    (Nn.Pvnet.eval_count net - e0) s.Nn.Infer.rows;
  Alcotest.(check int) "infer rows = leaf lookups - cache hits"
    (lookups - c.Nn.Evalcache.hits) s.Nn.Infer.rows

let test_infer_validations () =
  Alcotest.check_raises "max_batch positive"
    (Invalid_argument "Infer.create: max_batch <= 0") (fun () ->
      ignore (Nn.Infer.create ~max_batch:0 ~workers:2 ()));
  Alcotest.check_raises "workers positive"
    (Invalid_argument "Infer.create: workers <= 0") (fun () ->
      ignore (Nn.Infer.create ~workers:0 ()));
  Alcotest.check_raises "wait_us non-negative"
    (Invalid_argument "Infer.create: wait_us < 0") (fun () ->
      ignore (Nn.Infer.create ~wait_us:(-1) ~workers:2 ()))

(* ------------------------------------------------------------------ *)
(* Episode equivalence: one worker = service x pool size x cache *)

let samples_identical sa sb =
  List.length sa = List.length sb
  && List.for_all2
       (fun (a : Nn.Pvnet.sample) (b : Nn.Pvnet.sample) ->
         Io.frozen_to_string a.Nn.Pvnet.instance
         = Io.frozen_to_string b.Nn.Pvnet.instance
         && a.next = b.next
         && Array.for_all2 bits_eq a.policy b.policy
         && bits_eq a.value b.value)
       sa sb

let episode_cfg =
  {
    Core.Episode.default_config with
    Core.Episode.mcts = { Mcts.default_config with k = 8 };
  }

let play_episode ?cache ~serve ~net i g =
  Core.Episode.play ~collect:true ?cache ~serve ~rng:(rng (100 + i)) ~net
    ~mode:Core.Game.Feasibility episode_cfg (Core.Istate.of_graph g)

(* A lone episode on a two-worker service: each leaf is evaluated
   directly, as its own batch, and nothing waits on a timer. *)
let test_lone_episode_flushes_by_quorum () =
  let m = 3 in
  let net = tiny_net ~m () in
  let srv = Nn.Infer.create ~max_batch:64 ~workers:2 () in
  let e0 = Nn.Pvnet.eval_count net in
  ignore (play_episode ~serve:srv ~net 0 (random_graph ~seed:61 ~n:6 ~m));
  let s = Nn.Infer.stats srv in
  Alcotest.(check bool) "the episode was served" true (s.Nn.Infer.batches > 0);
  Alcotest.(check int) "no timeout flush" 0 s.Nn.Infer.timeout_flushes;
  Alcotest.(check int) "every forward row counted"
    (Nn.Pvnet.eval_count net - e0) s.Nn.Infer.rows

let check_episode_runs ~msg reference outcomes =
  List.iteri
    (fun i ((oa, sa), (ob, sb)) ->
      let msg = Printf.sprintf "%s (episode %d)" msg i in
      if not (bits_eq oa.Core.Episode.cost ob.Core.Episode.cost) then
        Alcotest.failf "%s: costs differ" msg;
      if oa.Core.Episode.nodes <> ob.Core.Episode.nodes then
        Alcotest.failf "%s: node counts differ" msg;
      (match (oa.Core.Episode.solution, ob.Core.Episode.solution) with
      | None, None -> ()
      | Some a, Some b when Solution.equal a b -> ()
      | _ -> Alcotest.failf "%s: solutions differ" msg);
      if not (samples_identical sa sb) then
        Alcotest.failf "%s: samples differ" msg)
    (List.combine (Array.to_list reference) (Array.to_list outcomes))

let test_episodes_bitwise_under_service () =
  let m = 3 in
  let episodes = 6 in
  let base = tiny_net ~m () in
  let graphs =
    Array.init episodes (fun i -> random_graph ~seed:(40 + i) ~n:7 ~m)
  in
  let reference =
    let serve = Nn.Infer.create ~workers:1 () in
    Array.mapi (fun i g -> play_episode ~serve ~net:base i g) graphs
  in
  List.iter
    (fun domains ->
      List.iter
        (fun cached ->
          with_pool ~domains (fun pool ->
              let nw = Par.Pool.size pool in
              let replicas =
                Array.init nw (fun w ->
                    if w = 0 then base else Nn.Pvnet.clone base)
              in
              let serve =
                Nn.Infer.create ~max_batch:8 ~wait_us:200 ~workers:nw ()
              in
              let cache =
                if cached then Some (Nn.Cache.striped ~stripes:4 ~capacity:4096)
                else None
              in
              let outcomes =
                Par.Pool.map pool (Array.init episodes Fun.id)
                  ~f:(fun ~worker i ->
                    play_episode ?cache ~serve ~net:replicas.(worker) i
                      graphs.(i))
              in
              check_episode_runs
                ~msg:(Printf.sprintf "j=%d cache=%b" domains cached)
                reference outcomes))
        [ false; true ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Striped cache under concurrent domains *)

let test_striped_cache_consistent_under_domains () =
  let sc = Nn.Cache.striped ~stripes:4 ~capacity:64 in
  let workers = 4 in
  let ops = 4_000 in
  (* entries encode their own key: any torn or cross-wired read surfaces
     as an internally inconsistent tuple *)
  let entry h next =
    ([| float_of_int h; float_of_int next |], float_of_int (h + next))
  in
  with_pool ~domains:workers (fun pool ->
      let bad = Array.make workers 0 in
      let finds = Array.make workers 0 in
      let hits = Array.make workers 0 in
      Par.Pool.run pool
        (Array.init workers (fun i _ ->
             let r = rng (900 + i) in
             for _ = 1 to ops do
               (* a small key space forces collisions and LRU churn *)
               let h = Random.State.int r 97 in
               let next = Random.State.int r 5 in
               if Random.State.bool r then
                 Nn.Cache.store sc ~version:1 (h, next) (entry h next)
               else begin
                 finds.(i) <- finds.(i) + 1;
                 match Nn.Cache.find sc ~version:1 (h, next) with
                 | None -> ()
                 | Some (p, v) ->
                     hits.(i) <- hits.(i) + 1;
                     if
                       Array.length p <> 2
                       || not (bits_eq p.(0) (float_of_int h))
                       || not (bits_eq p.(1) (float_of_int next))
                       || not (bits_eq v (float_of_int (h + next)))
                     then bad.(i) <- bad.(i) + 1
               end
             done));
      Alcotest.(check (array int)) "no torn or cross-wired reads"
        (Array.make workers 0) bad;
      let s = Nn.Cache.stats sc in
      let total_finds = Array.fold_left ( + ) 0 finds in
      let total_hits = Array.fold_left ( + ) 0 hits in
      Alcotest.(check int) "shard counters account for every find"
        total_finds
        (s.Nn.Evalcache.hits + s.Nn.Evalcache.misses);
      Alcotest.(check int) "shard hit counters agree" total_hits
        s.Nn.Evalcache.hits;
      Alcotest.(check bool) "capacity respected" true
        (s.Nn.Evalcache.size <= 64);
      Alcotest.(check int) "stripes rounded to a power of two" 4
        (Nn.Cache.stripes sc))

let test_striped_cache_version_and_stats () =
  let sc = Nn.Cache.striped ~stripes:3 (* rounds to 4 *) ~capacity:16 in
  Alcotest.(check int) "rounded up" 4 (Nn.Cache.stripes sc);
  Nn.Cache.store sc ~version:1 (7, 0) ([| 0.5 |], 0.25);
  Alcotest.(check bool) "hit under the same version" true
    (Nn.Cache.find sc ~version:1 (7, 0) <> None);
  Alcotest.(check bool) "stale version misses" true
    (Nn.Cache.find sc ~version:2 (7, 0) = None);
  let s = Nn.Cache.stats sc in
  Alcotest.(check int) "one hit" 1 s.Nn.Evalcache.hits;
  Alcotest.(check int) "one miss" 1 s.Nn.Evalcache.misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Nn.Cache.hit_rate sc);
  Nn.Cache.clear sc;
  Alcotest.(check int) "clear empties" 0 (Nn.Cache.stats sc).Nn.Evalcache.size

(* ------------------------------------------------------------------ *)
(* Whole training run: j1 = j2 = j4 with a smaller row budget, bit for
   bit *)

let params_identical a b =
  List.for_all2
    (fun (x : Nn.Var.t) (y : Nn.Var.t) ->
      tensor_bits_equal x.Nn.Var.value y.Nn.Var.value)
    (Nn.Pvnet.params a) (Nn.Pvnet.params b)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_training_invariant_under_service () =
  let m = 3 in
  let dir = Filename.temp_file "serverun" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let run ~label ~domains ~serve_batch =
    let prefix = Filename.concat dir label in
    let cfg =
      {
        (Core.Train.default_config ~m) with
        iterations = 2;
        episodes_per_iteration = 3;
        domains;
        eval_cache = 512;
        cache_stripes = 4;
        serve_batch;
        serve_wait_us = 200;
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
    let net = Core.Train.run ~rng:(rng 5) cfg in
    (net, read_file (prefix ^ ".replay.txt"))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let net0, replay0 = run ~label:"j1" ~domains:1 ~serve_batch:16 in
      List.iter
        (fun (label, domains, serve_batch) ->
          let net, replay = run ~label ~domains ~serve_batch in
          Alcotest.(check string)
            (label ^ ": replay identical, byte for byte")
            replay0 replay;
          Alcotest.(check bool)
            (label ^ ": final net identical, bit for bit")
            true (params_identical net0 net))
        [ ("serve-j2", 2, 16); ("serve-j4-b4", 4, 4) ])

(* A row budget of 0 is no longer a mode: the run refuses it before it
   generates (let alone plays) any episode. *)
let test_training_rejects_zero_serve_batch () =
  let generated = ref 0 in
  let cfg =
    {
      (Core.Train.default_config ~m:3) with
      serve_batch = 0;
      instance_generator =
        Some
          (fun ~rng ->
            incr generated;
            random_graph ~seed:(Random.State.bits rng) ~n:4 ~m:3);
    }
  in
  Alcotest.check_raises "serve_batch 0"
    (Invalid_argument "Train.run: serve_batch <= 0") (fun () ->
      ignore (Core.Train.run ~rng:(rng 5) cfg));
  Alcotest.(check int) "no episode generated" 0 !generated

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "single worker = direct" `Quick
            test_single_worker_direct;
          Alcotest.test_case "a submit never waits on another worker" `Quick
            test_submit_never_waits;
          Alcotest.test_case "a forward exception reaches only its submitter"
            `Quick test_forward_exception_reaches_only_its_submitter;
          Alcotest.test_case "one-worker solve counts every row" `Quick
            test_one_worker_solve_counts_every_row;
          Alcotest.test_case "validations" `Quick test_infer_validations;
        ] );
      ( "episodes",
        [
          Alcotest.test_case "lone episode flushes by quorum" `Quick
            test_lone_episode_flushes_by_quorum;
          Alcotest.test_case
            "episodes bitwise: service x pool size x cache" `Slow
            test_episodes_bitwise_under_service;
        ] );
      ( "striped-cache",
        [
          Alcotest.test_case "consistent under 4 domains" `Quick
            test_striped_cache_consistent_under_domains;
          Alcotest.test_case "version + stats plumbing" `Quick
            test_striped_cache_version_and_stats;
        ] );
      ( "training-run",
        [
          Alcotest.test_case "serve on = serve off (replay + weights)"
            `Slow test_training_invariant_under_service;
          Alcotest.test_case "serve_batch 0 rejected before any episode"
            `Quick test_training_rejects_zero_serve_batch;
        ] );
    ]
