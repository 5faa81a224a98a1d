(* Tests for the cross-worker dynamic-batching inference service
   (Nn.Infer) and the shared striped evaluation cache (Nn.Cache):
   ticket-protocol semantics (single-worker fast path, full-batch
   coalescing, timeout flushes, quorum flushes of registered searches,
   oversized waves never split, first-exn propagation to every
   submitter of a failed batch), bitwise episode
   equivalence across {direct, service} x pool sizes x {cache off, on},
   striped-cache consistency under concurrent domains, and a whole
   training run with the service on vs off. *)

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

(* One prepared leaf per vertex of [g] — a stand-in for an MCTS wave. *)
let wave net g =
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
(* Ticket protocol *)

let test_single_worker_direct () =
  let m = 3 in
  let net = tiny_net ~m () in
  let g = random_graph ~seed:11 ~n:6 ~m in
  let preps = wave net g in
  let direct = Nn.Pvnet.predict_prepared net preps in
  let srv = Nn.Infer.create ~max_batch:4 ~wait_us:0 ~workers:1 () in
  check_results "single worker = direct predict_prepared" direct
    (Nn.Infer.submit srv ~net preps);
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "fast path counts no batches" 0 s.Nn.Infer.batches;
  Alcotest.(check int) "fast path counts no rows" 0 s.Nn.Infer.rows;
  Alcotest.(check int) "empty submit" 0
    (Array.length (Nn.Infer.submit srv ~net [||]))

let test_coalesces_full_batch () =
  let m = 3 in
  let base = tiny_net ~m () in
  with_pool ~domains:4 (fun pool ->
      let nw = Par.Pool.size pool in
      let replicas =
        Array.init nw (fun w -> if w = 0 then base else Nn.Pvnet.clone base)
      in
      let graphs = Array.init nw (fun i -> random_graph ~seed:(20 + i) ~n:5 ~m) in
      let waves = Array.init nw (fun i -> wave base graphs.(i)) in
      let rows = Array.fold_left (fun a w -> a + Array.length w) 0 waves in
      let direct =
        Array.map (fun w -> Nn.Pvnet.predict_prepared base w) waves
      in
      (* wait far above any plausible scheduling delay: each of the nw
         submitters blocks until its ticket is answered, so no worker can
         take a second task, and the only possible flush before the (huge)
         timeout is the full one that coalesces all nw waves *)
      let srv =
        Nn.Infer.create ~max_batch:rows ~wait_us:5_000_000 ~workers:nw ()
      in
      let served =
        Par.Pool.map pool (Array.init nw Fun.id) ~f:(fun ~worker i ->
            Nn.Infer.submit srv ~net:replicas.(worker) waves.(i))
      in
      Array.iteri
        (fun i r ->
          check_results
            (Printf.sprintf "wave %d coalesced = direct (bitwise)" i)
            direct.(i) r)
        served;
      let s = Nn.Infer.stats srv in
      Alcotest.(check int) "one coalesced batch" 1 s.Nn.Infer.batches;
      Alcotest.(check int) "all rows in it" rows s.Nn.Infer.rows;
      Alcotest.(check int) "flushed full" 1 s.Nn.Infer.full_flushes;
      Alcotest.(check int) "largest batch" rows s.Nn.Infer.max_batch_rows)

let test_partial_wave_flushes_on_timeout () =
  let m = 3 in
  let net = tiny_net ~m () in
  let g = random_graph ~seed:13 ~n:5 ~m in
  let preps = wave net g in
  let direct = Nn.Pvnet.predict_prepared net preps in
  (* workers:2 forces the queue path, but nobody else ever submits: the
     lone ticket can only leave via the wait_us expiry, served by its own
     submitter *)
  let srv = Nn.Infer.create ~max_batch:64 ~wait_us:3_000 ~workers:2 () in
  check_results "timeout-flushed wave = direct" direct
    (Nn.Infer.submit srv ~net preps);
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "one batch" 1 s.Nn.Infer.batches;
  Alcotest.(check int) "flushed by timeout" 1 s.Nn.Infer.timeout_flushes;
  Alcotest.(check int) "not full" 0 s.Nn.Infer.full_flushes;
  Alcotest.(check int) "rows" (Array.length preps) s.Nn.Infer.rows

let test_oversized_wave_never_split () =
  let m = 3 in
  let net = tiny_net ~m () in
  let g = random_graph ~seed:17 ~n:7 ~m in
  let preps = wave net g in
  let direct = Nn.Pvnet.predict_prepared net preps in
  let srv = Nn.Infer.create ~max_batch:2 ~wait_us:1_000 ~workers:2 () in
  check_results "oversized wave runs whole" direct
    (Nn.Infer.submit srv ~net preps);
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "one batch despite the budget" 1 s.Nn.Infer.batches;
  Alcotest.(check int) "all rows together" (Array.length preps)
    s.Nn.Infer.max_batch_rows

let test_server_exception_propagates () =
  let m = 3 in
  let base = tiny_net ~m () in
  let other = tiny_net ~seed:4 ~m:5 () in
  let w_good = wave base (random_graph ~seed:31 ~n:5 ~m) in
  (* rows prepared under an m=5 net are wider than the m=3 server
     expects: whichever ticket heads the batch, the coalesced forward
     raises, and EVERY submitter of the batch must re-raise *)
  let w_bad = wave other (random_graph ~seed:32 ~n:5 ~m:5) in
  with_pool ~domains:2 (fun pool ->
      let rows = Array.length w_good + Array.length w_bad in
      let srv =
        Nn.Infer.create ~max_batch:rows ~wait_us:5_000_000 ~workers:2 ()
      in
      let replicas = [| base; Nn.Pvnet.clone base |] in
      let raised =
        Par.Pool.map pool [| w_good; w_bad |] ~f:(fun ~worker w ->
            match Nn.Infer.submit srv ~net:replicas.(worker) w with
            | _ -> false
            | exception Invalid_argument _ -> true)
      in
      Alcotest.(check (array bool)) "both submitters see the failure"
        [| true; true |] raised;
      (* the service survives a failed batch: two good waves coalesce *)
      let g2 = random_graph ~seed:33 ~n:5 ~m in
      let w2 = wave base g2 in
      let direct = Nn.Pvnet.predict_prepared base w2 in
      let srv2 =
        Nn.Infer.create ~max_batch:(2 * Array.length w2) ~wait_us:5_000_000
          ~workers:2 ()
      in
      let again =
        Par.Pool.map pool [| 0; 1 |] ~f:(fun ~worker _ ->
            Nn.Infer.submit srv2 ~net:replicas.(worker) w2)
      in
      Array.iter (fun r -> check_results "post-failure submit" direct r) again)

(* Regression for the daemon-wedging failure mode: an exception raised
   in the server's result-DISTRIBUTION phase (after the forward, lock
   held) used to propagate with [serving] still set, parking every other
   submitter in Condition.wait forever.  The poison hook injects exactly
   that; every ticket of the batch must re-raise, and the service must
   keep working afterwards. *)
let test_poisoned_batch_releases_every_waiter () =
  let m = 3 in
  let base = tiny_net ~m () in
  with_pool ~domains:3 (fun pool ->
      let nw = Par.Pool.size pool in
      let replicas =
        Array.init nw (fun w -> if w = 0 then base else Nn.Pvnet.clone base)
      in
      let waves =
        Array.init nw (fun i -> wave base (random_graph ~seed:(70 + i) ~n:5 ~m))
      in
      let rows = Array.fold_left (fun a w -> a + Array.length w) 0 waves in
      (* one full batch holding every wave: all nw submitters have
         tickets in the poisoned batch, most of them parked waiters *)
      let srv =
        Nn.Infer.create ~max_batch:rows ~wait_us:5_000_000 ~workers:nw ()
      in
      let exception Poison in
      Nn.Infer.poison_next_batch_for_test srv Poison;
      let outcomes =
        Par.Pool.map pool (Array.init nw Fun.id) ~f:(fun ~worker i ->
            match Nn.Infer.submit srv ~net:replicas.(worker) waves.(i) with
            | _ -> false
            | exception Poison -> true)
      in
      Alcotest.(check (array bool)) "poison fans out to every submitter"
        (Array.make nw true) outcomes;
      (* not wedged: the poison is one-shot, the serving flag cleared,
         the broadcast happened — the same waves now evaluate bitwise *)
      let direct = Array.map (Nn.Pvnet.predict_prepared base) waves in
      let again =
        Par.Pool.map pool (Array.init nw Fun.id) ~f:(fun ~worker i ->
            Nn.Infer.submit srv ~net:replicas.(worker) waves.(i))
      in
      Array.iteri
        (fun i r -> check_results "post-poison submit bitwise" direct.(i) r)
        again;
      let s = Nn.Infer.stats srv in
      Alcotest.(check bool) "batches kept being served" true
        (s.Nn.Infer.batches >= 2))

(* Spin until [n] parties have arrived at [count]. *)
let barrier count n =
  Atomic.incr count;
  while Atomic.get count < n do
    Domain.cpu_relax ()
  done

(* The quorum rule, deterministically: k registered searches each park
   one ticket after a barrier, so the k-th arrival completes the quorum.
   The row budget and the 5 s cap are out of reach, so exactly one batch
   of all k tickets forms and it can only be a quorum flush. *)
let test_quorum_flushes_lockstepped_searches () =
  let m = 3 in
  let base = tiny_net ~m () in
  List.iter
    (fun k ->
      with_pool ~domains:k (fun pool ->
          let replicas =
            Array.init k (fun w -> if w = 0 then base else Nn.Pvnet.clone base)
          in
          let waves =
            Array.init k (fun i ->
                wave base (random_graph ~seed:(80 + i) ~n:5 ~m))
          in
          let rows = Array.fold_left (fun a w -> a + Array.length w) 0 waves in
          let srv =
            Nn.Infer.create ~max_batch:(rows + 1) ~wait_us:5_000_000
              ~workers:k ()
          in
          let registered = Atomic.make 0 in
          let served =
            Par.Pool.map pool (Array.init k Fun.id) ~f:(fun ~worker i ->
                Nn.Infer.with_search srv (fun () ->
                    barrier registered k;
                    Nn.Infer.submit srv ~net:replicas.(worker) waves.(i)))
          in
          Array.iteri
            (fun i r ->
              check_results
                (Printf.sprintf "k=%d wave %d = direct (bitwise)" k i)
                (Nn.Pvnet.predict_prepared base waves.(i))
                r)
            served;
          let s = Nn.Infer.stats srv in
          let label what = Printf.sprintf "k=%d: %s" k what in
          Alcotest.(check int) (label "one batch") 1 s.Nn.Infer.batches;
          Alcotest.(check int) (label "k tickets in it") k s.Nn.Infer.waits;
          Alcotest.(check int) (label "all rows in it") rows s.Nn.Infer.rows;
          Alcotest.(check int) (label "quorum flush") 1
            s.Nn.Infer.quorum_flushes;
          Alcotest.(check int) (label "no full flush") 0
            s.Nn.Infer.full_flushes;
          Alcotest.(check int) (label "no timeout flush") 0
            s.Nn.Infer.timeout_flushes))
    [ 2; 4 ]

(* A registered search whose batch fails re-raises out of [with_search]
   and is deregistered: the next lone registered search is its own
   quorum and never waits for the 5 s cap. *)
let test_failed_search_deregisters () =
  let m = 3 in
  let net = tiny_net ~m () in
  let preps = wave net (random_graph ~seed:91 ~n:5 ~m) in
  let srv = Nn.Infer.create ~max_batch:64 ~wait_us:5_000_000 ~workers:2 () in
  let exception Poison in
  Nn.Infer.poison_next_batch_for_test srv Poison;
  (match
     Nn.Infer.with_search srv (fun () -> Nn.Infer.submit srv ~net preps)
   with
  | _ -> Alcotest.fail "poisoned batch returned"
  | exception Poison -> ());
  check_results "lone registered search after a failure"
    (Nn.Pvnet.predict_prepared net preps)
    (Nn.Infer.with_search srv (fun () -> Nn.Infer.submit srv ~net preps));
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "both batches by quorum" 2 s.Nn.Infer.quorum_flushes;
  Alcotest.(check int) "no timeout flush" 0 s.Nn.Infer.timeout_flushes

(* Two registered searches; A parks a ticket, B leaves without ever
   submitting.  B's release completes A's quorum, so A is served well
   before the 5 s cap. *)
let test_leave_completes_quorum () =
  let m = 3 in
  let net = tiny_net ~m () in
  let preps = wave net (random_graph ~seed:93 ~n:5 ~m) in
  let srv = Nn.Infer.create ~max_batch:64 ~wait_us:5_000_000 ~workers:2 () in
  let registered = Atomic.make 0 in
  let b =
    Domain.spawn (fun () ->
        Nn.Infer.with_search srv (fun () ->
            barrier registered 2;
            (* give A time to park; if it has not yet, A arrives alone
               and is its own quorum — served by quorum either way *)
            Unix.sleepf 0.05))
  in
  let r =
    Nn.Infer.with_search srv (fun () ->
        barrier registered 2;
        Nn.Infer.submit srv ~net preps)
  in
  Domain.join b;
  check_results "A's wave = direct" (Nn.Pvnet.predict_prepared net preps) r;
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "served by quorum" 1 s.Nn.Infer.quorum_flushes;
  Alcotest.(check int) "not by the timer" 0 s.Nn.Infer.timeout_flushes

(* The wait quantiles read back the upper bound of a quarter-octave
   bucket: never below the planted wait, and above it by less than
   2^(1/4).  Half the tickets wait 10 µs, so p50 reads the 10 µs
   bucket; the slowest 5 wait 3 ms, so p99 reads theirs. *)
let test_wait_histogram_readback () =
  let srv = Nn.Infer.create ~workers:2 () in
  List.iter
    (fun (count, us) ->
      for _ = 1 to count do
        Nn.Infer.plant_wait_for_test srv ~us
      done)
    [ (50, 10.0); (45, 100.0); (5, 3000.0) ];
  let s = Nn.Infer.stats srv in
  Alcotest.(check int) "waits counted" 100 s.Nn.Infer.waits;
  let within what planted read =
    if not (read > planted && read <= planted *. Float.pow 2.0 0.25) then
      Alcotest.failf "%s: read %g for a planted %g us, want (%g, %g]" what
        read planted planted
        (planted *. Float.pow 2.0 0.25)
  in
  within "p50" 10.0 s.Nn.Infer.wait_p50_us;
  within "p99" 3000.0 s.Nn.Infer.wait_p99_us

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
(* Episode equivalence: {direct} = {service} x pool size x cache *)

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
    Core.Episode.mcts = { Mcts.default_config with k = 8; batch = 4 };
  }

let play_episode ?cache ?serve ~net i g =
  Core.Episode.play ~collect:true ?cache ?serve ~rng:(rng (100 + i)) ~net
    ~mode:Core.Game.Feasibility episode_cfg (Core.Istate.of_graph g)

(* A lone episode on a two-worker service registers as a search, so
   each of its waves is its own quorum and no batch waits out the
   timer. *)
let test_lone_episode_flushes_by_quorum () =
  let m = 3 in
  let net = tiny_net ~m () in
  let srv = Nn.Infer.create ~max_batch:64 ~workers:2 () in
  ignore (play_episode ~serve:srv ~net 0 (random_graph ~seed:61 ~n:6 ~m));
  let s = Nn.Infer.stats srv in
  Alcotest.(check bool) "the episode was served" true (s.Nn.Infer.batches > 0);
  Alcotest.(check int) "no timeout flush" 0 s.Nn.Infer.timeout_flushes;
  Alcotest.(check int) "every batch by quorum" s.Nn.Infer.batches
    s.Nn.Infer.quorum_flushes

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
  let reference = Array.mapi (fun i g -> play_episode ~net:base i g) graphs in
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
(* Whole training run: serve on = serve off, bit for bit *)

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
      let net0, replay0 = run ~label:"off" ~domains:2 ~serve_batch:0 in
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

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "single worker = direct" `Quick
            test_single_worker_direct;
          Alcotest.test_case "full batch coalesces" `Quick
            test_coalesces_full_batch;
          Alcotest.test_case "partial wave flushes on timeout" `Quick
            test_partial_wave_flushes_on_timeout;
          Alcotest.test_case "oversized wave never split" `Quick
            test_oversized_wave_never_split;
          Alcotest.test_case "server exception reaches every submitter"
            `Quick test_server_exception_propagates;
          Alcotest.test_case "poisoned batch releases every waiter" `Quick
            test_poisoned_batch_releases_every_waiter;
          Alcotest.test_case "quorum flushes lock-stepped searches" `Quick
            test_quorum_flushes_lockstepped_searches;
          Alcotest.test_case "failed search deregisters" `Quick
            test_failed_search_deregisters;
          Alcotest.test_case "leave completes the quorum" `Quick
            test_leave_completes_quorum;
          Alcotest.test_case "wait histogram quarter-octave readback" `Quick
            test_wait_histogram_readback;
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
        ] );
    ]
