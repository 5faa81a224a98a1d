(* CLI: train a policy/value network, up to the paper's schedule (200
   iterations x 100 episodes, graphs of ~100 vertices, k_train 50-100 —
   expect a long run at that scale).

   Distributed mode: [--actors N] re-executes this binary N times with
   [--actor], wiring each child's stdin/stdout to the learner as a
   framed message channel (Dist).  The children parse the same command
   line (minus the learner-only flags), so learner and actors agree on
   the training config by construction. *)

open Cmdliner

(* The original argv without [--manifest]: the actor re-exec appends its
   own [--manifest] (cmdliner rejects repeated options).  Handles both
   the [--manifest PATH] and [--manifest=PATH] spellings. *)
let argv_without_manifest () =
  let rec go = function
    | [] -> []
    | "--manifest" :: _ :: rest -> go rest
    | a :: rest when String.length a > 11 && String.sub a 0 11 = "--manifest=" ->
        go rest
    | a :: rest -> a :: go rest
  in
  go (Array.to_list Sys.argv)

let spawn_actor ~manifest_path pids ~manifest ~actor =
  Dist.Manifest.save manifest manifest_path;
  let child_stdin_r, child_stdin_w = Unix.pipe ~cloexec:false () in
  let child_stdout_r, child_stdout_w = Unix.pipe ~cloexec:false () in
  Unix.set_close_on_exec child_stdin_w;
  Unix.set_close_on_exec child_stdout_r;
  let argv =
    Array.of_list
      (argv_without_manifest ()
      @ [ "--actor"; "--actor-id"; string_of_int actor; "--manifest";
          manifest_path ])
  in
  let pid =
    Unix.create_process Sys.executable_name argv child_stdin_r child_stdout_w
      Unix.stderr
  in
  Unix.close child_stdin_r;
  Unix.close child_stdout_w;
  pids := pid :: !pids;
  (child_stdout_r, child_stdin_w)

let run m iterations episodes k_train n_mean p_edge p_inf zero_inf planted
    ate batch batch_leaves eval_cache serve_batch serve_wait_us
    cache_stripes replay domains check checkpoint
    pretrain_labels actors actor actor_id manifest stale_decay dist_pipeline
    replay_shards seed out =
  let instance_generator =
    if ate then
      Some
        (fun ~rng ->
          let target = 16 + Random.State.int rng 30 in
          let p = Ate.Progen.generate ~rng ~target_vregs:target () in
          let info = Ate.Program.analyze_exn p in
          (Ate.Pbqp_build.build Ate.Machine.default info).Ate.Pbqp_build.graph)
    else None
  in
  let cfg =
    {
      (Core.Train.default_config ~m) with
      iterations;
      episodes_per_iteration = episodes;
      graph =
        { Pbqp.Generate.default with m; p_edge; p_inf; zero_inf;
          cost_max = 30.0 };
      n_mean;
      n_stddev = n_mean /. 4.0;
      mcts = { Mcts.default_config with k = k_train; batch = batch_leaves };
      planted;
      batch_size = batch;
      eval_cache;
      serve_batch;
      serve_wait_us;
      cache_stripes;
      replay_capacity = replay;
      domains;
      check;
      checkpoint;
      instance_generator;
      pretrain_labels;
    }
  in
  if actor then
    (* actor mode: stdin/stdout are the learner's framed channel — no
       prints, no checkpoints, no rng of our own (everything derives
       from the manifest) *)
    let manifest =
      match manifest with
      | Some path -> Dist.Manifest.load path
      | None -> failwith "train: --actor requires --manifest"
    in
    Dist.Actor.run ~config:cfg ~manifest ~actor:actor_id ~in_fd:Unix.stdin
      ~out_fd:Unix.stdout
  else begin
    let make_source =
      if actors <= 0 then None
      else begin
        let manifest_path =
          match manifest with
          | Some path -> path
          | None -> Filename.temp_file "pbqp-manifest" ".txt"
        in
        let pids = ref [] in
        Some
          (Dist.Learner.source ~config:cfg ~actors
             ?shards:(if replay_shards > 0 then Some replay_shards else None)
             ~stale_decay ~pipeline:dist_pipeline
             ~on_shutdown:(fun () ->
               List.iter
                 (fun pid -> ignore (Unix.waitpid [] pid : int * Unix.process_status))
                 !pids)
             ~launch:(spawn_actor ~manifest_path pids)
             ())
      end
    in
    let t0 = Unix.gettimeofday () in
    let net =
      Core.Train.run
        ~on_iteration:(fun p ->
          Printf.printf
            "iter %3d/%d  loss=%.4f  arena wins/ties=%d/%d  kept=%b  \
             replay=%d  failed=%d  (%.0fs)\n%!"
            p.Core.Train.iteration iterations p.mean_loss p.arena_wins
            p.arena_ties p.kept p.replay_size p.episodes_failed
            (Unix.gettimeofday () -. t0))
        ?make_source
        ~rng:(Random.State.make [| seed |])
        cfg
    in
    Nn.Pvnet.save net out;
    Printf.printf "saved %s (%d parameters) after %.0fs\n" out
      (Nn.Pvnet.param_count net)
      (Unix.gettimeofday () -. t0)
  end

let () =
  let m = Arg.(value & opt int 13 & info [ "m" ] ~doc:"number of colors") in
  let iterations =
    Arg.(value & opt int 20 & info [ "iterations"; "i" ] ~doc:"paper: 200")
  in
  let episodes =
    Arg.(value & opt int 12 & info [ "episodes"; "e" ] ~doc:"per iteration; paper: 100")
  in
  let k_train =
    Arg.(value & opt int 25 & info [ "k-train"; "k" ] ~doc:"MCTS sims; paper: 50-100")
  in
  let n_mean =
    Arg.(value & opt float 20.0 & info [ "n-mean" ] ~doc:"graph size mean; paper: 100")
  in
  let p_edge = Arg.(value & opt float 0.2 & info [ "p-edge" ] ~doc:"edge probability") in
  let p_inf =
    Arg.(value & opt float 0.01 & info [ "p-inf" ] ~doc:"infinity ratio; paper: 1%")
  in
  let zero_inf =
    Arg.(value & flag & info [ "zero-inf" ] ~doc:"ATE-style 0/inf costs")
  in
  let planted =
    Arg.(value & flag & info [ "planted" ] ~doc:"guaranteed-solvable instances")
  in
  let ate =
    Arg.(value & flag
         & info [ "ate" ] ~doc:"train on PBQP graphs of synthetic ATE programs")
  in
  let batch = Arg.(value & opt int 32 & info [ "batch" ] ~doc:"paper: 64") in
  let batch_leaves =
    Arg.(value & opt int 1
         & info [ "batch-leaves" ]
             ~doc:"MCTS leaves per batched network evaluation (1 = exact \
                   scalar search; >1 uses virtual-loss waves)")
  in
  let eval_cache =
    Arg.(value & opt int 0
         & info [ "eval-cache" ] ~docv:"SIZE"
             ~doc:"total network-evaluation cache capacity, shared across \
                   workers (0 = off); entries are invalidated by weight \
                   version, results are unchanged")
  in
  let serve_batch =
    Arg.(value & opt int 0
         & info [ "serve-batch" ] ~docv:"N"
             ~doc:"coalesce MCTS leaf waves from all workers through a \
                   dynamic-batching inference service into batched \
                   forwards of up to N leaves (0 = per-worker batching); \
                   results are bit-identical either way")
  in
  let serve_wait_us =
    Arg.(value & opt int 200
         & info [ "serve-wait-us" ] ~docv:"US"
             ~doc:"microseconds a partial service batch may wait for more \
                   leaves before it is flushed")
  in
  let cache_stripes =
    Arg.(value & opt int 8
         & info [ "cache-stripes" ] ~docv:"N"
             ~doc:"mutex-guarded shards of the shared evaluation cache \
                   (rounded up to a power of two)")
  in
  let replay =
    Arg.(value & opt int 20_000 & info [ "replay" ] ~doc:"paper: 200000")
  in
  let domains =
    Arg.(value & opt int (Par.recommended_domains ())
         & info [ "domains"; "j" ]
             ~doc:"domain-pool size shared by self-play, the gradient step \
                   and the arena; results are bit-identical for every \
                   value.  Default: Domain.recommended_domain_count, \
                   capped at 8")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"certify every self-play episode's solution against the \
                   original graph (abort on violation)")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"PREFIX"
             ~doc:"save nets + replay after each iteration; resume if present")
  in
  let pretrain_labels =
    Arg.(value & opt (some file) None
         & info [ "pretrain-labels" ] ~docv:"FILE"
             ~doc:"seed the replay buffer with exact-optimal supervision \
                   tuples from a Core.Labels file before self-play (see \
                   pbqp_solve --exact --labels); fresh runs only")
  in
  let actors =
    Arg.(value & opt int 0
         & info [ "actors" ] ~docv:"N"
             ~doc:"run self-play in N actor subprocesses streaming samples \
                   to this (learner) process; 0 = in-process.  With the \
                   same seed, --actors 1 trains bit-identically to the \
                   in-process loop, and any N is reproducible across runs")
  in
  let actor =
    Arg.(value & flag
         & info [ "actor" ]
             ~doc:"internal: serve as a self-play actor over stdin/stdout \
                   (spawned by --actors; not for direct use)")
  in
  let actor_id =
    Arg.(value & opt int 0 & info [ "actor-id" ] ~docv:"I"
         ~doc:"internal: this actor's id in the manifest")
  in
  let manifest =
    Arg.(value & opt (some string) None
         & info [ "manifest" ] ~docv:"PATH"
             ~doc:"actor-manifest file (learner writes it, actors read it); \
                   default: a temp file")
  in
  let stale_decay =
    Arg.(value & opt float 1.0
         & info [ "stale-decay" ] ~docv:"D"
             ~doc:"per-generation-lag down-weighting of stale samples in \
                   distributed mode: a sample played under weights L \
                   generations old trains with weight D^L (1.0 = off)")
  in
  let dist_pipeline =
    Arg.(value & opt int 0
         & info [ "dist-pipeline" ] ~docv:"K"
             ~doc:"dispatch episode assignments K iterations ahead of \
                   collection so actors play while the learner trains; \
                   pipelined episodes run under weights exactly K \
                   generations stale (deterministically)")
  in
  let replay_shards =
    Arg.(value & opt int 0
         & info [ "replay-shards" ] ~docv:"S"
             ~doc:"shards of the learner's replay buffer (distributed \
                   mode); 0 = one per actor")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"rng seed") in
  let out =
    Arg.(value & opt string "pvnet.ckpt" & info [ "o" ] ~doc:"output checkpoint")
  in
  let cmd =
    Cmd.v
      (Cmd.info "train" ~doc:"Train a PBQP policy/value network by self-play")
      Term.(
        const run $ m $ iterations $ episodes $ k_train $ n_mean $ p_edge
        $ p_inf $ zero_inf $ planted $ ate $ batch $ batch_leaves
        $ eval_cache $ serve_batch $ serve_wait_us
        $ cache_stripes $ replay $ domains $ check
        $ checkpoint $ pretrain_labels $ actors $ actor $ actor_id $ manifest
        $ stale_decay $ dist_pipeline $ replay_shards $ seed $ out)
  in
  exit (Cmd.eval cmd)
