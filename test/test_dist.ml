(* Distributed actor/learner self-play tests: the manifest and message
   codecs, the binary parameter-snapshot round trip, the sharded replay
   buffer against the plain ring, the weighted training step, and the
   headline equalities — a 1-actor distributed run is bitwise-identical
   to the in-process trainer, and multi-actor seeded runs are
   bit-reproducible (actors hosted in domains over socketpairs; the
   subprocess topology speaks the same wire protocol). *)

open Pbqp
open Testutil

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

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

(* ------------------------------------------------------------------ *)
(* Manifest *)

let test_manifest_roundtrip () =
  let m = Dist.Manifest.make ~seed:469290422 ~actors:3 in
  let path = Filename.temp_file "manifest" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dist.Manifest.save m path;
      let m' = Dist.Manifest.load path in
      Alcotest.(check int) "seed" m.Dist.Manifest.seed m'.Dist.Manifest.seed;
      Alcotest.(check int) "actors" 3 m'.Dist.Manifest.actors)

let test_manifest_validates () =
  Alcotest.check_raises "actors must be positive"
    (Invalid_argument "Manifest.make: actors <= 0") (fun () ->
      ignore (Dist.Manifest.make ~seed:1 ~actors:0));
  let m = Dist.Manifest.make ~seed:1 ~actors:2 in
  (match Dist.Manifest.actor_root m 2 with
  | _ -> Alcotest.fail "out-of-range actor id accepted"
  | exception Invalid_argument _ -> ());
  (* actor roots derive from Train's rng discipline: actor i's root is
     the (i+1)-th sequential split of the manifest rng, so roots of the
     same manifest are reproducible and distinct across actors *)
  let draw r = Random.State.bits (Dist.Manifest.actor_root m r) in
  Alcotest.(check int) "root 0 reproducible" (draw 0) (draw 0);
  Alcotest.(check bool) "roots differ across actors" true
    (draw 0 <> draw 1)

(* ------------------------------------------------------------------ *)
(* Message codecs *)

let sample_fixture () =
  let g = Generate.fig2 () in
  let st = Core.State.apply (Core.State.of_graph g) 0 in
  [
    { Nn.Pvnet.graph = Graph.copy (Core.State.graph st); next = 1;
      policy = [| 0.75; 0.25 |]; value = -1.0 };
    { Nn.Pvnet.graph = g; next = 0; policy = [| 0.5; 0.5 |]; value = 1.0 };
  ]

let test_msg_to_actor_roundtrip () =
  (* snapshot bodies are binary (little-endian float bits): embed
     newlines and NULs to pin down length-delimited framing *)
  let best = "pvnet-bin1\nbody\x00with\nbinary" and current = "\x00\x01\xff" in
  let msgs =
    [
      Dist.Msg.Snapshot { generation = 7; best; current };
      Dist.Msg.Assign { iteration = 3; lo = 12; hi = 24 };
      Dist.Msg.Quit;
    ]
  in
  List.iter
    (fun m ->
      let s = Dist.Msg.to_actor_to_string m in
      let m' = Dist.Msg.to_actor_of_string s in
      Alcotest.(check string) "re-encode fixed point" s
        (Dist.Msg.to_actor_to_string m');
      match (m, m') with
      | Dist.Msg.Snapshot a, Dist.Msg.Snapshot b ->
          Alcotest.(check int) "generation" a.generation b.generation;
          Alcotest.(check string) "best body" a.best b.best;
          Alcotest.(check string) "current body" a.current b.current
      | Dist.Msg.Assign a, Dist.Msg.Assign b ->
          Alcotest.(check (list int)) "assign fields"
            [ a.iteration; a.lo; a.hi ]
            [ b.iteration; b.lo; b.hi ]
      | Dist.Msg.Quit, Dist.Msg.Quit -> ()
      | _ -> Alcotest.fail "constructor changed across round trip")
    msgs

let test_msg_to_learner_roundtrip () =
  let samples = sample_fixture () in
  let m =
    Dist.Msg.Episode
      { iteration = 5; index = 11; actor = 1; generation = 4; failed = false;
        samples }
  in
  let s = Dist.Msg.to_learner_to_string m in
  let (Dist.Msg.Episode e) = Dist.Msg.to_learner_of_string s in
  Alcotest.(check (list int)) "header fields"
    [ 5; 11; 1; 4 ]
    [ e.iteration; e.index; e.actor; e.generation ];
  Alcotest.(check bool) "failed" false e.failed;
  Alcotest.(check int) "sample count" 2 (List.length e.samples);
  (* the sample payload is the replay text codec: exact float
     round-trip, so re-encoding is a fixed point *)
  Alcotest.(check string) "re-encode fixed point" s
    (Dist.Msg.to_learner_to_string (Dist.Msg.Episode e));
  List.iter2
    (fun (a : Nn.Pvnet.sample) (b : Nn.Pvnet.sample) ->
      Alcotest.(check int) "next" a.next b.next;
      Alcotest.(check bool) "value" true (a.value = b.value);
      Alcotest.(check bool) "policy" true (a.policy = b.policy))
    samples e.samples;
  match Dist.Msg.to_learner_of_string "bogus 1 2\n" with
  | _ -> Alcotest.fail "malformed header accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Binary parameter snapshots (satellite: codec round-trip coverage) *)

let test_snapshot_roundtrip_bitwise () =
  let m = 3 in
  let src = tiny_net ~seed:3 ~m () in
  (* nudge the weights off their init so the round trip exercises
     non-trivial float bit patterns *)
  let opt = Nn.Adam.create Nn.Adam.default_config in
  let batch =
    List.init 4 (fun i ->
        let g =
          Generate.erdos_renyi ~rng:(rng (40 + i))
            { Generate.default with n = 6; m; p_edge = 0.4 }
        in
        { Nn.Pvnet.graph = g; next = 0;
          policy = Array.make m (1.0 /. float_of_int m);
          value = 0.25 *. float_of_int i })
  in
  ignore (Nn.Pvnet.train_batch src opt batch : float);
  let snap = Nn.Pvnet.snapshot src in
  (* load into a differently-initialised net of the same config *)
  let dst = tiny_net ~seed:99 ~m () in
  Alcotest.(check bool) "distinct before load" false
    (params_identical src dst);
  let v0 = Nn.Pvnet.version dst in
  Nn.Pvnet.load_snapshot dst snap;
  Alcotest.(check bool) "params bitwise-identical after load" true
    (params_identical src dst);
  Alcotest.(check bool) "version stamp refreshed" true
    (Nn.Pvnet.version dst <> v0);
  (* loading must not have tied storage: training dst leaves src alone *)
  ignore (Nn.Pvnet.train_batch dst opt batch : float);
  Alcotest.(check bool) "storage not aliased" false
    (params_identical src dst);
  (* fresh-net constructor (actor-side first receive) *)
  let fresh = Nn.Pvnet.snapshot_of_string snap in
  Alcotest.(check bool) "snapshot_of_string identical" true
    (params_identical src fresh);
  (* snapshotting is read-only and deterministic *)
  Alcotest.(check string) "snapshot is a pure function of the params" snap
    (Nn.Pvnet.snapshot fresh)

let test_snapshot_across_copy_into_replica () =
  (* the learner snapshots nets that are also the source of copy_into
     replica refreshes; a snapshot taken from a refreshed replica must
     equal one taken from the original *)
  let m = 3 in
  let src = tiny_net ~seed:3 ~m () in
  let replica = tiny_net ~seed:42 ~m () in
  Nn.Pvnet.copy_into ~src ~dst:replica;
  Alcotest.(check string) "replica snapshot identical"
    (Nn.Pvnet.snapshot src)
    (Nn.Pvnet.snapshot replica);
  let back = Nn.Pvnet.snapshot_of_string (Nn.Pvnet.snapshot replica) in
  Alcotest.(check bool) "round trip through replica" true
    (params_identical src back)

let test_snapshot_rejects_mismatch () =
  let snap = Nn.Pvnet.snapshot (tiny_net ~m:3 ()) in
  let other = tiny_net ~m:4 () in
  (match Nn.Pvnet.load_snapshot other snap with
  | () -> Alcotest.fail "config mismatch accepted"
  | exception Invalid_argument _ -> ());
  match Nn.Pvnet.snapshot_of_string "not a snapshot" with
  | _ -> Alcotest.fail "garbage accepted"
  | exception Invalid_argument _ -> ()

(* A snapshot cut into its header line and per-parameter entries, each
   entry its text line, raw words and terminator, walked by structure
   (raw float words may contain any byte). *)
let snapshot_entries snap =
  let nl = String.index snap '\n' in
  let rec go pos acc =
    if pos >= String.length snap then List.rev acc
    else
      let eol = String.index_from snap pos '\n' in
      let numel =
        match String.split_on_char ' ' (String.sub snap pos (eol - pos)) with
        | [ "p"; _; _; n ] -> int_of_string n
        | _ -> Alcotest.fail "unexpected snapshot entry"
      in
      let stop = eol + 1 + (8 * numel) + 1 in
      go stop (String.sub snap pos (stop - pos) :: acc)
  in
  (String.sub snap 0 (nl + 1), go (nl + 1) [])

(* A rejected snapshot must leave the target exactly as it was: weights
   bitwise (its own snapshot unchanged) and the version stamp that keys
   the eval cache and the packed weight panels. *)
let check_rejected_untouched ~msg dst bad =
  let before = Nn.Pvnet.snapshot dst and v0 = Nn.Pvnet.version dst in
  (match Nn.Pvnet.load_snapshot dst bad with
  | () -> Alcotest.failf "%s: snapshot accepted" msg
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) (msg ^ ": weights untouched") before
    (Nn.Pvnet.snapshot dst);
  Alcotest.(check int) (msg ^ ": version untouched") v0
    (Nn.Pvnet.version dst)

let test_snapshot_truncated_atomic () =
  let snap = Nn.Pvnet.snapshot (tiny_net ~seed:3 ~m:3 ()) in
  let header, entries = snapshot_entries snap in
  let first = List.hd entries and second = List.nth entries 1 in
  (* cut eight bytes into the second entry's values: the first entry
     parses completely before the truncation is seen *)
  let cut = String.index second '\n' + 1 + 8 in
  let bad = header ^ first ^ String.sub second 0 cut in
  check_rejected_untouched ~msg:"truncated" (tiny_net ~seed:99 ~m:3 ()) bad

let test_snapshot_duplicate_rejected () =
  let snap = Nn.Pvnet.snapshot (tiny_net ~seed:3 ~m:3 ()) in
  let header, entries = snapshot_entries snap in
  (* the first parameter listed twice, the second one missing: the
     entry count still matches the parameter count *)
  let bad =
    match entries with
    | e0 :: _ :: rest -> String.concat "" (header :: e0 :: e0 :: rest)
    | _ -> Alcotest.fail "snapshot has fewer than two entries"
  in
  check_rejected_untouched ~msg:"duplicate" (tiny_net ~seed:99 ~m:3 ()) bad

let test_checkpoint_strict () =
  let lines =
    let path = Filename.temp_file "pvnet" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Nn.Pvnet.save (tiny_net ~m:3 ()) path;
        String.split_on_char '\n' (read_file path))
  in
  let rejects msg lines =
    let path = Filename.temp_file "pvnet" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.concat "\n" lines));
        match Nn.Pvnet.load path with
        | _ -> Alcotest.failf "%s: checkpoint accepted" msg
        | exception Invalid_argument _ -> ())
  in
  (* line 0 is the header; each parameter is a "param" line and a values
     line *)
  let without_second = List.filteri (fun i _ -> i <> 3 && i <> 4) lines in
  rejects "missing parameter" without_second;
  (* the first parameter twice in place of the second *)
  rejects "duplicated parameter"
    (List.filteri (fun i _ -> i <= 2) lines @ List.tl without_second);
  rejects "non-numeric value"
    (List.mapi
       (fun i l ->
         if i = 2 then
           match String.split_on_char ' ' l with
           | _ :: rest -> String.concat " " ("abc" :: rest)
           | [] -> l
         else l)
       lines);
  rejects "non-numeric header"
    (List.mapi (fun i l -> if i = 0 then "pvnet 3 one 8 1 10" else l) lines)

(* ------------------------------------------------------------------ *)
(* Sharded replay *)

let mk_sample v =
  let g = Graph.create ~m:2 ~n:1 in
  { Nn.Pvnet.graph = g; next = 0; policy = [| 1.0; 0.0 |]; value = v }

let test_shards_one_equals_replay () =
  (* shards=1 must be element-for-element the plain ring: same draws
     under the same rng, byte-identical checkpoint *)
  let replay = Core.Replay.create ~capacity:5 in
  let shards = Dist.Shards.create ~capacity:5 ~shards:1 in
  List.iter
    (fun v ->
      Core.Replay.add replay (mk_sample v);
      Dist.Shards.add shards ~origin:0 ~lag:0 (mk_sample v))
    [ 1.; 2.; 3.; 4.; 5.; 6.; 7. ];
  Alcotest.(check int) "length" (Core.Replay.length replay)
    (Dist.Shards.length shards);
  let values_r =
    List.map (fun (s : Nn.Pvnet.sample) -> s.value)
      (Core.Replay.sample_batch ~rng:(rng 11) replay 64)
  in
  let values_s =
    List.map (fun ((s : Nn.Pvnet.sample), _lag) -> s.value)
      (Dist.Shards.sample_batch ~rng:(rng 11) shards 64)
  in
  Alcotest.(check (list (float 0.0))) "identical draws" values_r values_s;
  let pr = Filename.temp_file "replay" ".txt" in
  let ps = Filename.temp_file "shards" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove pr; Sys.remove ps)
    (fun () ->
      Core.Replay.save replay pr;
      Dist.Shards.save shards ps;
      Alcotest.(check string) "byte-identical checkpoint" (read_file pr)
        (read_file ps))

let test_shards_eviction_per_shard () =
  (* capacity 6 over 2 shards = 3 slots each; overflowing shard 0 must
     evict only shard 0's oldest *)
  let t = Dist.Shards.create ~capacity:6 ~shards:2 in
  List.iter (fun v -> Dist.Shards.add t ~origin:0 ~lag:0 (mk_sample v))
    [ 1.; 2.; 3.; 4.; 5. ];
  List.iter (fun v -> Dist.Shards.add t ~origin:1 ~lag:2 (mk_sample v))
    [ 10.; 11. ];
  Alcotest.(check int) "length caps per shard" 5 (Dist.Shards.length t);
  Alcotest.(check int) "capacity" 6 (Dist.Shards.capacity t);
  let drawn = Dist.Shards.sample_batch ~rng:(rng 2) t 200 in
  List.iter
    (fun ((s : Nn.Pvnet.sample), lag) ->
      Alcotest.(check bool) "shard-0 oldest evicted" true (s.value >= 3.0);
      Alcotest.(check int) "lag travels with the sample"
        (if s.value >= 10.0 then 2 else 0)
        lag)
    drawn;
  (* both shards are reachable from the concatenated draw space *)
  Alcotest.(check bool) "draws hit both shards" true
    (List.exists (fun ((s : Nn.Pvnet.sample), _) -> s.value >= 10.0) drawn
    && List.exists (fun ((s : Nn.Pvnet.sample), _) -> s.value < 10.0) drawn)

let test_shards_save_load () =
  let t = Dist.Shards.create ~capacity:8 ~shards:3 in
  List.iteri
    (fun i v -> Dist.Shards.add t ~origin:(i mod 3) ~lag:(i mod 2)
        (mk_sample v))
    [ 1.; 2.; 3.; 4.; 5. ];
  let path = Filename.temp_file "shards" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dist.Shards.save t path;
      let t' = Dist.Shards.create ~capacity:8 ~shards:2 in
      Dist.Shards.load_into t' path;
      Alcotest.(check int) "length restored" 5 (Dist.Shards.length t');
      let values u =
        List.sort_uniq compare
          (List.map (fun ((s : Nn.Pvnet.sample), _) -> s.value)
             (Dist.Shards.sample_batch ~rng:(rng 4) u 400))
      in
      Alcotest.(check (list (float 0.0))) "same sample set" (values t)
        (values t');
      List.iter
        (fun (_, lag) ->
          Alcotest.(check int) "reloaded samples restart at lag 0" 0 lag)
        (Dist.Shards.sample_batch ~rng:(rng 5) t' 50));
  Alcotest.check_raises "shard count validated"
    (Invalid_argument "Shards.create: capacity < shards") (fun () ->
      ignore (Dist.Shards.create ~capacity:1 ~shards:2))

(* ------------------------------------------------------------------ *)
(* Weighted training step (staleness down-weighting) *)

let with_pool ~domains f =
  let pool = Par.Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let training_batch ~m ~seed n =
  let r = rng seed in
  List.init n (fun _ ->
      let g =
        Generate.erdos_renyi ~rng:r
          { Generate.default with n = 6; m; p_edge = 0.4; p_inf = 0.1 }
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

let test_weights_all_ones_bitwise () =
  let m = 3 in
  let batch = training_batch ~m ~seed:77 6 in
  let step ?weights () =
    let net = tiny_net ~m () in
    let opt = Nn.Adam.create Nn.Adam.default_config in
    with_pool ~domains:2 (fun pool ->
        let replicas =
          Array.init (Par.Pool.size pool) (fun w ->
              if w = 0 then net else Nn.Pvnet.clone net)
        in
        let loss =
          Nn.Pvnet.train_batch_parallel ?weights ~pool ~replicas net opt
            batch
        in
        (net, loss))
  in
  let n0, l0 = step () in
  let n1, l1 = step ~weights:(Array.make 6 1.0) () in
  Alcotest.(check bool) "explicit 1.0s = omitted, bitwise" true
    (Int64.equal (Int64.bits_of_float l0) (Int64.bits_of_float l1)
    && params_identical n0 n1);
  let n2, _ = step ~weights:[| 1.0; 0.5; 1.0; 0.25; 1.0; 1.0 |] () in
  Alcotest.(check bool) "down-weighting changes the step" false
    (params_identical n0 n2)

let test_weights_length_validated () =
  let m = 3 in
  let net = tiny_net ~m () in
  let opt = Nn.Adam.create Nn.Adam.default_config in
  with_pool ~domains:1 (fun pool ->
      Alcotest.check_raises "weights/samples mismatch"
        (Invalid_argument
           "Pvnet.train_batch_parallel: weights/samples mismatch")
        (fun () ->
          ignore
            (Nn.Pvnet.train_batch_parallel ~weights:[| 0.5 |] ~pool
               ~replicas:[| net |] net opt (training_batch ~m ~seed:9 2))))

(* ------------------------------------------------------------------ *)
(* Whole-run equalities: distributed vs in-process, reproducibility *)

let in_temp_dir f =
  let dir = Filename.temp_file "distrun" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let run_config ~m prefix =
  {
    (Core.Train.default_config ~m) with
    iterations = 2;
    episodes_per_iteration = 4;
    domains = 1;
    mcts = { Mcts.default_config with k = 6 };
    net =
      { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
        gcn_layers = 1 };
    n_mean = 6.0;
    n_stddev = 1.0;
    n_min = 3;
    arena_games = 2;
    batches_per_iteration = 2;
    batch_size = 8;
    checkpoint = Some prefix;
  }

let run_distributed ?shards ?stale_decay ?pipeline ~actors ~seed cfg =
  let launch, join = Dist.Spawn.domains ~config:cfg in
  let net =
    Core.Train.run
      ~make_source:
        (Dist.Learner.source ~config:cfg ~actors ?shards ?stale_decay
           ?pipeline ~on_shutdown:join ~launch ())
      ~rng:(rng seed) cfg
  in
  net

let test_one_actor_equals_in_process () =
  let m = 3 in
  in_temp_dir (fun dir ->
      let p_local = Filename.concat dir "local" in
      let p_dist = Filename.concat dir "dist" in
      let local = Core.Train.run ~rng:(rng 7) (run_config ~m p_local) in
      let dist =
        run_distributed ~actors:1 ~seed:7 (run_config ~m p_dist)
      in
      Alcotest.(check string) "replay buffers identical, byte for byte"
        (read_file (p_local ^ ".replay.txt"))
        (read_file (p_dist ^ ".replay.txt"));
      Alcotest.(check bool) "final nets identical, bit for bit" true
        (params_identical local dist))

(* What the learner of the fixed-seed 2-actor run puts on the wire per
   iteration (run_config: 2 iterations), counted by Dist.Hub: a snapshot
   broadcast when the nets changed and an assignment broadcast each
   iteration, plus the final quit.  A snapshot sent per episode, or a
   larger snapshot encoding, moves these. *)
let two_actor_frames_per_iteration = 5.0
let two_actor_bytes_per_iteration = 11780.0

let test_two_actors_reproducible () =
  let m = 3 in
  in_temp_dir (fun dir ->
      let go tag =
        let prefix = Filename.concat dir tag in
        let f0, b0 = Dist.Hub.traffic () in
        let cfg = run_config ~m prefix in
        let net = run_distributed ~actors:2 ~seed:7 cfg in
        let f1, b1 = Dist.Hub.traffic () in
        let per x = float_of_int x /. float_of_int cfg.Core.Train.iterations in
        Alcotest.(check (float 0.0))
          (tag ^ ": learner frames per iteration")
          two_actor_frames_per_iteration (per (f1 - f0));
        Alcotest.(check (float 0.0))
          (tag ^ ": learner payload bytes per iteration")
          two_actor_bytes_per_iteration (per (b1 - b0));
        (net, read_file (prefix ^ ".replay.txt"))
      in
      let net_a, replay_a = go "a" in
      let net_b, replay_b = go "b" in
      Alcotest.(check string) "2-actor replay reproducible" replay_a replay_b;
      Alcotest.(check bool) "2-actor net reproducible" true
        (params_identical net_a net_b))

let test_pipelined_stale_run_reproducible () =
  (* pipeline=1 plays each iteration's episodes under weights exactly
     one generation old and down-weights them — still deterministic *)
  let m = 3 in
  in_temp_dir (fun dir ->
      let go tag =
        let prefix = Filename.concat dir tag in
        let net =
          run_distributed ~actors:2 ~shards:3 ~stale_decay:0.8 ~pipeline:1
            ~seed:7 (run_config ~m prefix)
        in
        (net, read_file (prefix ^ ".replay.txt"))
      in
      let net_a, replay_a = go "a" in
      let net_b, replay_b = go "b" in
      Alcotest.(check string) "pipelined replay reproducible" replay_a
        replay_b;
      Alcotest.(check bool) "pipelined net reproducible" true
        (params_identical net_a net_b))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dist"
    [
      ( "manifest",
        [
          Alcotest.test_case "save/load round trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "validation + root streams" `Quick
            test_manifest_validates;
        ] );
      ( "msg",
        [
          Alcotest.test_case "to_actor round trips (binary-safe)" `Quick
            test_msg_to_actor_roundtrip;
          Alcotest.test_case "to_learner round trips" `Quick
            test_msg_to_learner_roundtrip;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "save/load bitwise round trip" `Quick
            test_snapshot_roundtrip_bitwise;
          Alcotest.test_case "across a copy_into replica" `Quick
            test_snapshot_across_copy_into_replica;
          Alcotest.test_case "mismatch rejected" `Quick
            test_snapshot_rejects_mismatch;
          Alcotest.test_case "truncated: weights + version untouched" `Quick
            test_snapshot_truncated_atomic;
          Alcotest.test_case "duplicate for missing rejected" `Quick
            test_snapshot_duplicate_rejected;
          Alcotest.test_case "text checkpoint strict" `Quick
            test_checkpoint_strict;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shards=1 = plain replay ring" `Quick
            test_shards_one_equals_replay;
          Alcotest.test_case "per-shard eviction + lag" `Quick
            test_shards_eviction_per_shard;
          Alcotest.test_case "save/load round trip" `Quick
            test_shards_save_load;
        ] );
      ( "weighted-step",
        [
          Alcotest.test_case "all-ones = unweighted, bitwise" `Quick
            test_weights_all_ones_bitwise;
          Alcotest.test_case "length validated" `Quick
            test_weights_length_validated;
        ] );
      ( "runs",
        [
          Alcotest.test_case "--actors 1 = in-process (replay + weights)"
            `Slow test_one_actor_equals_in_process;
          Alcotest.test_case "2 actors bit-reproducible" `Slow
            test_two_actors_reproducible;
          Alcotest.test_case "pipeline + stale decay reproducible" `Slow
            test_pipelined_stale_run_reproducible;
        ] );
    ]
