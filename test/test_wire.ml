(* Tests for the serving subsystem (Serve.Wire / Serve.Daemon /
   Serve.Client / Serve.Registry): frame-codec and request/reply
   round-trips, malformed-input rejection (truncated, oversized and
   garbage frames answered or dropped, never a crash or hang), deadline
   and admission-control semantics, checkpoint hot-reload, and the
   headline determinism claim — a 4-client concurrent session returns
   bitwise-identical allocations to the serial solver on the same
   inputs, coalesced batches and shared cache notwithstanding. *)

open Pbqp
open Testutil

let tiny_net ?(seed = 3) ~m () =
  Nn.Pvnet.create ~rng:(rng seed)
    { (Nn.Pvnet.default_config ~m) with trunk_width = 8; trunk_blocks = 1;
      gcn_layers = 1 }

let random_graph ~seed ~n ~m =
  Generate.erdos_renyi ~rng:(rng seed)
    { Generate.default with n; m; p_edge = 0.5; p_inf = 0.1 }

(* ------------------------------------------------------------------ *)
(* Io solution round-trip (the shared assign-line form) *)

let test_solution_roundtrip () =
  let sol = Solution.of_array [| 2; 0; -1; 1 |] in
  let s = Pbqp.Io.solution_to_string sol in
  Alcotest.(check solution) "solution round-trips" sol
    (Pbqp.Io.solution_of_string s);
  Alcotest.(check bool) "one line form" true
    (String.length (String.trim s) > 0
    && not (String.contains (String.trim s) '\n'))

let test_solution_rejects_malformed () =
  let rejects s =
    match Pbqp.Io.solution_of_string s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Invalid_argument _ -> ()
  in
  rejects "nonsense 1 2";
  rejects "assign 1 x 2";
  rejects ""

(* ------------------------------------------------------------------ *)
(* Frame codec and header parsing (pure) *)

let test_frame_codec () =
  let payload = "request ping" in
  let b = Serve.Wire.encode_frame payload in
  Alcotest.(check int) "framed length"
    (Serve.Wire.header_bytes + String.length payload)
    (Bytes.length b);
  Alcotest.(check int) "declared length" (String.length payload)
    (Serve.Wire.decode_len b 0);
  (* encode_frame delegates to the shared Frame codec, so the rejection
     is raised under its name *)
  Alcotest.check_raises "oversized payload rejected at encode"
    (Invalid_argument "Frame.encode: payload too large") (fun () ->
      ignore (Serve.Wire.encode_frame (String.make (Serve.Wire.max_frame + 1) 'x')))

let roundtrip_request env =
  match Serve.Wire.request_of_string (Serve.Wire.request_to_string env) with
  | Ok env' -> env'
  | Error e -> Alcotest.failf "request did not round-trip: %s" e

let test_request_roundtrip () =
  let p = { Serve.Wire.default_params with solver = "rl"; k = 7;
            backtrack = true; deadline_ms = 250 } in
  let body = "pbqp 2 2\nv 0 1 2\n" in
  (match roundtrip_request { id = 9; req = Serve.Wire.Pbqp (p, body) } with
  | { id = 9; req = Serve.Wire.Pbqp (p', body') } ->
      Alcotest.(check string) "solver" "rl" p'.Serve.Wire.solver;
      Alcotest.(check int) "k" 7 p'.Serve.Wire.k;
      Alcotest.(check bool) "backtrack" true p'.Serve.Wire.backtrack;
      Alcotest.(check int) "deadline" 250 p'.Serve.Wire.deadline_ms;
      Alcotest.(check string) "body untouched" body body'
  | _ -> Alcotest.fail "wrong request kind");
  (match roundtrip_request { id = 0; req = Serve.Wire.Reload "/tmp/x.ckpt" } with
  | { req = Serve.Wire.Reload "/tmp/x.ckpt"; _ } -> ()
  | _ -> Alcotest.fail "reload did not round-trip");
  match roundtrip_request { id = 3; req = Serve.Wire.Stats } with
  | { id = 3; req = Serve.Wire.Stats } -> ()
  | _ -> Alcotest.fail "stats did not round-trip"

let test_request_rejects_malformed () =
  let rejects s =
    match Serve.Wire.request_of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  rejects "hello world";
  rejects "request teleport";
  rejects "request pbqp k=notanint\npbqp 1 1";
  rejects "request pbqp frobnicate=1\npbqp 1 1";
  rejects "reply solution cost=1 nodes=0 backtracks=0\nassign 0"

let test_reply_roundtrip () =
  let check_rt reply =
    match Serve.Wire.reply_of_string (Serve.Wire.reply_to_string ~id:4 reply) with
    | Ok (4, r) -> r
    | Ok (id, _) -> Alcotest.failf "id mangled: %d" id
    | Error e -> Alcotest.failf "reply did not round-trip: %s" e
  in
  (match
     check_rt
       (Serve.Wire.Solution
          { cost = "12."; nodes = 3; backtracks = 1; assignment = "assign 0 1" })
   with
  | Serve.Wire.Solution { cost = "12."; nodes = 3; backtracks = 1;
                          assignment = "assign 0 1" } -> ()
  | _ -> Alcotest.fail "solution mangled");
  (match check_rt (Serve.Wire.Stats_reply [ ("a", "1"); ("b", "2.5") ]) with
  | Serve.Wire.Stats_reply [ ("a", "1"); ("b", "2.5") ] -> ()
  | _ -> Alcotest.fail "stats mangled");
  (match check_rt (Serve.Wire.Error_reply "boom") with
  | Serve.Wire.Error_reply "boom" -> ()
  | _ -> Alcotest.fail "error mangled");
  match check_rt Serve.Wire.Overloaded with
  | Serve.Wire.Overloaded -> ()
  | _ -> Alcotest.fail "overloaded mangled"

(* ------------------------------------------------------------------ *)
(* In-process daemon harness *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pbqp_wire_%d_%d.sock" (Unix.getpid ()) !sock_counter)

let with_daemon ?(workers = 2) ?(queue_cap = 64) ?net f =
  let net = match net with Some n -> n | None -> tiny_net ~m:3 () in
  let config =
    { Serve.Daemon.default_config with socket_path = fresh_sock ();
      workers; queue_cap }
  in
  let t = Serve.Daemon.create ~config net in
  let d = Domain.spawn (fun () -> Serve.Daemon.run t) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Daemon.stop t;
      Domain.join d)
    (fun () -> f config.Serve.Daemon.socket_path t)

let with_client path f =
  let c = Serve.Client.connect_unix path in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let request_exn c req =
  match Serve.Client.request c req with
  | Ok r -> r
  | Error e -> Alcotest.failf "protocol error: %s" e

let graph_body g = Pbqp.Io.to_string g

(* ------------------------------------------------------------------ *)
(* Liveness, scholz equivalence, stats, reload *)

let test_ping_and_stats () =
  with_daemon (fun path _t ->
      with_client path (fun c ->
          (match request_exn c Serve.Wire.Ping with
          | Serve.Wire.Pong -> ()
          | _ -> Alcotest.fail "expected pong");
          match request_exn c Serve.Wire.Stats with
          | Serve.Wire.Stats_reply kvs ->
              List.iter
                (fun key ->
                  Alcotest.(check bool)
                    (Printf.sprintf "stats has %s" key)
                    true (List.mem_assoc key kvs))
                [ "version"; "generation"; "served"; "eval_count";
                  "cache_hits"; "infer_batches"; "infer_rows";
                  "queue_depth" ]
          | _ -> Alcotest.fail "expected stats"))

let test_scholz_matches_cli_solver () =
  let g = random_graph ~seed:51 ~n:9 ~m:3 in
  let s, c, _ = Solvers.Scholz.solve_with_cost g in
  with_daemon (fun path _t ->
      with_client path (fun client ->
          match
            request_exn client
              (Serve.Wire.Pbqp (Serve.Wire.default_params, graph_body g))
          with
          | Serve.Wire.Solution { cost; assignment; _ } ->
              Alcotest.(check string) "cost matches batch solver"
                (Cost.to_string c) cost;
              Alcotest.(check string) "assignment matches batch solver"
                (String.trim (Pbqp.Io.solution_to_string s))
                assignment
          | r ->
              Alcotest.failf "expected solution, got %s"
                (Serve.Wire.reply_to_string ~id:0 r)))

let test_reload_swaps_model () =
  let net_a = tiny_net ~seed:3 ~m:3 () in
  let net_b = tiny_net ~seed:8 ~m:3 () in
  let ckpt = Filename.temp_file "pbqp_wire_reload" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
    (fun () ->
      Nn.Pvnet.save net_b ckpt;
      with_daemon ~net:net_a (fun path _t ->
          with_client path (fun c ->
              let v0 =
                match request_exn c Serve.Wire.Stats with
                | Serve.Wire.Stats_reply kvs ->
                    int_of_string (List.assoc "version" kvs)
                | _ -> Alcotest.fail "expected stats"
              in
              (match request_exn c (Serve.Wire.Reload ckpt) with
              | Serve.Wire.Reloaded { version } ->
                  Alcotest.(check bool) "fresh version" true (version <> v0)
              | r ->
                  Alcotest.failf "expected reloaded, got %s"
                    (Serve.Wire.reply_to_string ~id:0 r));
              (match request_exn c (Serve.Wire.Reload "/nonexistent/x.ckpt") with
              | Serve.Wire.Error_reply _ -> ()
              | _ -> Alcotest.fail "expected error for a bad checkpoint");
              (* the daemon still solves after the swap *)
              let g = random_graph ~seed:52 ~n:7 ~m:3 in
              let p = { Serve.Wire.default_params with solver = "rl"; k = 6 } in
              match request_exn c (Serve.Wire.Pbqp (p, graph_body g)) with
              | Serve.Wire.Solution _ | Serve.Wire.No_solution _ -> ()
              | _ -> Alcotest.fail "rl solve failed after reload")))

(* ------------------------------------------------------------------ *)
(* Malformed input: never crash, never hang *)

let test_garbage_payload_gets_error_reply () =
  with_daemon (fun path _t ->
      with_client path (fun c ->
          Serve.Client.send_raw c "utter nonsense\nwith a body";
          (match Serve.Client.receive c with
          | Ok (_, Serve.Wire.Error_reply _) -> ()
          | Ok _ -> Alcotest.fail "expected an error reply"
          | Error e -> Alcotest.failf "connection died: %s" e);
          (* the connection survives a garbage payload *)
          match request_exn c Serve.Wire.Ping with
          | Serve.Wire.Pong -> ()
          | _ -> Alcotest.fail "expected pong after garbage"))

let test_oversized_frame_rejected () =
  with_daemon (fun path _t ->
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (ADDR_UNIX path);
          (* a header declaring a 64 MiB payload: rejected on sight,
             before any body arrives *)
          let hdr = Bytes.create 4 in
          Bytes.set_int32_be hdr 0 (Int32.of_int (64 * 1024 * 1024));
          ignore (Unix.write fd hdr 0 4);
          (match Serve.Wire.read_frame fd with
          | Some payload -> (
              match Serve.Wire.reply_of_string payload with
              | Ok (_, Serve.Wire.Error_reply _) -> ()
              | _ -> Alcotest.fail "expected an error reply")
          | None -> Alcotest.fail "daemon closed without replying");
          (* the poisoned framing closes the connection... *)
          Alcotest.(check bool) "connection closed after bad length" true
            (Serve.Wire.read_frame fd = None));
      (* ...and the daemon keeps serving everyone else *)
      with_client path (fun c ->
          match request_exn c Serve.Wire.Ping with
          | Serve.Wire.Pong -> ()
          | _ -> Alcotest.fail "daemon dead after oversized frame"))

let test_truncated_frame_dropped () =
  with_daemon (fun path _t ->
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.connect fd (ADDR_UNIX path);
      (* declare 100 bytes, send 10, vanish *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 100l;
      ignore (Unix.write fd hdr 0 4);
      ignore (Unix.write_substring fd "0123456789" 0 10);
      Unix.close fd;
      (* the daemon must shrug it off and keep serving *)
      with_client path (fun c ->
          match request_exn c Serve.Wire.Ping with
          | Serve.Wire.Pong -> ()
          | _ -> Alcotest.fail "daemon dead after truncated frame"))

(* ------------------------------------------------------------------ *)
(* Deadlines and admission control *)

let test_deadline_zero_times_out () =
  let g = random_graph ~seed:53 ~n:8 ~m:3 in
  with_daemon (fun path _t ->
      with_client path (fun c ->
          let p = { Serve.Wire.default_params with solver = "rl"; k = 8;
                    deadline_ms = 0 } in
          match request_exn c (Serve.Wire.Pbqp (p, graph_body g)) with
          | Serve.Wire.Timeout -> ()
          | r ->
              Alcotest.failf "expected timeout, got %s"
                (Serve.Wire.reply_to_string ~id:0 r)))

let test_overload_rejects_at_admission () =
  (* one worker, queue of one: occupy the worker with a slow solve, then
     pipeline a burst — the IO domain admits at most the queue's worth
     and answers [overloaded] for the rest, immediately *)
  let slow = random_graph ~seed:54 ~n:12 ~m:3 in
  let quick = random_graph ~seed:55 ~n:4 ~m:3 in
  with_daemon ~workers:1 ~queue_cap:1 (fun path _t ->
      with_client path (fun c_slow ->
          with_client path (fun c_burst ->
              Serve.Client.send c_slow
                { Serve.Wire.id = 0;
                  req =
                    Serve.Wire.Pbqp
                      ( { Serve.Wire.default_params with solver = "rl";
                          k = 300 },
                        graph_body slow ) };
              (* wait until the worker is solving the slow request — it
                 has evaluated a leaf and the queue has drained to 0 —
                 otherwise the burst races it for the queue slot and
                 every burst request can get rejected.  An empty queue
                 alone is not enough: the IO domain may answer this
                 connection's stats before it has read the slow frame.
                 stats is answered inline by the IO domain, so this
                 works while the lone worker is busy. *)
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait_pickup () =
                let picked_up =
                  match Serve.Client.request c_burst Serve.Wire.Stats with
                  | Ok (Serve.Wire.Stats_reply kvs) ->
                      List.assoc "queue_depth" kvs = "0"
                      && List.assoc "eval_count" kvs <> "0"
                  | _ -> Alcotest.fail "stats poll failed"
                in
                if not picked_up then
                  if Unix.gettimeofday () > deadline then
                    Alcotest.fail "slow request never picked up"
                  else begin
                    ignore (Unix.select [] [] [] 0.002);
                    wait_pickup ()
                  end
              in
              wait_pickup ();
              let n_burst = 8 in
              for i = 1 to n_burst do
                Serve.Client.send c_burst
                  { Serve.Wire.id = i;
                    req =
                      Serve.Wire.Pbqp
                        (Serve.Wire.default_params, graph_body quick) }
              done;
              let ok = ref 0 and over = ref 0 in
              for _ = 1 to n_burst do
                match Serve.Client.receive c_burst with
                | Ok (_, Serve.Wire.Solution _) -> incr ok
                | Ok (_, Serve.Wire.Overloaded) -> incr over
                | Ok (_, r) ->
                    Alcotest.failf "unexpected burst reply %s"
                      (Serve.Wire.reply_to_string ~id:0 r)
                | Error e -> Alcotest.failf "burst connection died: %s" e
              done;
              Alcotest.(check int) "every burst request answered" n_burst
                (!ok + !over);
              Alcotest.(check bool) "the bounded queue rejected some" true
                (!over > 0);
              Alcotest.(check bool) "the admitted ones were served" true
                (!ok > 0);
              match Serve.Client.receive c_slow with
              | Ok (_, (Serve.Wire.Solution _ | Serve.Wire.No_solution _)) ->
                  ()
              | Ok (_, r) ->
                  Alcotest.failf "slow request got %s"
                    (Serve.Wire.reply_to_string ~id:0 r)
              | Error e -> Alcotest.failf "slow connection died: %s" e)))

(* ------------------------------------------------------------------ *)
(* The headline determinism claim *)

let test_concurrent_clients_bitwise_serial () =
  let m = 3 in
  let k = 12 in
  let graphs =
    Array.init 6 (fun i -> random_graph ~seed:(60 + i) ~n:(6 + i) ~m)
  in
  (* serial reference: the CLI solver's exact configuration, no cache,
     no coalescing, fresh net with the daemon's weights *)
  let reference =
    let net = tiny_net ~m () in
    Array.map
      (fun g ->
        match
          Core.Solver.solve_feasible ~net
            ~mcts:{ Mcts.default_config with k } g
        with
        | Some s, _ ->
            ( Cost.to_string (Solution.cost g s),
              String.trim (Pbqp.Io.solution_to_string s) )
        | None, _ -> Alcotest.fail "reference solve found no solution")
      graphs
  in
  with_daemon ~workers:4 (fun path _t ->
      let run_client offset =
        with_client path (fun c ->
            Array.init (Array.length graphs) (fun j ->
                let i = (j + offset) mod Array.length graphs in
                let p =
                  { Serve.Wire.default_params with solver = "rl"; k }
                in
                match
                  request_exn c (Serve.Wire.Pbqp (p, graph_body graphs.(i)))
                with
                | Serve.Wire.Solution { cost; assignment; _ } ->
                    (i, cost, assignment)
                | r ->
                    Alcotest.failf "client got %s"
                      (Serve.Wire.reply_to_string ~id:0 r)))
      in
      (* 4 concurrent clients, phase-shifted orders: different requests
         coalesce into shared batches, identical requests share cache
         entries — results must not notice *)
      let domains =
        Array.init 4 (fun cidx -> Domain.spawn (fun () -> run_client cidx))
      in
      let all = Array.map Domain.join domains in
      Array.iter
        (Array.iter (fun (i, cost, assignment) ->
             let rcost, rassign = reference.(i) in
             Alcotest.(check string)
               (Printf.sprintf "graph %d cost bitwise" i)
               rcost cost;
             Alcotest.(check string)
               (Printf.sprintf "graph %d assignment bitwise" i)
               rassign assignment))
        all;
      (* and the leaves went through the service: every rl leaf
         evaluation looks up the shared cache first, and each miss is
         one Infer row (a batch of its own), so the rows are the leaf
         evaluations minus the cache hits, and they are every forward
         the workers' replicas ran. *)
      with_client path (fun c ->
          match request_exn c Serve.Wire.Stats with
          | Serve.Wire.Stats_reply kvs ->
              let get key = int_of_string (List.assoc key kvs) in
              let batches = get "infer_batches" in
              Alcotest.(check bool) "batches were served" true (batches > 0);
              Alcotest.(check int) "one batch per row" (get "infer_rows")
                batches;
              let leaf_evals = get "cache_hits" + get "cache_misses" in
              Alcotest.(check bool) "rl leaves were evaluated" true
                (leaf_evals > 0);
              Alcotest.(check int) "infer rows = leaf evals - cache hits"
                (leaf_evals - get "cache_hits")
                (get "infer_rows");
              Alcotest.(check int) "every forward row went through Infer"
                (get "eval_count") (get "infer_rows")
          | _ -> Alcotest.fail "expected stats"))

let () =
  Alcotest.run "wire"
    [
      ( "io-solution",
        [
          Alcotest.test_case "assign line round-trips" `Quick
            test_solution_roundtrip;
          Alcotest.test_case "malformed assign rejected" `Quick
            test_solution_rejects_malformed;
        ] );
      ( "codec",
        [
          Alcotest.test_case "frame codec" `Quick test_frame_codec;
          Alcotest.test_case "request round-trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejects_malformed;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "ping + stats" `Quick test_ping_and_stats;
          Alcotest.test_case "scholz solve = batch CLI solver" `Quick
            test_scholz_matches_cli_solver;
          Alcotest.test_case "reload hot-swaps the model" `Quick
            test_reload_swaps_model;
          Alcotest.test_case "garbage payload -> error reply" `Quick
            test_garbage_payload_gets_error_reply;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame_rejected;
          Alcotest.test_case "truncated frame dropped" `Quick
            test_truncated_frame_dropped;
          Alcotest.test_case "deadline 0 -> timeout" `Quick
            test_deadline_zero_times_out;
          Alcotest.test_case "overload rejected at admission" `Quick
            test_overload_rejects_at_admission;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "4 concurrent clients bitwise = serial" `Slow
            test_concurrent_clients_bitwise_serial;
        ] );
    ]
