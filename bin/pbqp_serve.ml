(* CLI: the allocation service — run the daemon, or act as a client
   (solve / compile / allocate / stats / ping / reload) against a
   running one.  The client modes exist for scripting and the smoke
   test; heavier clients should speak Serve.Wire directly. *)

open Cmdliner

(* --- daemon mode --- *)

let daemon socket tcp_port workers queue_cap cache net_path m seed =
  let net =
    match net_path with
    | Some path -> Nn.Pvnet.load path
    | None ->
        (* a fresh net still serves deterministically (fixed seed): the
           smoke test and ad-hoc runs need no checkpoint on disk *)
        let rng = Random.State.make [| seed |] in
        Nn.Pvnet.create ~rng (Nn.Pvnet.default_config ~m)
  in
  let config =
    {
      Serve.Daemon.socket_path = socket;
      tcp_port;
      workers;
      queue_cap;
      cache_capacity = cache;
    }
  in
  let t = Serve.Daemon.create ~config net in
  Serve.Daemon.install_signal_handlers t;
  Printf.printf "pbqp_serve: listening on %s (%d workers%s)\n%!" socket workers
    (match tcp_port with
    | Some p -> Printf.sprintf ", tcp 127.0.0.1:%d" p
    | None -> "");
  Serve.Daemon.run t;
  Printf.printf "pbqp_serve: drained, bye\n%!";
  `Ok ()

(* --- client modes --- *)

let with_client socket f =
  match Serve.Client.connect_unix socket with
  | exception Unix.Unix_error (e, _, _) ->
      `Error
        ( false,
          Printf.sprintf "cannot connect to %s: %s" socket
            (Unix.error_message e) )
  | c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let params solver k backtrack model deadline_ms =
  { Serve.Wire.solver; k; backtrack; model; deadline_ms }

let print_reply = function
  | Serve.Wire.Solution { cost; nodes; backtracks; assignment } ->
      Printf.printf "cost %s\n%s\n" cost assignment;
      if nodes > 0 then
        Printf.printf "; nodes=%d backtracks=%d\n" nodes backtracks;
      `Ok ()
  | Serve.Wire.No_solution { nodes; backtracks } ->
      Printf.printf "no solution (nodes=%d backtracks=%d)\n" nodes backtracks;
      `Ok ()
  | Serve.Wire.Compiled { cycles; spills; cost; output } ->
      if output <> "" then print_endline output;
      Printf.printf "; cycles=%d spills=%d pbqp-cost=%s\n" cycles spills cost;
      `Ok ()
  | Serve.Wire.Program text ->
      print_string text;
      `Ok ()
  | Serve.Wire.Stats_reply kvs ->
      List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) kvs;
      `Ok ()
  | Serve.Wire.Pong ->
      print_endline "pong";
      `Ok ()
  | Serve.Wire.Reloaded { version } ->
      Printf.printf "reloaded version=%d\n" version;
      `Ok ()
  | Serve.Wire.Error_reply msg -> `Error (false, "daemon error: " ^ msg)
  | Serve.Wire.Timeout -> `Error (false, "request deadline expired")
  | Serve.Wire.Overloaded -> `Error (false, "daemon overloaded")

let roundtrip socket req =
  with_client socket (fun c ->
      match Serve.Client.request c req with
      | Ok reply -> print_reply reply
      | Error e -> `Error (false, "protocol error: " ^ e))

let body_of_file path = In_channel.with_open_text path In_channel.input_all

let solve socket file solver k backtrack deadline_ms =
  roundtrip socket
    (Serve.Wire.Pbqp
       (params solver k backtrack "modelA" deadline_ms, body_of_file file))

let minic socket file alloc k deadline_ms =
  roundtrip socket
    (Serve.Wire.Minic (params alloc k false "modelA" deadline_ms,
                       body_of_file file))

let ate socket file solver k model deadline_ms =
  roundtrip socket
    (Serve.Wire.Ate (params solver k false model deadline_ms,
                     body_of_file file))

let stats socket = roundtrip socket Serve.Wire.Stats
let ping socket = roundtrip socket Serve.Wire.Ping
let reload socket path = roundtrip socket (Serve.Wire.Reload path)

(* --- argument plumbing --- *)

let socket_arg =
  Arg.(value & opt string Serve.Daemon.default_config.socket_path
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let k_arg =
  Arg.(value & opt int 50 & info [ "k" ] ~doc:"MCTS simulations (rl solvers)")

let deadline_arg =
  Arg.(value & opt int (-1)
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"per-request deadline relative to arrival (negative: none; \
                 0 expires immediately)")

let daemon_cmd =
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT" ~doc:"also listen on loopback TCP")
  in
  let workers =
    Arg.(value & opt int Serve.Daemon.default_config.workers
         & info [ "workers" ] ~docv:"N" ~doc:"solver worker domains")
  in
  let queue_cap =
    Arg.(value & opt int Serve.Daemon.default_config.queue_cap
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"admission bound; beyond it requests get `overloaded'")
  in
  let cache =
    Arg.(value & opt int Serve.Daemon.default_config.cache_capacity
         & info [ "cache" ] ~docv:"N"
             ~doc:"shared evaluation cache capacity (0 disables)")
  in
  let net =
    Arg.(value & opt (some file) None
         & info [ "net" ] ~docv:"CKPT" ~doc:"Pvnet checkpoint to serve")
  in
  let m =
    Arg.(value & opt int 13
         & info [ "m" ] ~doc:"colors for the fresh net when --net is absent")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~doc:"rng seed for the fresh net")
  in
  Cmd.v (Cmd.info "daemon" ~doc:"Run the allocation service")
    Term.(
      ret
        (const daemon $ socket_arg $ tcp $ workers $ queue_cap $ cache $ net
       $ m $ seed))

let file_pos =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let solve_cmd =
  let solver =
    Arg.(value & opt string "scholz"
         & info [ "solver"; "s" ] ~doc:"scholz or rl")
  in
  let backtrack =
    Arg.(value & flag & info [ "backtrack"; "b" ] ~doc:"rl backtracking")
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve a .pbqp instance via the daemon")
    Term.(
      ret
        (const solve $ socket_arg $ file_pos $ solver $ k_arg $ backtrack
       $ deadline_arg))

let minic_cmd =
  let alloc =
    Arg.(value & opt string "pbqp"
         & info [ "alloc"; "a" ]
             ~doc:"fast, basic, greedy, pbqp, or pbqp-rl")
  in
  Cmd.v (Cmd.info "minic" ~doc:"Compile and run a MiniC file via the daemon")
    Term.(ret (const minic $ socket_arg $ file_pos $ alloc $ k_arg
             $ deadline_arg))

let ate_cmd =
  let solver =
    Arg.(value & opt string "scholz"
         & info [ "solver"; "s" ] ~doc:"scholz or rl")
  in
  let model =
    Arg.(value & opt string "modelA" & info [ "model" ] ~doc:"ATE machine")
  in
  Cmd.v (Cmd.info "ate" ~doc:"Allocate an ATE program via the daemon")
    Term.(
      ret (const ate $ socket_arg $ file_pos $ solver $ k_arg $ model
         $ deadline_arg))

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Query daemon counters")
    Term.(ret (const stats $ socket_arg))

let ping_cmd =
  Cmd.v (Cmd.info "ping" ~doc:"Liveness check")
    Term.(ret (const ping $ socket_arg))

let reload_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CKPT")
  in
  Cmd.v (Cmd.info "reload" ~doc:"Hot-swap the served checkpoint")
    Term.(ret (const reload $ socket_arg $ path))

let () =
  let cmd =
    Cmd.group
      (Cmd.info "pbqp_serve"
         ~doc:"PBQP allocation as a service: daemon and client modes")
      [ daemon_cmd; solve_cmd; minic_cmd; ate_cmd; stats_cmd; ping_cmd;
        reload_cmd ]
  in
  exit (Cmd.eval cmd)
