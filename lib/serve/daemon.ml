(* The allocation-as-a-service daemon.

   Thread structure (the only domains in the process):

   - one IO domain, raw-spawned by [run]: a select loop over the
     listening sockets (Unix-domain, optionally TCP), every client
     connection, and a self-pipe.  It owns every file descriptor —
     accepts, per-connection incremental frame assembly, and all writes
     happen here, so no fd is ever touched from two domains and closing
     a connection can never race a worker's write.  Per frame it does
     O(1) work: length check, header split, admission.  [ping] and
     [stats] are answered inline (counter snapshots, no blocking);
     solve/reload requests go through the bounded queue.

   - [config.workers] worker loops, one per domain: [run] spawns
     workers 1..n-1 and runs worker 0 on the calling domain.  Each
     worker pops a request, refreshes its warm replica from the
     [Registry], parses the body with the existing parsers, solves with
     the existing solvers — evaluating rl leaves on its own replica
     through the shared [Nn.Infer] counter and looking them up in the
     shared striped cache first — and pushes the reply text back to the
     IO domain via the reply queue + self-pipe.

   Admission control: the request queue is bounded ([queue_cap]); a
   frame arriving while it is full is answered [overloaded]
   immediately.  Deadlines are absolute (arrival + [deadline_ms]) and
   checked at dequeue: an expired request is answered [timeout] without
   being executed ([deadline_ms = 0] therefore expires
   deterministically — the test hook).

   Drain: [stop] (called from a signal handler or a test) makes the IO
   domain close the listeners and close the request queue.  Workers
   finish the queued requests and exit; the IO domain keeps flushing
   until every reply is written (bounded by a grace period), then closes
   every connection and unlinks the socket.  [run] returns only after
   both sides are joined — a clean SIGTERM exit. *)

type config = {
  socket_path : string;
  tcp_port : int option;
  workers : int;
  queue_cap : int;
  cache_capacity : int;
}

let default_config =
  {
    socket_path = "/tmp/pbqp_serve.sock";
    tcp_port = None;
    workers = 2;
    queue_cap = 64;
    cache_capacity = 4096;
  }

(* --- connection state: every field IO-domain-private --- *)

type conn = {
  c_fd : Unix.file_descr;
  c_rbuf : Buffer.t;  (* partial inbound bytes *)
  mutable c_expect : int;  (* payload length once the header is read; -1 = none *)
  c_out : Buffer.t;  (* pending outbound frames *)
  mutable c_woff : int;  (* flushed prefix of c_out *)
  mutable c_eof : bool;  (* peer closed / errored; close once c_out drains *)
  mutable c_drop : bool;  (* protocol poisoned: stop parsing, flush, close *)
}

(* --- bounded request queue (IO pushes, workers pop) --- *)

type item = {
  it_conn : conn;  (* opaque token to the worker; only IO reads its fields *)
  it_id : int;
  it_req : Wire.request;
  it_deadline : float;  (* absolute seconds; infinity = none *)
}

type rqueue = {
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  q_items : item Queue.t [@guarded_by "q_mutex"];
  q_cap : int;
  mutable q_closed : bool [@guarded_by "q_mutex"];
}

let rq_create cap =
  {
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    q_items = Queue.create ();
    q_cap = cap;
    q_closed = false;
  }

(* Admission: never blocks the IO domain; [false] = full or closed. *)
let rq_push rq item =
  Mutex.lock rq.q_mutex;
  let ok = (not rq.q_closed) && Queue.length rq.q_items < rq.q_cap in
  if ok then begin
    Queue.add item rq.q_items;
    Condition.signal rq.q_cond
  end;
  Mutex.unlock rq.q_mutex;
  ok

(* Blocks until an item arrives; [None] once the queue is closed AND
   drained — the drain guarantee of the shutdown path. *)
let rq_pop rq =
  Mutex.lock rq.q_mutex;
  while Queue.is_empty rq.q_items && not rq.q_closed do
    Condition.wait rq.q_cond rq.q_mutex
  done;
  let item = Queue.take_opt rq.q_items in
  Mutex.unlock rq.q_mutex;
  item

let rq_close rq =
  Mutex.lock rq.q_mutex;
  rq.q_closed <- true;
  Condition.broadcast rq.q_cond;
  Mutex.unlock rq.q_mutex

let rq_length rq =
  Mutex.lock rq.q_mutex;
  let n = Queue.length rq.q_items in
  Mutex.unlock rq.q_mutex;
  n

(* --- the daemon --- *)

type t = {
  cfg : config;
  registry : Registry.t;
  serve : Nn.Infer.t;
  cache : Nn.Cache.t option;  (* None when [cache_capacity = 0] *)
  rq : rqueue;
  m_mutex : Mutex.t;
  parse_memo : (string, Pbqp.Graph.t) Hashtbl.t [@guarded_by "m_mutex"];
      (* content-addressed parse memo *)
  r_mutex : Mutex.t;
  replies : (conn * string) Queue.t [@guarded_by "r_mutex"];
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  inflight : int Atomic.t;
  served : int Atomic.t;
  timeouts : int Atomic.t;
  overloads : int Atomic.t;
  proto_errors : int Atomic.t;
  listeners : Unix.file_descr list;
}

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let create ?(config = default_config) net =
  if config.workers <= 0 then invalid_arg "Daemon.create: workers <= 0";
  if config.queue_cap <= 0 then invalid_arg "Daemon.create: queue_cap <= 0";
  let unix_l = listen_unix config.socket_path in
  let listeners =
    match config.tcp_port with
    | None -> [ unix_l ]
    | Some port -> [ unix_l; listen_tcp port ]
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    cfg = config;
    registry = Registry.create ~net ~workers:config.workers;
    serve = Nn.Infer.create ~workers:config.workers ();
    cache =
      (if config.cache_capacity > 0 then
         Some
           (Nn.Cache.striped
              ~stripes:(if config.workers > 1 then 16 else 1)
              ~capacity:config.cache_capacity)
       else None);
    rq = rq_create config.queue_cap;
    m_mutex = Mutex.create ();
    parse_memo = Hashtbl.create 64;
    r_mutex = Mutex.create ();
    replies = Queue.create ();
    wake_r;
    wake_w;
    stop_flag = Atomic.make false;
    inflight = Atomic.make 0;
    served = Atomic.make 0;
    timeouts = Atomic.make 0;
    overloads = Atomic.make 0;
    proto_errors = Atomic.make 0;
    listeners;
  }

let wake t =
  match Unix.write t.wake_w (Bytes.make 1 'x') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      () (* pipe full: the IO domain is already due to wake *)

let stop t =
  Atomic.set t.stop_flag true;
  wake t

let socket_path t = t.cfg.socket_path

(* Worker side of the reply path: hand the rendered frame to the IO
   domain (the only fd owner) and kick its select loop. *)
let send_reply t conn ~id reply =
  let text = Wire.reply_to_string ~id reply in
  Mutex.lock t.r_mutex;
  Queue.add (conn, text) t.replies;
  Mutex.unlock t.r_mutex;
  wake t

(* --- request execution (worker domains) --- *)

let findings_text findings =
  String.concat "\n"
    (List.map (fun f -> Format.asprintf "%a" Check.Diag.pp_finding f) findings)

let solution_reply g sol ~nodes ~backtracks =
  match sol with
  | Some s ->
      Wire.Solution
        {
          cost = Pbqp.Cost.to_string (Pbqp.Solution.cost g s);
          nodes;
          backtracks;
          assignment = String.trim (Pbqp.Io.solution_to_string s);
        }
  | None -> Wire.No_solution { nodes; backtracks }

(* Content-addressed instance identity.  The evaluation cache keys on
   Zobrist hashes seeded by Graph.uid — a per-parse instance id — so
   two requests that parse the same text privately can never share
   entries.  The shared tier therefore memoizes the canonical parse per
   body: identical bodies get the same uid, and the version-stamped
   cache carries across requests (a compile server re-allocating the
   same functions is the steady state).  Each request still solves a
   private uid-preserving [Graph.copy], so reduction-style solvers may
   mutate their graph freely without aliasing the canonical instance. *)
let memo_capacity = 128

let parse_graph t body =
  let probe =
    Mutex.protect t.m_mutex (fun () -> Hashtbl.find_opt t.parse_memo body)
  in
  match probe with
  | Some g -> Ok (Pbqp.Graph.copy g)
  | None -> (
      match Check.Invariants.parse_string body with
      | Error _ as e -> e
      | Ok g ->
          let canonical =
            Mutex.protect t.m_mutex (fun () ->
                (* a racing worker may have parsed the same body
                   first; its instance wins so both share a uid *)
                match Hashtbl.find_opt t.parse_memo body with
                | Some g0 -> g0
                | None ->
                    if Hashtbl.length t.parse_memo >= memo_capacity then
                      Hashtbl.reset t.parse_memo;
                    Hashtbl.add t.parse_memo body g;
                    g)
          in
          Ok (Pbqp.Graph.copy canonical))

let exec_pbqp t ~net (p : Wire.solve_params) body =
  match parse_graph t body with
  | Error findings -> Wire.Error_reply (findings_text findings)
  | Ok g -> (
      match p.solver with
      | "scholz" ->
          let s, c, _ = Solvers.Scholz.solve_with_cost g in
          solution_reply g
            (if Pbqp.Cost.is_finite c then Some s else None)
            ~nodes:0 ~backtracks:0
      | "rl" ->
          let sol, stats =
            Core.Solver.solve_feasible ~net
              ~mcts:{ Mcts.default_config with k = p.k }
              ~backtracking:p.backtrack ?cache:t.cache ~serve:t.serve g
          in
          solution_reply g sol ~nodes:stats.Core.Solver.nodes
            ~backtracks:stats.backtracks
      | other -> Wire.Error_reply (Printf.sprintf "unknown pbqp solver %S" other))

let exec_minic ~net (p : Wire.solve_params) src =
  let kind =
    match p.solver with
    | "fast" -> Ok Cir.Driver.Fast
    | "basic" -> Ok Cir.Driver.Basic
    | "greedy" -> Ok Cir.Driver.Greedy
    | "pbqp" -> Ok Cir.Driver.Pbqp
    | "pbqp-rl" ->
        Ok (Cir.Driver.Pbqp_rl (net, { Mcts.default_config with k = p.k }))
    | other -> Error (Printf.sprintf "unknown minic allocator %S" other)
  in
  match kind with
  | Error e -> Wire.Error_reply e
  | Ok kind ->
      let ir = Cir.Lower.compile src in
      let r = Cir.Driver.run kind ir in
      Wire.Compiled
        {
          cycles = r.Cir.Driver.outcome.Cir.Msim.cycles;
          spills = r.Cir.Driver.spills;
          cost =
            (match r.Cir.Driver.pbqp_cost with
            | Some c -> Pbqp.Cost.to_string c
            | None -> "none");
          output = String.concat "\n" r.Cir.Driver.outcome.Cir.Msim.output;
        }

let exec_ate t ~net (p : Wire.solve_params) src =
  let prog = Ate.Parse.of_string src in
  let machine = Ate.Machine.model p.model in
  let solve =
    match p.solver with
    | "scholz" ->
        Ok
          (fun g ->
            let s, c, _ = Solvers.Scholz.solve_with_cost g in
            if Pbqp.Cost.is_finite c then Some s else None)
    | "rl" ->
        Ok
          (fun g ->
            fst
              (Core.Solver.solve_feasible ~net
                 ~mcts:{ Mcts.default_config with k = p.k }
                 ~backtracking:p.backtrack ?cache:t.cache ~serve:t.serve g))
    | other -> Error (Printf.sprintf "unknown ate solver %S" other)
  in
  match solve with
  | Error e -> Wire.Error_reply e
  | Ok solve -> (
      match Ate.Translate.allocate machine ~solve prog with
      | Ok q -> Wire.Program (Ate.Ast.to_string q)
      | Error e -> Wire.Error_reply ("allocation failed: " ^ e))

let execute t ~net req =
  try
    match req with
    | Wire.Pbqp (p, body) -> exec_pbqp t ~net p body
    | Wire.Minic (p, src) -> exec_minic ~net p src
    | Wire.Ate (p, src) -> exec_ate t ~net p src
    | Wire.Reload path -> (
        match Registry.reload t.registry path with
        | Ok version -> Wire.Reloaded { version }
        | Error e -> Wire.Error_reply ("reload failed: " ^ e))
    | Wire.Stats | Wire.Ping ->
        (* answered inline by the IO domain; defensive only *)
        Wire.Error_reply "stats/ping are not queued requests"
  with e ->
    (* no exception may kill the worker loop: a poisoned batch, a parser
       raise, a broken checkpoint all become error replies *)
    Wire.Error_reply (Printexc.to_string e)

let worker_loop t ~worker =
  let rec go () =
    match rq_pop t.rq with
    | None -> () (* queue closed and drained *)
    | Some item ->
        let reply =
          if Unix.gettimeofday () >= item.it_deadline then begin
            Atomic.incr t.timeouts;
            Wire.Timeout
          end
          else begin
            let net = Registry.for_worker t.registry ~worker in
            let r = execute t ~net item.it_req in
            Atomic.incr t.served;
            r
          end
        in
        send_reply t item.it_conn ~id:item.it_id reply;
        Atomic.decr t.inflight;
        go ()
  in
  go ()

(* --- stats (IO domain; counter snapshots only) --- *)

let stats_kvs t =
  let base =
    [
      ("version", string_of_int (Registry.version t.registry));
      ("generation", string_of_int (Registry.generation t.registry));
      ("workers", string_of_int t.cfg.workers);
      ("queue_cap", string_of_int t.cfg.queue_cap);
      ("queue_depth", string_of_int (rq_length t.rq));
      ("served", string_of_int (Atomic.get t.served));
      ("timeouts", string_of_int (Atomic.get t.timeouts));
      ("overloads", string_of_int (Atomic.get t.overloads));
      ("proto_errors", string_of_int (Atomic.get t.proto_errors));
      ("eval_count", string_of_int (Registry.eval_count t.registry));
      ( "memo_size",
        string_of_int
          (Mutex.protect t.m_mutex (fun () -> Hashtbl.length t.parse_memo)) );
    ]
  in
  let cache =
    match t.cache with
    | None -> []
    | Some c ->
        let s = Nn.Cache.stats c in
        [
          ("cache_hits", string_of_int s.Nn.Evalcache.hits);
          ("cache_misses", string_of_int s.Nn.Evalcache.misses);
          ("cache_evictions", string_of_int s.Nn.Evalcache.evictions);
          ("cache_size", string_of_int s.Nn.Evalcache.size);
          ("cache_hit_rate", Printf.sprintf "%.4f" (Nn.Cache.hit_rate c));
        ]
  in
  let infer =
    let s = Nn.Infer.stats t.serve in
    [
      ("infer_batches", string_of_int s.Nn.Infer.batches);
      ("infer_rows", string_of_int s.Nn.Infer.rows);
      (* these three always read 0; kept for the benchmark *)
      ("infer_timeout_flushes", string_of_int s.Nn.Infer.timeout_flushes);
      ("infer_wait_p50_us", Printf.sprintf "%.1f" s.Nn.Infer.wait_p50_us);
      ("infer_wait_p99_us", Printf.sprintf "%.1f" s.Nn.Infer.wait_p99_us);
    ]
  in
  base @ cache @ infer

(* --- the IO domain --- *)

let push_out conn text =
  Buffer.add_bytes conn.c_out (Wire.encode_frame text)

let deadline_of arrival deadline_ms =
  if deadline_ms < 0 then infinity
  else arrival +. (float_of_int deadline_ms /. 1000.)

(* One complete inbound frame (IO domain): admit, answer inline, or
   reject — never block, never raise. *)
let handle_frame t conn payload =
  match Wire.request_of_string payload with
  | Error msg ->
      Atomic.incr t.proto_errors;
      push_out conn (Wire.reply_to_string ~id:0 (Wire.Error_reply msg))
  | Ok { id; req = Wire.Ping } ->
      push_out conn (Wire.reply_to_string ~id Wire.Pong)
  | Ok { id; req = Wire.Stats } ->
      push_out conn (Wire.reply_to_string ~id (Wire.Stats_reply (stats_kvs t)))
  | Ok { id; req } ->
      let arrival = Unix.gettimeofday () in
      let deadline_ms =
        match req with
        | Wire.Pbqp (p, _) | Wire.Minic (p, _) | Wire.Ate (p, _) ->
            p.Wire.deadline_ms
        | _ -> -1
      in
      let item =
        { it_conn = conn; it_id = id; it_req = req;
          it_deadline = deadline_of arrival deadline_ms }
      in
      Atomic.incr t.inflight;
      if not (rq_push t.rq item) then begin
        Atomic.decr t.inflight;
        Atomic.incr t.overloads;
        push_out conn (Wire.reply_to_string ~id Wire.Overloaded)
      end

(* Assemble frames out of the connection's inbound buffer.  A corrupt
   length poisons the connection: error reply, stop parsing, close after
   the flush — the stream has no recoverable framing left. *)
let process_rbuf t conn =
  let continue_ = ref true in
  while !continue_ && not conn.c_drop do
    let have = Buffer.length conn.c_rbuf in
    if conn.c_expect < 0 then
      if have >= Wire.header_bytes then begin
        let hdr = Bytes.of_string (Buffer.sub conn.c_rbuf 0 Wire.header_bytes) in
        let len = Wire.decode_len hdr 0 in
        if len < 0 || len > Wire.max_frame then begin
          Atomic.incr t.proto_errors;
          push_out conn
            (Wire.reply_to_string ~id:0
               (Wire.Error_reply (Printf.sprintf "bad frame length %d" len)));
          conn.c_drop <- true
        end
        else conn.c_expect <- len
      end
      else continue_ := false
    else if have >= Wire.header_bytes + conn.c_expect then begin
      let all = Buffer.contents conn.c_rbuf in
      let payload = String.sub all Wire.header_bytes conn.c_expect in
      let rest_off = Wire.header_bytes + conn.c_expect in
      Buffer.clear conn.c_rbuf;
      Buffer.add_substring conn.c_rbuf all rest_off
        (String.length all - rest_off);
      conn.c_expect <- -1;
      handle_frame t conn payload
    end
    else continue_ := false
  done

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  go ()

let drain_replies t =
  Mutex.lock t.r_mutex;
  let batch = Queue.fold (fun acc r -> r :: acc) [] t.replies in
  Queue.clear t.replies;
  Mutex.unlock t.r_mutex;
  List.iter
    (fun (conn, text) -> if not conn.c_eof then push_out conn text)
    (List.rev batch)

let replies_empty t =
  Mutex.lock t.r_mutex;
  let e = Queue.is_empty t.replies in
  Mutex.unlock t.r_mutex;
  e

let flush_conn conn =
  let len = Buffer.length conn.c_out in
  if conn.c_woff < len then begin
    let chunk = Buffer.sub conn.c_out conn.c_woff (len - conn.c_woff) in
    match Unix.write_substring conn.c_fd chunk 0 (String.length chunk) with
    | n ->
        conn.c_woff <- conn.c_woff + n;
        if conn.c_woff = Buffer.length conn.c_out then begin
          Buffer.clear conn.c_out;
          conn.c_woff <- 0
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        conn.c_eof <- true;
        Buffer.clear conn.c_out;
        conn.c_woff <- 0
  end

let read_conn t conn =
  let b = Bytes.create 65536 in
  match Unix.read conn.c_fd b 0 65536 with
  | 0 -> conn.c_eof <- true
  | n ->
      Buffer.add_subbytes conn.c_rbuf b 0 n;
      process_rbuf t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      conn.c_eof <- true

let io_loop t =
  let conns = ref [] in
  let draining = ref false in
  let drain_start = ref 0.0 in
  let finished = ref false in
  while not !finished do
    (* enter drain mode once: stop accepting, let workers run dry *)
    if Atomic.get t.stop_flag && not !draining then begin
      draining := true;
      drain_start := Unix.gettimeofday ();
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        t.listeners;
      rq_close t.rq
    end;
    drain_replies t;
    (* reap connections whose peer vanished or whose output is done *)
    conns :=
      List.filter
        (fun conn ->
          let flushed = Buffer.length conn.c_out = 0 in
          if conn.c_eof || (conn.c_drop && flushed) then begin
            conn.c_eof <- true (* late replies for this conn are dropped *);
            (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
            false
          end
          else true)
        !conns;
    let pending_out =
      List.exists (fun c -> Buffer.length c.c_out > 0) !conns
    in
    if
      !draining
      && ((rq_length t.rq = 0 && Atomic.get t.inflight = 0
           && (not pending_out) && replies_empty t)
         || Unix.gettimeofday () -. !drain_start > 10.0)
    then finished := true
    else begin
      let listen_fds = if !draining then [] else t.listeners in
      let read_fds =
        t.wake_r :: listen_fds @ List.map (fun c -> c.c_fd) !conns
      in
      let write_fds =
        List.filter_map
          (fun c -> if Buffer.length c.c_out > 0 then Some c.c_fd else None)
          !conns
      in
      match Unix.select read_fds write_fds [] 0.25 with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.mem t.wake_r readable then drain_wake t;
          drain_replies t;
          List.iter
            (fun lfd ->
              if List.mem lfd readable then
                match Unix.accept lfd with
                | fd, _ ->
                    Unix.set_nonblock fd;
                    conns :=
                      {
                        c_fd = fd;
                        c_rbuf = Buffer.create 256;
                        c_expect = -1;
                        c_out = Buffer.create 256;
                        c_woff = 0;
                        c_eof = false;
                        c_drop = false;
                      }
                      :: !conns
                | exception
                    Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                    ())
            listen_fds;
          List.iter
            (fun conn ->
              if List.mem conn.c_fd readable then read_conn t conn;
              if (not conn.c_eof) && List.mem conn.c_fd writable then
                flush_conn conn;
              (* a reply pushed just above may be writable right away *)
              if (not conn.c_eof) && Buffer.length conn.c_out > 0 then
                flush_conn conn)
            !conns
    end
  done;
  List.iter
    (fun conn -> try Unix.close conn.c_fd with Unix.Unix_error _ -> ())
    !conns;
  if not !draining then
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())

let run t =
  (* a client vanishing mid-write must be an EPIPE error, not a fatal
     signal — standard daemon hygiene *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let io = Domain.spawn (fun () -> io_loop t) in
  (* one long-lived loop per domain: workers 1..n-1 on their own
     domains, worker 0 on the caller *)
  let others =
    List.init (t.cfg.workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~worker:(i + 1)))
  in
  worker_loop t ~worker:0;
  List.iter Domain.join others;
  Domain.join io;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ())

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ()
