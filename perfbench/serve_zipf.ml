(* serve_zipf: open-loop and closed-loop traffic against a pbqp_serve
   daemon child process, from one single-threaded generator over two
   pipelined connections.  The only workload that goes through Serve
   (IO domain, admission), Nn.Infer coalescing and the shared Nn.Cache.

   Inputs (all from the seed): a pool of planted 0/inf graphs (m = 13,
   n 12..40) and a pool of small generated ATE programs, drawn
   Zipf-skewed, so hot graphs revisit the shared cache while the pool's
   tail overflows it.  Mix: 70% pbqp rl with backtracking, 20% ate rl,
   10% pbqp scholz (which skips the net, so it isolates queueing). *)

open Common

let net_path = "bench_cache/ate_k12.ckpt"
let workers = 2

(* The traffic.  Phase A's rate is fixed at about half the closed-loop
   saturation rate measured on the reference host (2 cores); the latency
   limit is the SLO that slo_miss_frac counts against. *)
let rate_rps = 35.0
let slo_ms = 250.0
let phase_a_requests = 1200
let phase_b_requests = 600
let warm_requests = 24
let probe_interval_s = 0.1
let k = 4
let graph_pool = 256
let program_pool = 64
let zipf_s = 1.0

type kind = Pbqp_rl | Ate_rl | Pbqp_scholz

let kinds = [ Pbqp_rl; Ate_rl; Pbqp_scholz ]

let kind_name = function
  | Pbqp_rl -> "pbqp_rl"
  | Ate_rl -> "ate_rl"
  | Pbqp_scholz -> "pbqp_scholz"

type item = { kind : kind; idx : int }

type inputs = {
  graphs : Pbqp.Graph.t array;
  bodies : string array;
  progs : Ate.Ast.program array;
  prog_bodies : string array;
  warm : item array;
  phase_a : item array;
  gaps : float array;  (* phase A inter-arrival times, seconds *)
  phase_b : item array;
}

let machine = Ate.Machine.model Serve.Wire.default_params.model

(* Zipf(s) over ranks 0..n-1 by inverse CDF. *)
let zipf ~rng ~n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** zipf_s));
    cdf.(i) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* The graph and program pools are a fixed catalogue, the same for every
   seed (like the code base a compile server sees); the seed draws the
   traffic over it: which items are requested, in what order, and when.
   Fixing the catalogue keeps per-seed differences in graph hardness out
   of the latency figures. *)
let catalogue_seed = 20220402

let make_inputs seed =
  let rng = Random.State.make [| catalogue_seed |] in
  (* Sizes are stratified over the Zipf ranks: rank i gets
     n = 12 + (7i mod 29) and target 8 + (5i mod 9) vregs, so the hot
     set spans the whole size range. *)
  let graphs =
    Array.init graph_pool (fun i ->
        let n = 12 + (7 * i mod 29) in
        fst
          (Pbqp.Generate.planted ~rng
             { Pbqp.Generate.default with n; m = 13; p_edge = 0.1;
               p_inf = 0.1; zero_inf = true }))
  in
  let progs =
    Array.init program_pool (fun i ->
        Ate.Progen.generate ~machine ~rng ~target_vregs:(8 + (5 * i mod 9)) ())
  in
  let rng = Random.State.make [| seed; 1 |] in
  let graph_rank = zipf ~rng ~n:graph_pool in
  let prog_rank = zipf ~rng ~n:program_pool in
  let draw () =
    let u = Random.State.float rng 1.0 in
    if u < 0.7 then { kind = Pbqp_rl; idx = graph_rank () }
    else if u < 0.9 then { kind = Ate_rl; idx = prog_rank () }
    else { kind = Pbqp_scholz; idx = graph_rank () }
  in
  let warm = Array.init warm_requests (fun _ -> draw ()) in
  let phase_a = Array.init phase_a_requests (fun _ -> draw ()) in
  let gaps =
    Array.init phase_a_requests (fun _ ->
        -.Stdlib.log (1.0 -. Random.State.float rng 1.0) /. rate_rps)
  in
  let phase_b = Array.init phase_b_requests (fun _ -> draw ()) in
  {
    graphs;
    bodies = Array.map Pbqp.Io.to_string graphs;
    progs;
    prog_bodies = Array.map Ate.Ast.to_string progs;
    warm;
    phase_a;
    gaps;
    phase_b;
  }

let request inp it =
  let rl = { Serve.Wire.default_params with solver = "rl"; k; backtrack = true } in
  match it.kind with
  | Pbqp_rl -> Serve.Wire.Pbqp (rl, inp.bodies.(it.idx))
  | Pbqp_scholz -> Serve.Wire.Pbqp (Serve.Wire.default_params, inp.bodies.(it.idx))
  | Ate_rl ->
      (* no backtracking, as the pbqp_serve ate client sends: a dead end
         comes back at once as "no allocation found" *)
      Serve.Wire.Ate ({ rl with backtrack = false }, inp.prog_bodies.(it.idx))

(* --- output checks --- *)

type verdict = { ok : bool; wrong : bool; solved : bool }

let ate_unsolved = "allocation failed: no allocation found"

let check inp it reply =
  match (it.kind, reply) with
  | (Pbqp_rl | Pbqp_scholz), Serve.Wire.Solution { cost; assignment; _ } ->
      let good =
        match
          ( Pbqp.Io.solution_of_string assignment,
            Pbqp.Cost.of_string cost )
        with
        | sol, reported -> Checks.certified inp.graphs.(it.idx) sol ~reported
        | exception Invalid_argument _ -> false
      in
      { ok = good; wrong = not good; solved = good }
  | (Pbqp_rl | Pbqp_scholz), Serve.Wire.No_solution _ ->
      (* a legal answer that misses a planted solution: quality, not failure *)
      { ok = true; wrong = false; solved = false }
  | Ate_rl, Serve.Wire.Program text ->
      let orig = inp.progs.(it.idx) in
      let good =
        match Ate.Parse.of_string text with
        | exception Invalid_argument _ -> false
        | alloc -> (
            match Checks.assignment_of_allocated orig alloc with
            | None -> false
            | Some assignment ->
                let info = Ate.Program.analyze_exn orig in
                Checks.ate_assignment_ok machine info
                  (Ate.Pbqp_build.build machine info)
                  ~assignment)
      in
      { ok = good; wrong = not good; solved = good }
  | Ate_rl, Serve.Wire.Error_reply e when e = ate_unsolved ->
      (* the ATE wire form of No_solution *)
      { ok = true; wrong = false; solved = false }
  | _, (Serve.Wire.Error_reply _ | Serve.Wire.Timeout | Serve.Wire.Overloaded)
    ->
      { ok = false; wrong = false; solved = false }
  | _ -> { ok = false; wrong = true; solved = false }

(* --- the daemon child --- *)

let daemon_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pbqp_serve.exe")

let children : int list ref = ref []

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid : int * Unix.process_status)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

(* The daemon never outlives the benchmark: stopped at exit, and on
   SIGTERM/SIGINT, which exit through the same path. *)
let () =
  at_exit (fun () -> List.iter stop_daemon !children);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ]

let spawn_daemon socket =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let exe = daemon_exe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--socket"; socket; "--workers"; string_of_int workers;
         "--net"; net_path |]
      null Unix.stderr Unix.stderr
  in
  Unix.close null;
  children := pid :: !children;
  pid

(* --- framed, pipelined connections --- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let rec connect_when_ready pid socket ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; buf = Buffer.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "pbqp_serve exited during start-up");
      if now () > deadline then failwith "pbqp_serve did not start listening";
      Unix.sleepf 0.002;
      connect_when_ready pid socket ~deadline

let send c ~id req = Serve.Wire.write_frame c.fd (Serve.Wire.request_to_string { id; req })

let chunk = Bytes.create 65536

(* Read what is available and return the complete replies. *)
let read_replies c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "pbqp_serve closed a connection";
  Buffer.add_subbytes c.buf chunk 0 n;
  let hb = Serve.Wire.header_bytes in
  let rec frames acc =
    let have = Buffer.length c.buf in
    if have < hb then List.rev acc
    else
      let len = Serve.Wire.decode_len (Bytes.of_string (Buffer.sub c.buf 0 hb)) 0 in
      if have < hb + len then List.rev acc
      else begin
        let payload = Buffer.sub c.buf hb len in
        let rest = Buffer.sub c.buf (hb + len) (have - hb - len) in
        Buffer.clear c.buf;
        Buffer.add_string c.buf rest;
        match Serve.Wire.reply_of_string payload with
        | Ok r -> frames (r :: acc)
        | Error e -> failwith ("malformed reply: " ^ e)
      end
  in
  frames []

let readable conns timeout =
  match Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] timeout with
  | r, _, _ -> Array.to_list conns |> List.filter (fun c -> List.mem c.fd r)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let stats_of = function
  | Serve.Wire.Stats_reply kvs -> kvs
  | _ -> []

(* One synchronous request between phases; replies to earlier probes
   that are still in flight are skipped. *)
let sync c req =
  let id = 9_000_000 in
  send c ~id req;
  let rec wait () =
    match List.assoc_opt id (read_replies c) with
    | Some r -> r
    | None -> wait ()
  in
  wait ()

let stat kvs key =
  match List.assoc_opt key kvs with
  | Some v -> Option.value (float_of_string_opt v) ~default:0.0
  | None -> 0.0

(* --- phases --- *)

type outcome = {
  replies : Serve.Wire.reply option array;
  done_at : float array;
}

let outcome n = { replies = Array.make n None; done_at = Array.make n nan }

let give_up_s = 120.0

(* Closed loop: each connection keeps one request in flight. *)
let closed_loop tr conns inp items ~base =
  let n = Array.length items in
  let o = outcome n in
  let sent_at = Array.make n nan in
  let next = ref 0 and pending = ref 0 in
  let deadline = now () +. give_up_s in
  let send_next c =
    if !next < n then begin
      let i = !next in
      incr next;
      incr pending;
      sent_at.(i) <- now ();
      send c ~id:(base + i) (request inp items.(i))
    end
  in
  Array.iter send_next conns;
  while !pending > 0 && now () < deadline do
    List.iter
      (fun c ->
        List.iter
          (fun (id, r) ->
            let i = id - base in
            if i >= 0 && i < n && o.replies.(i) = None then begin
              o.replies.(i) <- Some r;
              o.done_at.(i) <- now ();
              decr pending;
              Option.iter
                (fun t ->
                  ignore
                    (Trace.record t ~op:id ~start:sent_at.(i) ~stop:o.done_at.(i)
                       ("serve.req." ^ kind_name items.(i).kind)
                      : int))
                tr;
              send_next c
            end)
          (read_replies c))
      (readable conns 0.05)
  done;
  o

type probes = {
  mutable ping_rtt : float list;
  mutable depth_max : float;
}

(* Open loop: request i is due at t0 + the sum of the first i gaps and
   goes out on connection (i mod 2) as soon as it is due, whatever is
   still in flight.  Pings (connection 0) and stats polls (connection 1)
   go out every probe interval; both are answered inline by the IO
   domain. *)
let open_loop tr conns inp ~base =
  let items = inp.phase_a in
  let n = Array.length items in
  let o = outcome n in
  let t0 = now () +. 0.05 in
  let due = Array.make n t0 in
  for i = 1 to n - 1 do
    due.(i) <- due.(i - 1) +. inp.gaps.(i)
  done;
  let sent_at = Array.make n nan in
  let probes = { ping_rtt = []; depth_max = 0.0 } in
  let ping_base = base + n and stats_base = base + (2 * n) in
  let ping_sent = Hashtbl.create 256 in
  let next = ref 0 and pending = ref 0 and probe = ref 0 in
  let next_probe = ref t0 in
  let deadline = due.(n - 1) +. give_up_s in
  while (!next < n || !pending > 0) && now () < deadline do
    let t = now () in
    while !next < n && due.(!next) <= t do
      let i = !next in
      incr next;
      incr pending;
      sent_at.(i) <- now ();
      send conns.(i mod 2) ~id:(base + i) (request inp items.(i))
    done;
    if !next < n && t >= !next_probe then begin
      let p = !probe in
      incr probe;
      Hashtbl.replace ping_sent (ping_base + p) (now ());
      send conns.(0) ~id:(ping_base + p) Serve.Wire.Ping;
      send conns.(1) ~id:(stats_base + p) Serve.Wire.Stats;
      next_probe := !next_probe +. probe_interval_s
    end;
    let wake =
      if !next < n then Float.min due.(!next) !next_probe else now () +. 0.05
    in
    let timeout = Float.max 0.0 (Float.min 0.05 (wake -. now ())) in
    List.iter
      (fun c ->
        List.iter
          (fun (id, r) ->
            let at = now () in
            if id >= stats_base then
              probes.depth_max <-
                Float.max probes.depth_max (stat (stats_of r) "queue_depth")
            else if id >= ping_base then begin
              match Hashtbl.find_opt ping_sent id with
              | Some s ->
                  probes.ping_rtt <- (at -. s) :: probes.ping_rtt;
                  Option.iter
                    (fun t ->
                      ignore (Trace.record t ~op:id ~start:s ~stop:at "serve.ping" : int))
                    tr
              | None -> ()
            end
            else
              let i = id - base in
              if i >= 0 && i < n && o.replies.(i) = None then begin
                o.replies.(i) <- Some r;
                o.done_at.(i) <- at;
                decr pending;
                Option.iter
                  (fun t ->
                    ignore
                      (Trace.record t ~op:id ~start:sent_at.(i) ~stop:at
                         ("serve.req." ^ kind_name items.(i).kind)
                        : int))
                  tr
              end)
          (read_replies c))
      (readable conns timeout)
  done;
  (o, due, sent_at, probes)

(* --- the run --- *)

type started = { pid : int; conns : conn array; warm : outcome }

let socket_path () =
  Filename.concat work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

let start tr inp =
  let socket = socket_path () in
  let pid = spawn_daemon socket in
  let deadline = now () +. 60.0 in
  let conns = Array.init 2 (fun _ -> connect_when_ready pid socket ~deadline) in
  let warm = closed_loop tr conns inp inp.warm ~base:1_000_000 in
  { pid; conns; warm }

let shutdown s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  stop_daemon s.pid

let run ~seed ~seconds:_ ~tr =
  let inp = make_inputs seed in
  (* set-up = spawn + model load + warm pass, [setups] times; the last
     daemon stays up for the timed phases *)
  let setup_s = ref [] and warm_outcomes = ref [] in
  let rec setup i =
    let s, dt = time (fun () -> start tr inp) in
    setup_s := dt :: !setup_s;
    warm_outcomes := s.warm :: !warm_outcomes;
    if i < setups then begin
      shutdown s;
      setup (i + 1)
    end
    else s
  in
  let s = setup 1 in
  let snapshot () = stats_of (sync s.conns.(0) Serve.Wire.Stats) in
  let s0 = snapshot () in
  let (a, due, sent_at, probes), a_wall =
    time (fun () -> open_loop tr s.conns inp ~base:0)
  in
  let s1 = snapshot () in
  let b, b_wall =
    time (fun () -> closed_loop tr s.conns inp inp.phase_b ~base:2_000_000)
  in
  let s2 = snapshot () in
  let rss = peak_rss_mb (string_of_int s.pid) in
  shutdown s;
  (* --- checks (outside the timed phases) --- *)
  let t = tally () in
  let solved = ref 0 and feasible = ref 0 in
  let verdicts items (o : outcome) =
    Array.mapi
      (fun i it ->
        let v =
          match o.replies.(i) with
          | Some r -> check inp it r
          | None -> { ok = false; wrong = false; solved = false }
        in
        count t ~ok:v.ok ~wrong:v.wrong;
        if not v.ok then
          note "serve_zipf: %s request failed: %s" (kind_name it.kind)
            (match o.replies.(i) with
            | None -> "no reply"
            | Some (Serve.Wire.Error_reply e) -> "error: " ^ e
            | Some r -> Serve.Wire.reply_to_string ~id:0 r |> String.split_on_char '\n' |> List.hd);
        incr feasible;
        if v.solved then incr solved;
        v)
      items
  in
  let oks vs = Array.fold_left (fun n v -> if v.ok then n + 1 else n) 0 vs in
  List.iter (fun o -> ignore (verdicts inp.warm o : verdict array)) !warm_outcomes;
  let va = verdicts inp.phase_a a in
  let a_ok = oks va and b_ok = oks (verdicts inp.phase_b b) in
  (* --- phase A latency, from each request's scheduled send time --- *)
  let lat = Array.mapi (fun i d -> 1000.0 *. (a.done_at.(i) -. d)) due in
  let answered = List.filter (fun i -> a.replies.(i) <> None) (List.init phase_a_requests Fun.id) in
  let lats = Array.of_list (List.map (fun i -> lat.(i)) answered) in
  let slo_miss =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i v -> if v.ok && lat.(i) <= slo_ms then 0 else 1) va)
  in
  let lag = Array.mapi (fun i d -> 1000.0 *. (sent_at.(i) -. d)) due in
  let p50 = median lats and tail_ms = tail lats in
  let gen_lag_p99 = quantile 0.99 lag in
  (* the generator's own lateness is part of every phase A latency; when
     it is a tenth of the tail the latency figures describe the harness *)
  let lag_flag = gen_lag_p99 > 0.1 *. tail_ms in
  if lag_flag then
    note "serve_zipf: generator lag p99 %.2f ms exceeds 10%% of the request tail %.2f ms"
      gen_lag_p99 tail_ms;
  let sat_rps = float_of_int phase_b_requests /. b_wall in
  let end_to_end =
    [
      ("setup_s", median (Array.of_list !setup_s));
      ("peak_rss_mb", rss);
      ("op_p50_ms", p50);
      ("op_tail_ms", tail_ms);
      ("ops_per_s", sat_rps);
      ("solved_frac", ratio (float_of_int !solved) (float_of_int !feasible));
    ]
  in
  let layers () =
    let d key = stat s1 key -. stat s0 key in
    let kind_p50 kind =
      median
        (Array.of_list
           (List.filter_map
              (fun i -> if inp.phase_a.(i).kind = kind then Some lat.(i) else None)
              answered))
    in
    let batches = d "infer_batches" in
    let lookups = d "cache_hits" +. d "cache_misses" in
    let rows_per_batch = ratio (d "infer_rows") batches in
    let pings = Array.of_list (List.map (fun x -> 1e6 *. x) probes.ping_rtt) in
    (* the in-process probes: same net, the 16 hottest pbqp_rl graphs of
       phase A (pool index = Zipf rank) *)
    let net = Nn.Pvnet.load net_path in
    let hot =
      List.sort_uniq compare
        (List.filter_map
           (fun it -> if it.kind = Pbqp_rl then Some it.idx else None)
           (Array.to_list inp.phase_a))
      |> List.filteri (fun i _ -> i < 16)
      |> List.map (fun i -> inp.graphs.(i))
    in
    let sr = Probe.search () in
    List.iteri
      (fun i g ->
        ignore
          (Probe.solve sr tr ~net ~op:i (fun () ->
               Core.Solver.solve_feasible ~net
                 ~mcts:{ Mcts.default_config with k } ~backtracking:true g)
            : Pbqp.Solution.t option))
      hot;
    let prepare_us, preps = Probe.prepare_us tr net (Probe.path_states ~order:Core.Order.Decreasing_liberty hot) in
    let trunk_us =
      Probe.trunk_us_per_row tr net preps
        ~batch:(int_of_float (Float.round rows_per_batch))
    in
    (* the checker's ATE path on this workload's programs *)
    let progs = Array.to_list inp.progs in
    let analyze_ms =
      Probe.per_call_ms tr "ate.analyze"
        (fun p -> ignore (Ate.Program.analyze_exn p : Ate.Program.info))
        progs
    in
    let build_ms =
      Probe.per_call_ms tr "ate.build"
        (fun info -> ignore (Ate.Pbqp_build.build machine info : Ate.Pbqp_build.t))
        (List.map Ate.Program.analyze_exn progs)
    in
    [
      ("serve.ping_p50_us", median pings);
      ("serve.ping_tail_us", tail pings);
      ("serve.queue_depth_max", probes.depth_max);
      ("serve.overloads", stat s2 "overloads" -. stat s0 "overloads");
      ("serve.timeouts", stat s2 "timeouts" -. stat s0 "timeouts");
      ("serve.a_sent", float_of_int phase_a_requests);
      ("serve.a_ok", float_of_int a_ok);
      ("serve.a_failed", float_of_int (phase_a_requests - a_ok));
      ("serve.b_sent", float_of_int phase_b_requests);
      ("serve.b_ok", float_of_int b_ok);
      ("serve.b_failed", float_of_int (phase_b_requests - b_ok));
      ("serve.slo_miss_frac", float_of_int slo_miss /. float_of_int phase_a_requests);
      ("serve.sat_rps", sat_rps);
    ]
    @ List.map
        (fun kind -> ("serve.req_p50_ms." ^ kind_name kind, kind_p50 kind))
        kinds
    @ [
        ("infer.rows_per_batch", rows_per_batch);
        ("infer.wait_p50_us", stat s2 "infer_wait_p50_us");
        ("infer.wait_p99_us", stat s2 "infer_wait_p99_us");
        ("infer.timeout_flush_frac", ratio (d "infer_timeout_flushes") batches);
        ("cache.hit_rate", ratio (d "cache_hits") lookups);
        ("cache.lookups", lookups);
        ("cache.evictions", d "cache_evictions");
        ("pvnet.evals_per_op", d "eval_count" /. float_of_int phase_a_requests);
        ("scholz.reduce_ms", Probe.reduce_ms tr hot);
        ("ate.analyze_ms", analyze_ms);
        ("ate.build_ms", build_ms);
        ("harness.gen_lag_p99_ms", gen_lag_p99);
        ("harness.gen_lag_flag", if lag_flag then 1.0 else 0.0);
      ]
    @ Probe.search_layers sr ~prepare_us ~trunk_us
  in
  ( { correct = t.wrong = 0; attempted = t.attempted; failed = t.failed;
      end_to_end; timed_s = a_wall +. b_wall },
    layers )
