(* Cross-worker dynamic-batching inference service.

   Each pool worker's MCTS wave is small (≤ config.batch leaves), so
   per-worker [Pvnet.predict_prepared] calls run the trunk/heads GEMMs
   over a handful of rows, each pass re-streaming the packed weights.  The
   service coalesces waves across workers: a submitter enqueues its
   prepared leaves as a *ticket* and blocks; whichever submitter first
   observes a flush condition takes the floating *server* role, drains a
   version-uniform FIFO prefix of tickets, runs ONE coalesced
   [predict_prepared] over the concatenated leaves, and hands each
   ticket its result slice.  No domain is dedicated to serving — with
   j workers all j keep doing search work, and the role costs exactly
   the predict the worker was going to block on anyway.

   Flush rules, checked in this order whenever no server is running:
   - full: the queued tickets hold >= max_batch rows;
   - quorum: at least one search is registered ([with_search]) and at
     least as many tickets are queued as searches are registered — every
     running search is parked, so nobody else can add a row;
   - timeout: the head ticket has aged wait_us.  This is a cap, not a
     knob: every search registers, so it fires only for a registered
     search that is busy outside its wave (or a caller that submits
     without registering).
   A one-worker service has nobody to coalesce with: [submit] runs the
   wave directly and counts it as a quorum batch of its own.
   Registration is a count, not a set of identities: a search holds one
   ticket at a time (submit blocks), and while no server runs every
   unanswered ticket is still queued, so the queue length is the number
   of parked searches.  A parked submitter rechecks the rules after
   every sleep slice (at most 50 µs), so a search that leaves and
   thereby completes the quorum of those still parked releases them
   within one slice, not at the timer.

   Determinism.  Every output row of the batched trunk/heads GEMMs and
   per-row LayerNorms depends only on its own input row, so a leaf's
   (priors, value) is bitwise identical whether it is evaluated alone,
   inside its own worker's wave, or sandwiched between strangers' leaves
   in a coalesced batch.  Batch *composition* is scheduling-dependent;
   batch results are not — which is why episodes stay bit-exact for
   every (workers, max_batch, wait_us) setting (test_serve locks this
   down).

   Which net runs the batch: tickets carry the submitter's replica and
   its weights version; a batch only groups tickets of equal version,
   and equal versions imply bitwise-equal weights (the Pvnet.version
   contract), so the server simply uses the first ticket's net.  That
   replica's owning worker is blocked in [submit] while its ticket is in
   flight, so the server has exclusive use of its scratch arena.

   Blocking.  OCaml's Condition has no timed wait, so a submitter that
   cannot yet serve sleeps in short slices (cpu_relax first, then
   microsleeps bounded by the remaining wait) and rechecks; once a
   server is active, waiters park in Condition.wait and are woken by the
   server's broadcast.  An exception in the server marks every ticket of
   the batch failed and each submitter re-raises it — first-exn
   semantics like Par.Pool. *)

type ticket = {
  t_preps : Pvnet.prepared array;
  t_version : int;
  t_net : Pvnet.t;
  t_enqueued : float;
  mutable t_result : (float array * float) array option
      [@guarded_by "mutex"];
  mutable t_failed : (exn * Printexc.raw_backtrace) option
      [@guarded_by "mutex"];
}

type stats = {
  batches : int;
  rows : int;
  full_flushes : int;
  quorum_flushes : int;
  timeout_flushes : int;
  max_batch_rows : int;
  waits : int;
  wait_p50_us : float;
  wait_p99_us : float;
}

(* Queue-wait histogram: quarter-octave µs buckets — bucket b counts
   tickets that waited in [2^(b/4), 2^((b+1)/4)) µs between enqueue and
   batch drain (bucket 0 also absorbs shorter waits).  Quantiles are
   read back as a bucket's upper bound, so a reported p99 means "99% of
   tickets waited at most this long", and overstates it by less than
   2^(1/4) (19%).  128 buckets span 2^32 µs. *)
let steps_per_octave = 4
let wait_buckets = 32 * steps_per_octave

let wait_bucket_of_us us =
  if us < 1.0 then 0
  else
    let b = int_of_float (float_of_int steps_per_octave *. Float.log2 us) in
    min (wait_buckets - 1) b

let wait_quantile hist total q =
  if total = 0 then 0.0
  else begin
    let rank = Float.max 1.0 (Float.round (q *. float_of_int total)) in
    let acc = ref 0 and b = ref 0 in
    (try
       for i = 0 to wait_buckets - 1 do
         acc := !acc + hist.(i);
         if float_of_int !acc >= rank then begin
           b := i;
           raise Exit
         end
       done;
       b := wait_buckets - 1
     with Exit -> ());
    Float.pow 2.0 (float_of_int (!b + 1) /. float_of_int steps_per_octave)
  end

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : ticket Queue.t;
  max_batch : int;
  wait_s : float;
  workers : int;
  mutable pending_rows : int [@guarded_by "mutex"];
  mutable serving : bool [@guarded_by "mutex"];
  mutable active : int [@guarded_by "mutex"];
      (* searches inside [with_search] *)
  mutable s_batches : int [@guarded_by "mutex"];
  mutable s_rows : int [@guarded_by "mutex"];
  mutable s_full : int [@guarded_by "mutex"];
  mutable s_quorum : int [@guarded_by "mutex"];
  mutable s_timeout : int [@guarded_by "mutex"];
  mutable s_max_rows : int [@guarded_by "mutex"];
  mutable s_waits : int [@guarded_by "mutex"];
  s_wait_hist : int array; [@guarded_by "mutex"]
  mutable poison : exn option [@guarded_by "mutex"];
      (* test hook: raised once inside the server's result-distribution
         phase (lock held) to prove the failure path cannot wedge *)
}

let create ?(max_batch = 32) ?(wait_us = 200) ~workers () =
  if max_batch <= 0 then invalid_arg "Infer.create: max_batch <= 0";
  if wait_us < 0 then invalid_arg "Infer.create: wait_us < 0";
  if workers <= 0 then invalid_arg "Infer.create: workers <= 0";
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    max_batch;
    wait_s = float_of_int wait_us /. 1e6;
    workers;
    pending_rows = 0;
    serving = false;
    active = 0;
    s_batches = 0;
    s_rows = 0;
    s_full = 0;
    s_quorum = 0;
    s_timeout = 0;
    s_max_rows = 0;
    s_waits = 0;
    s_wait_hist = Array.make wait_buckets 0;
    poison = None;
  }

let poison_next_batch_for_test t e =
  Mutex.lock t.mutex;
  t.poison <- Some e;
  Mutex.unlock t.mutex

(* Called with the lock held: one drained ticket that waited [us]. *)
let record_wait t us =
  let b = wait_bucket_of_us us in
  t.s_wait_hist.(b) <- t.s_wait_hist.(b) + 1;
  t.s_waits <- t.s_waits + 1
[@@requires_lock "mutex"]

let plant_wait_for_test t ~us =
  Mutex.lock t.mutex;
  record_wait t us;
  Mutex.unlock t.mutex

let workers t = t.workers
let max_batch t = t.max_batch

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      batches = t.s_batches;
      rows = t.s_rows;
      full_flushes = t.s_full;
      quorum_flushes = t.s_quorum;
      timeout_flushes = t.s_timeout;
      max_batch_rows = t.s_max_rows;
      waits = t.s_waits;
      wait_p50_us = wait_quantile t.s_wait_hist t.s_waits 0.50;
      wait_p99_us = wait_quantile t.s_wait_hist t.s_waits 0.99;
    }
  in
  Mutex.unlock t.mutex;
  s

(* Called with the lock held.  Pops the FIFO prefix of tickets sharing
   the head's weights version, up to [max_batch] rows — always at least
   the head ticket, even if it alone exceeds the budget (a submitter's
   wave is never split). *)
let drain_batch t =
  let head = Queue.peek t.queue in
  let batch = ref [] and brows = ref 0 in
  let continue_ = ref true in
  let now = Unix.gettimeofday () in
  while !continue_ do
    match Queue.peek_opt t.queue with
    | Some tk
      when tk.t_version = head.t_version
           && (!brows = 0 || !brows + Array.length tk.t_preps <= t.max_batch)
      ->
        ignore (Queue.pop t.queue);
        record_wait t ((now -. tk.t_enqueued) *. 1e6);
        batch := tk :: !batch;
        brows := !brows + Array.length tk.t_preps
    | _ -> continue_ := false
  done;
  t.pending_rows <- t.pending_rows - !brows;
  (List.rev !batch, !brows)
[@@requires_lock "mutex"]

type flush = Full | Quorum | Timeout

(* Called with the lock held and no server running: every registered
   search has a ticket queued. *)
let quorum t = t.active > 0 && Queue.length t.queue >= t.active
[@@requires_lock "mutex"]

(* Called with the lock held: one batch of [brows] rows, flushed by
   rule [why]. *)
let count_batch t why brows =
  t.s_batches <- t.s_batches + 1;
  t.s_rows <- t.s_rows + brows;
  (match why with
  | Full -> t.s_full <- t.s_full + 1
  | Quorum -> t.s_quorum <- t.s_quorum + 1
  | Timeout -> t.s_timeout <- t.s_timeout + 1);
  if brows > t.s_max_rows then t.s_max_rows <- brows
[@@requires_lock "mutex"]

(* Called with the lock held; returns with the lock held.  Runs one
   coalesced batch (the network call itself happens unlocked). *)
let serve t why =
  let batch, brows = drain_batch t in
  t.serving <- true;
  count_batch t why brows;
  Mutex.unlock t.mutex;
  let outcome =
    try
      let all = Array.concat (List.map (fun tk -> tk.t_preps) batch) in
      let net = (List.hd batch).t_net in
      let results = Pvnet.predict_prepared net all in
      (* defend the distribution below: a forward that returns the wrong
         row count (a broken net/kernel) must fail the batch, not raise
         mid-distribution with the lock held *)
      if Array.length results <> brows then
        failwith
          (Printf.sprintf
             "Infer: forward returned %d rows for a %d-row batch"
             (Array.length results) brows);
      Ok results
    with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.mutex;
  (* From here to the broadcast, nothing may escape: an exception raised
     with the lock held (and [serving] still set) would park every other
     submitter in [Condition.wait] forever — the daemon-wedging failure
     mode the poison-injection regression test exercises.  Any exception
     in the distribution phase fans out to every ticket of the batch not
     yet released, exactly like a forward failure. *)
  (try
     (match t.poison with
     | Some e ->
         t.poison <- None;
         raise e
     | None -> ());
     match outcome with
     | Ok results ->
         let off = ref 0 in
         List.iter
           (fun tk ->
             let n = Array.length tk.t_preps in
             tk.t_result <- Some (Array.sub results !off n);
             off := !off + n)
           batch
     | Error err -> List.iter (fun tk -> tk.t_failed <- Some err) batch
   with e ->
     let err = (e, Printexc.get_raw_backtrace ()) in
     List.iter
       (fun tk ->
         if tk.t_result = None && tk.t_failed = None then
           tk.t_failed <- Some err)
       batch);
  t.serving <- false;
  Condition.broadcast t.cond
[@@requires_lock "mutex"]

let submit t ~net preps =
  if Array.length preps = 0 then [||]
  else if t.workers <= 1 then begin
    (* one submitter: nobody will ever coalesce with it, so the wave is
       its own quorum and runs directly, with no ticket and no wait *)
    Mutex.lock t.mutex;
    count_batch t Quorum (Array.length preps);
    Mutex.unlock t.mutex;
    Pvnet.predict_prepared net preps
  end
  else begin
    let tk =
      {
        t_preps = preps;
        t_version = Pvnet.version net;
        t_net = net;
        t_enqueued = Unix.gettimeofday ();
        t_result = None;
        t_failed = None;
      }
    in
    Mutex.lock t.mutex;
    Queue.add tk t.queue;
    t.pending_rows <- t.pending_rows + Array.length preps;
    let rec loop spin =
      match tk.t_result with
      | Some r ->
          Mutex.unlock t.mutex;
          r
      | None -> (
          match tk.t_failed with
          | Some (e, bt) ->
              Mutex.unlock t.mutex;
              Printexc.raise_with_backtrace e bt
          | None ->
              if t.serving then begin
                (* a server is running; it broadcasts when done *)
                Condition.wait t.cond t.mutex;
                loop spin
              end
              else begin
                let now = Unix.gettimeofday () in
                let age =
                  match Queue.peek_opt t.queue with
                  | Some head -> now -. head.t_enqueued
                  | None -> 0.0
                in
                let flush =
                  if Queue.is_empty t.queue then None
                  else if t.pending_rows >= t.max_batch then Some Full
                  else if quorum t then Some Quorum
                  else if age >= t.wait_s then Some Timeout
                  else None
                in
                match flush with
                | Some why ->
                    serve t why;
                    loop spin
                | None ->
                    (* nothing to serve yet: sleep a slice bounded by the
                       remaining wait, then recheck (no timed Condition
                       wait in OCaml); a newly arriving submitter that
                       fills the batch or completes the quorum will serve
                       it itself *)
                    Mutex.unlock t.mutex;
                    if spin < 32 then Domain.cpu_relax ()
                    else
                      Unix.sleepf
                        (Float.max 1e-6 (Float.min (t.wait_s -. age) 5e-5));
                    Mutex.lock t.mutex;
                    loop (spin + 1)
              end)
    in
    loop 0
  end

let with_search t f =
  let register delta =
    Mutex.lock t.mutex;
    t.active <- t.active + delta;
    Mutex.unlock t.mutex
  in
  register 1;
  Fun.protect f ~finally:(fun () -> register (-1))
