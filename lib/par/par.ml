(* Persistent work-sharing domain pool.  See par.mli for the contract.

   Layout: one mutex guards a FIFO of thunks plus a [pending] count of
   tasks submitted-but-not-finished for the current region.  Worker
   domains loop on [work]: pop a task, run it outside the lock, signal
   [done_] when [pending] drops to zero.  The submitting domain enqueues
   the whole region, broadcasts, then drains the queue itself before
   blocking on [done_] — so the caller is a full worker and a pool of
   size 1 never takes the lock at all.

   Nested regions (a task calling back into the pool, e.g. pool-backed
   matmul inside a self-play episode) would deadlock on [done_] because
   the blocked task occupies the worker needed to finish the inner
   region.  A domain-local [in_region] flag detects this and runs inner
   regions inline, serially, on the current worker; [worker_ix] records
   which worker we are so nested tasks still index per-worker state
   correctly. *)

type task = { fn : int -> unit; ix : int }
(* [ix] is unused by the pool itself; kept for debuggability. *)

type pool = {
  mutex : Mutex.t;
  work : Condition.t;        (* signalled when tasks are enqueued / stop set *)
  done_ : Condition.t;       (* signalled when [pending] reaches 0 *)
  queue : task Queue.t;
  mutable pending : int [@guarded_by "mutex"];
      (* tasks of the current region not yet finished *)
  mutable stop : bool [@guarded_by "mutex"];
  mutable exn : (exn * Printexc.raw_backtrace) option [@guarded_by "mutex"];
      (* first task failure *)
  mutable alive : bool;
  mutable workers : unit Domain.t array; (* the [size - 1] spawned domains *)
  size : int;
}

let in_region : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let worker_ix : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let run_task t (tk : task) ~worker =
  ignore tk.ix;
  (try tk.fn worker
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Mutex.lock t.mutex;
     if t.exn = None then t.exn <- Some (e, bt);
     Mutex.unlock t.mutex);
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.done_;
  Mutex.unlock t.mutex

let worker_loop t ~worker =
  Domain.DLS.set worker_ix worker;
  Domain.DLS.set in_region true;
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work t.mutex
    done;
    if Queue.is_empty t.queue && t.stop then Mutex.unlock t.mutex
    else begin
      let tk = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      run_task t tk ~worker;
      loop ()
    end
  in
  loop ()

module Pool = struct
  type t = pool

  let create ~domains =
    let size = max 1 domains in
    let t =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        done_ = Condition.create ();
        queue = Queue.create ();
        pending = 0;
        stop = false;
        exn = None;
        alive = true;
        workers = [||];
        size;
      }
    in
    t.workers <-
      Array.init (size - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~worker:(i + 1)));
    t

  let size t = t.size

  let check_alive t =
    if not t.alive then invalid_arg "Par.Pool: pool already shut down"

  let run_inline tasks =
    let worker = Domain.DLS.get worker_ix in
    Array.iter (fun fn -> fn worker) tasks

  let run t tasks =
    check_alive t;
    let n = Array.length tasks in
    if n = 0 then ()
    else if t.size = 1 || Domain.DLS.get in_region then run_inline tasks
    else begin
      Mutex.lock t.mutex;
      t.exn <- None;
      t.pending <- n;
      Array.iteri (fun ix fn -> Queue.push { fn; ix } t.queue) tasks;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* The caller drains the queue as worker 0. *)
      Domain.DLS.set in_region true;
      let rec help () =
        Mutex.lock t.mutex;
        if Queue.is_empty t.queue then Mutex.unlock t.mutex
        else begin
          let tk = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          run_task t tk ~worker:0;
          help ()
        end
      in
      help ();
      Domain.DLS.set in_region false;
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.done_ t.mutex
      done;
      let exn = t.exn in
      t.exn <- None;
      Mutex.unlock t.mutex;
      match exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end

  let parallel_for t ~n ?chunk f =
    if n <= 0 then ()
    else begin
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 ((n + t.size - 1) / t.size)
      in
      let ntasks = (n + chunk - 1) / chunk in
      let tasks =
        Array.init ntasks (fun b ->
            let lo = b * chunk in
            let hi = min n (lo + chunk) in
            fun worker ->
              for i = lo to hi - 1 do
                f ~worker i
              done)
      in
      run t tasks
    end

  let map t ~f xs =
    let n = Array.length xs in
    if n = 0 then [||]
    else begin
      let out = Array.make n None in
      let tasks =
        Array.init n (fun i ->
            fun worker -> out.(i) <- Some (f ~worker xs.(i)))
      in
      run t tasks;
      Array.map
        (function
          | Some v -> v
          | None -> assert false (* run is a barrier; every slot is filled *))
        out
    end

  let reduce t ~n ~map:mapf ~fold ~init =
    if n <= 0 then init
    else begin
      let out = Array.make n None in
      let tasks =
        Array.init n (fun i ->
            fun worker -> out.(i) <- Some (mapf ~worker i))
      in
      run t tasks;
      (* Ascending-index fold on the calling domain: the combination
         order is fixed by construction, independent of scheduling. *)
      Array.fold_left
        (fun acc v ->
          match v with Some v -> fold acc v | None -> assert false)
        init out
    end

  let shutdown t =
    if t.alive then begin
      t.alive <- false;
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      Array.iter Domain.join t.workers
    end
end

let recommended_domains () = max 1 (min 8 (Domain.recommended_domain_count ()))
