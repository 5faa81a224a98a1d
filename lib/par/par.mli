(** A persistent work-sharing domain pool (OCaml 5 parallelism).

    One pool is spawned per run ({!Pool.create}) and reused for every
    parallel region — GEMM row blocks, data-parallel gradient shards,
    self-play episodes, arena games — instead of paying a [Domain.spawn]
    (and net re-clone) per iteration.  Worker domains block on a
    mutex/condvar-guarded task queue; the submitting domain participates
    in draining the queue, so a pool of size [d] applies [d] domains to
    every region (including the caller's).

    {b Determinism contract.}  Scheduling (which worker runs which task,
    and in what real-time order) is nondeterministic; results are not.
    Every combinator keys results by {e task index}, never by completion
    order: {!Pool.map} writes slot [i] from task [i], and {!Pool.reduce}
    folds the per-index results in ascending index order on the calling
    domain after the barrier.  A computation whose tasks do not depend on
    the worker index therefore produces bit-identical results for every
    pool size, 1 included.

    {b Re-entrancy.}  Calling into the pool from inside a task must not
    deadlock on the shared queue: nested regions detect they are already
    executing on the pool and run their tasks inline, serially, on the
    current worker.  The [worker] index passed to task functions
    identifies the executing domain (0 = the submitting domain) so tasks
    can index per-worker replicas of non-thread-safe state; nested
    inline tasks inherit the enclosing worker's index.

    The pool is designed for a single submitting domain (the one that
    called {!Pool.create}); submitting concurrently from several domains
    is not supported. *)

module Pool : sig
  type t

  val create : domains:int -> t
  (** [create ~domains] spawns [domains - 1] worker domains (the caller
      is the remaining worker).  Values [<= 1] yield a pool of size 1
      that runs everything inline with zero synchronization. *)

  val size : t -> int
  (** Total workers applied to a region, including the caller. *)

  val shutdown : t -> unit
  (** Signal the workers to exit and join them.  Idempotent; using the
      pool afterwards raises [Invalid_argument]. *)

  val run : t -> (int -> unit) array -> unit
  (** [run t tasks] executes every task (each receives the worker index
      it runs on) and returns when all have finished — a barrier.  The
      first exception raised by any task is re-raised on the caller
      after the barrier. *)

  val parallel_for : t -> n:int -> ?chunk:int -> (worker:int -> int -> unit) -> unit
  (** [parallel_for t ~n f] runs [f ~worker i] for [i = 0 .. n-1],
      partitioned into contiguous chunks ([chunk] indices per task;
      defaults to an even split across workers). *)

  val map : t -> f:(worker:int -> 'a -> 'b) -> 'a array -> 'b array
  (** [map t ~f xs] is [Array.map] with one task per element; result [i]
      comes from input [i] regardless of scheduling. *)

  val reduce :
    t -> n:int -> map:(worker:int -> int -> 'a) -> fold:('b -> 'a -> 'b) ->
    init:'b -> 'b
  (** [reduce t ~n ~map ~fold ~init] computes [map ~worker i] for every
      index in parallel, then folds the results {e in ascending index
      order} on the calling domain — the float-summation order is fixed
      by construction, independent of pool size and scheduling. *)
end

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [\[1; 8\]]: beyond
    a handful of domains the self-play workloads here are memory-bound
    and the marginal domain only adds GC pressure. *)
