(** Cross-worker dynamic-batching inference service.

    Every MCTS leaf reaches the network through a service: the daemon's
    shared one, one per net role in the trainer, or a one-worker service
    of its own for a solve that is given none.

    Pool workers submit their wave of {!Pvnet.prepared} leaves as a
    ticket and block; whichever submitter first observes a flush
    condition takes the {e floating server role}: it drains a
    version-uniform FIFO prefix of tickets, runs one coalesced
    {!Pvnet.predict_prepared} over the concatenated leaves, and
    distributes result slices back through the tickets.  No domain is
    dedicated to serving.  A partial batch flushes on the first of:
    - {b full}: [max_batch] rows are queued;
    - {b quorum}: every search registered with {!with_search} has a
      ticket queued, so nobody else can add a row;
    - {b timeout}: the head ticket has waited [wait_us].  This is a
      cap: it fires for submitters that never register and for a
      registered search busy outside its wave.

    Per-sample results are bitwise identical to a direct
    [predict_prepared] call regardless of batch composition (row
    independence of the batched GEMMs/LayerNorms), so episodes stay
    bit-exact for every (workers, batch, wait) schedule.  An exception
    raised while serving a batch is re-raised in every submitter whose
    ticket was in it (first-exn semantics, like [Par.Pool]). *)

type t

val create : ?max_batch:int -> ?wait_us:int -> workers:int -> unit -> t
(** [max_batch] (default 32) is the row budget per coalesced call — a
    single oversized wave still runs whole, never split.  [wait_us]
    (default 200) caps how long a partial batch may age before some
    submitter flushes it; registered searches normally flush earlier,
    by quorum.  [workers] is the number of domains that will
    submit; with [workers = 1] {!submit} runs each wave as a direct
    [predict_prepared], with no ticket or wait, and counts it as a
    quorum batch (a lone search is its own quorum).
    @raise Invalid_argument on non-positive [max_batch]/[workers] or
    negative [wait_us]. *)

val submit : t -> net:Pvnet.t -> Pvnet.prepared array -> (float array * float) array
(** Evaluate the caller's leaves, possibly coalesced with other
    workers' tickets.  Blocks until the result is available; the caller
    may end up serving the batch itself.  [net] must be the calling
    worker's own replica (the server may run the batch on it — safe,
    because the owner is parked right here while its ticket is in
    flight).  Returns [[||]] for [[||]]. *)

val with_search : t -> (unit -> 'a) -> 'a
(** [with_search t f] runs [f] counted as one running search, so the
    quorum rule can flush a partial batch once every running search is
    parked in {!submit}.  The count is released when [f] returns or
    raises; a release that completes the quorum of the searches still
    parked flushes their batch without waiting for [wait_us].
    Registration is a count, not an identity: [f] must submit from one
    thread at a time and must not call [with_search] on [t] again. *)

val workers : t -> int
val max_batch : t -> int

type stats = {
  batches : int;  (** coalesced [predict_prepared] calls served *)
  rows : int;  (** total leaf rows across all batches *)
  full_flushes : int;  (** batches triggered by a full row budget *)
  quorum_flushes : int;
      (** batches triggered by every registered search being parked *)
  timeout_flushes : int;  (** batches triggered by [wait_us] expiry *)
  max_batch_rows : int;  (** largest coalesced batch observed *)
  waits : int;  (** tickets drained (one queue wait each) *)
  wait_p50_us : float;
      (** median µs a ticket waited between enqueue and its batch firing,
          read from a histogram with four buckets per octave as the
          containing bucket's upper bound: never below the true
          quantile, and above it by less than 2^(1/4) (19%) *)
  wait_p99_us : float;  (** 99th-percentile queue wait, same resolution *)
}

val stats : t -> stats
(** Counter snapshot (taken under the service lock).  Every batch is
    counted by exactly one flush rule, so
    [full_flushes + quorum_flushes + timeout_flushes = batches]. *)

val poison_next_batch_for_test : t -> exn -> unit
(** Test hook: make the next coalesced batch raise [exn] inside the
    server's result-distribution phase — after the forward, with the
    queue lock held.  Exists to prove the failure path can never wedge
    the service: the exception must fan out to every ticket of the batch
    (parked waiters included), the server flag must clear, and later
    submissions must succeed.  Never call from serving code. *)

val plant_wait_for_test : t -> us:float -> unit
(** Test hook: count one drained ticket that waited [us] µs, as the
    server does, so a test can check the {!stats} quantile readback
    against known waits.  Never call from serving code. *)
