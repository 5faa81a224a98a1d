(** Inference service: the one seam between search and network.

    Every MCTS leaf reaches the network through a service: the daemon's
    shared one, one per net role in the trainer, or a one-worker service
    of its own for a solve that is given none.

    A service is a counted direct call, for every worker count: each
    worker runs its own leaf as a one-row {!Pvnet.predict_prepared} on
    its own replica, and the service counts the row.  No leaf waits for
    another worker's, so one worker's domain can never stall another's.
    Per-sample results are bitwise identical for every batch
    composition (row independence of the GEMMs and LayerNorms), so
    episodes are the same for every worker count.  An exception raised
    by a forward reaches only the worker whose leaf raised it. *)

type t

val create : ?max_batch:int -> ?wait_us:int -> workers:int -> unit -> t
(** [workers] is the number of domains that will submit.  [max_batch]
    (default 32) and [wait_us] (default 200) are ignored: they remain
    only because the benchmark passes them, and go with its next
    change.
    @raise Invalid_argument on non-positive [max_batch]/[workers] or
    negative [wait_us]. *)

val submit : t -> net:Pvnet.t -> Pvnet.prepared -> float array * float
(** [submit t ~net prep] is the one row of [Pvnet.predict_prepared net
    [| prep |]], counted once it returns.  [net] must be the calling
    worker's own replica. *)

type stats = {
  batches : int;  (** forwards run: always equal to [rows] *)
  rows : int;  (** leaf rows evaluated *)
  timeout_flushes : int;  (** always 0: nothing waits on a timer *)
  wait_p50_us : float;  (** always 0: no leaf waits *)
  wait_p99_us : float;  (** always 0 *)
}

val stats : t -> stats
(** Counter snapshot.  [batches] and the three fields that always read
    0 remain only because the benchmark reads them, and go with its next
    change. *)
