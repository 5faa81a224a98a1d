(** Inference service: the one seam between search and network.

    Every MCTS leaf reaches the network through a service: the daemon's
    shared one, one per net role in the trainer, or a one-worker service
    of its own for a solve that is given none.

    A service is a counted direct call, for every worker count: each
    worker runs its own wave as one {!Pvnet.predict_prepared} on its own
    replica, and the service counts the wave and its rows.  No wave
    waits for another worker's, so one worker's domain can never stall
    another's.  Per-sample results are bitwise identical for every
    batch composition (row independence of the batched GEMMs and
    LayerNorms), so episodes are the same for every worker count.  An
    exception raised by a forward reaches only the worker whose wave
    raised it. *)

type t

val create : ?max_batch:int -> ?wait_us:int -> workers:int -> unit -> t
(** [workers] is the number of domains that will submit.  [max_batch]
    (default 32) and [wait_us] (default 200) are ignored: they remain
    only because the benchmark passes them, and go with its next
    change.
    @raise Invalid_argument on non-positive [max_batch]/[workers] or
    negative [wait_us]. *)

val submit : t -> net:Pvnet.t -> Pvnet.prepared array -> (float array * float) array
(** [submit t ~net preps] is [Pvnet.predict_prepared net preps], counted
    as one batch of [Array.length preps] rows once it returns.  [net]
    must be the calling worker's own replica.  Returns [[||]] for [[||]],
    counting nothing. *)

type stats = {
  batches : int;  (** waves evaluated *)
  rows : int;  (** total leaf rows across all waves *)
  timeout_flushes : int;  (** always 0: nothing waits on a timer *)
  wait_p50_us : float;  (** always 0: no wave waits *)
  wait_p99_us : float;  (** always 0 *)
}

val stats : t -> stats
(** Counter snapshot.  The three fields that always read 0 remain only
    because the benchmark reads them, and go with its next change. *)
