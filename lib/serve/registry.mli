(** Warm-model registry: one master net plus a long-lived replica per
    daemon worker, refreshed between requests.

    {!reload} swaps the master and bumps the registry generation; it
    never blocks in-flight requests (they finish on the replica they
    started with) and can never poison caches — a loaded checkpoint
    carries a globally fresh {!Nn.Pvnet.version}, so version-stamped
    {!Nn.Evalcache} entries self-invalidate. *)

type t

val create : net:Nn.Pvnet.t -> workers:int -> t
(** @raise Invalid_argument on non-positive [workers]. *)

val workers : t -> int

val version : t -> int
(** The master's current weights version (what replicas converge to). *)

val generation : t -> int
(** Bumped by every successful {!reload}; starts at 1. *)

val for_worker : t -> worker:int -> Nn.Pvnet.t
(** The worker's replica, refreshed from the master if a reload happened
    since the last call.  Call between requests, never mid-solve; the
    returned net is the caller's exclusively until its next
    [for_worker]. *)

val reload : t -> string -> (int, string) result
(** Load a checkpoint and make it the master; returns its weights
    version.  [Error] (with the load's message) leaves the registry
    unchanged. *)

val eval_count : t -> int
(** Total leaf evaluations served across all worker replicas. *)
