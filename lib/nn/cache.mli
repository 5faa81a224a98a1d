(** The evaluation cache used by the core game/episode plumbing and the
    daemon: N mutex-guarded {!Evalcache} shards, the shard chosen by a
    mix of the state hash with the next vertex.  A position evaluated by
    one pool worker is a hit for every other worker; since a hit returns
    bitwise what the network would compute under the same weights
    version, sharing affects only the hit/miss counters, never results.
    One stripe is the single-owner case: its shard holds the whole
    capacity, so it behaves entry for entry like one {!Evalcache}. *)

type t

val striped : stripes:int -> capacity:int -> t
(** [stripes] is rounded up to a power of two; [capacity] is the total
    entry budget, split evenly across shards (at least 1 each).
    @raise Invalid_argument if either is [<= 0]. *)

val stripes : t -> int
(** Actual shard count after rounding. *)

val find : t -> version:int -> Evalcache.key -> (float array * float) option
val store : t -> version:int -> Evalcache.key -> float array * float -> unit

val stripe_stats : t -> Evalcache.stats array
(** Per-shard counter snapshots, in shard order. *)

val stats : t -> Evalcache.stats
(** Sum over shards. *)

val hit_rate : t -> float
val clear : t -> unit
