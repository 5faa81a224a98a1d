(** LRU transposition cache for {!Pvnet} evaluations.

    Maps [(state hash, next vertex)] to the network's [(priors, value)],
    evicting least-recently-used entries beyond [capacity].  Entries are
    stamped with the {!Pvnet.version} of the weights that produced them;
    {!find} treats a version mismatch as a miss, so an entry computed
    before an optimizer step is never served afterwards — no explicit
    invalidation is needed.

    Not thread-safe: use one cache per (worker, net replica), like each
    replica's inference arena (see DESIGN.md).  Hits return copies of
    the stored priors, so callers may mutate them freely.  Because keys
    ({!Zhash} over the exact move sequence of one graph instance) only
    collide for bitwise-identical states under identical weights, search
    results with and without a cache are bit-identical. *)

type t

type key = int * int
(** [(state hash, next vertex)]. *)

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val find : t -> version:int -> key -> (float array * float) option
(** A hit only when present {e and} stamped with [version]; counts into
    {!hits}/{!misses} accordingly. *)

val store : t -> version:int -> key -> float array * float -> unit
(** Insert or overwrite (also refreshing recency and the stamp). *)

val capacity : t -> int
val length : t -> int
val hits : t -> int
val misses : t -> int

type stats = { hits : int; misses : int; evictions : int; size : int }
(** Counter snapshot: lifetime hits/misses/LRU-evictions plus the current
    entry count. *)

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val clear : t -> unit
(** Drop all entries and reset the counters. *)
