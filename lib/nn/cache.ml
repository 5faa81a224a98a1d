(* The evaluation cache: N mutex-guarded Evalcache shards.

   A single-owner LRU per (worker, net) keeps lookups lock-free but makes
   a position solved by worker 0 invisible to worker 5.  Striping
   restores sharing at a bounded cost: the shard index is a mix of the
   (already splitmix64-quality) state hash with the next-vertex index,
   so contention spreads across [stripes] independent locks and two
   workers only serialize when they touch the same stripe at the same
   moment.  With one stripe the single shard holds the whole capacity,
   so a one-worker cache is entry for entry the plain LRU.

   Determinism: a cache hit returns bitwise the same (priors, value) the
   network would produce (entries are version-stamped, equal versions
   mean bitwise-equal weights, and batched evaluation is row-independent)
   — so *sharing* entries across workers cannot perturb episode results,
   only the hit/miss counters. *)

type t = {
  shards : (Mutex.t * Evalcache.t) array;
  mask : int; (* stripes - 1; stripes is a power of two *)
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let striped ~stripes ~capacity =
  if stripes <= 0 then invalid_arg "Cache.striped: stripes <= 0";
  if capacity <= 0 then invalid_arg "Cache.striped: capacity <= 0";
  let stripes = next_pow2 stripes 1 in
  let per = max 1 (capacity / stripes) in
  {
    shards =
      Array.init stripes (fun _ ->
          (Mutex.create (), Evalcache.create ~capacity:per));
    mask = stripes - 1;
  }

let stripes c = Array.length c.shards

(* Mix next into the state hash so keys differing only in the next
   vertex spread across shards; odd 62-bit multipliers keep the stripe
   index well distributed even when state hashes share low bits. *)
let shard_of c ((hash, next) : Evalcache.key) =
  let h = (hash lxor (next * 0x2545F4914F6CDD1D)) * 0x3C79AC492BA7B653 in
  (h lsr 40) land c.mask

let find c ~version key =
  let m, shard = c.shards.(shard_of c key) in
  Mutex.lock m;
  let r = Evalcache.find shard ~version key in
  Mutex.unlock m;
  r

let store c ~version key v =
  let m, shard = c.shards.(shard_of c key) in
  Mutex.lock m;
  Evalcache.store shard ~version key v;
  Mutex.unlock m

let stripe_stats c =
  Array.map
    (fun (m, shard) ->
      Mutex.lock m;
      let s = Evalcache.stats shard in
      Mutex.unlock m;
      s)
    c.shards

let stats c =
  Array.fold_left
    (fun (acc : Evalcache.stats) (s : Evalcache.stats) ->
      {
        Evalcache.hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        evictions = acc.evictions + s.evictions;
        size = acc.size + s.size;
      })
    { Evalcache.hits = 0; misses = 0; evictions = 0; size = 0 }
    (stripe_stats c)

let hit_rate c =
  let s = stats c in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear c =
  Array.iter
    (fun (m, shard) ->
      Mutex.lock m;
      Evalcache.clear shard;
      Mutex.unlock m)
    c.shards
