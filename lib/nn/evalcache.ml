(* LRU transposition cache for network evaluations.

   Keys are (state hash, next vertex); entries carry the weights version
   (Pvnet.version) they were computed under, and a lookup only hits when
   the stored version equals the caller's — a stale entry is a miss and
   is overwritten by the following store.  Single-domain by design: the
   training loop keeps one cache per (pool worker, net replica), so no
   locking is needed (like each replica's single-owner arena). *)

type key = int * int

type entry = {
  key : key;
  mutable priors : float array;
  mutable value : float;
  mutable version : int;
  mutable newer : entry option;
  mutable older : entry option;
}

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable newest : entry option;
  mutable oldest : entry option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Evalcache.create: capacity <= 0";
  {
    capacity;
    table = Hashtbl.create (min capacity 4096);
    newest = None;
    oldest = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity c = c.capacity
let length c = Hashtbl.length c.table
let hits c = c.hits
let misses c = c.misses

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total

let unlink c e =
  (match e.newer with
  | Some n -> n.older <- e.older
  | None -> c.newest <- e.older);
  (match e.older with
  | Some o -> o.newer <- e.newer
  | None -> c.oldest <- e.newer);
  e.newer <- None;
  e.older <- None

let push_newest c e =
  e.older <- c.newest;
  e.newer <- None;
  (match c.newest with
  | Some n -> n.newer <- Some e
  | None -> c.oldest <- Some e);
  c.newest <- Some e

let find c ~version key =
  match Hashtbl.find_opt c.table key with
  | Some e when e.version = version ->
      c.hits <- c.hits + 1;
      unlink c e;
      push_newest c e;
      Some (Array.copy e.priors, e.value)
  | _ ->
      c.misses <- c.misses + 1;
      None

let store c ~version key (priors, value) =
  match Hashtbl.find_opt c.table key with
  | Some e ->
      e.priors <- Array.copy priors;
      e.value <- value;
      e.version <- version;
      unlink c e;
      push_newest c e
  | None ->
      let e =
        { key; priors = Array.copy priors; value; version;
          newer = None; older = None }
      in
      Hashtbl.replace c.table key e;
      push_newest c e;
      if Hashtbl.length c.table > c.capacity then
        match c.oldest with
        | Some old ->
            unlink c old;
            Hashtbl.remove c.table old.key;
            c.evictions <- c.evictions + 1
        | None -> ()

let clear c =
  Hashtbl.reset c.table;
  c.newest <- None;
  c.oldest <- None;
  c.hits <- 0;
  c.misses <- 0;
  c.evictions <- 0

type stats = { hits : int; misses : int; evictions : int; size : int }

let stats (c : t) =
  {
    hits = c.hits;
    misses = c.misses;
    evictions = c.evictions;
    size = Hashtbl.length c.table;
  }
