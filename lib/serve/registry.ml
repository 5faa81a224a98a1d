(* Warm-model registry for the serving daemon.

   One master net (the checkpoint most recently loaded) plus one
   long-lived replica per daemon worker.  Workers refresh their replica
   from the master *between* requests ([for_worker]); a [reload] swaps
   the master under the lock and bumps the generation, so in-flight
   requests keep solving on the replica they started with and nothing
   blocks on the (slow) checkpoint load beyond the swap itself.

   Cache safety is free: a loaded checkpoint carries a globally fresh
   [Pvnet.version] stamp, replicas inherit it via [sync]/[copy_into],
   and version-stamped {!Nn.Evalcache} entries self-invalidate — so a
   reload can never poison a cache entry, and a request in flight keeps
   evaluating on its own replica's weights.  [generation] (registry-local) and [Pvnet.version] (weights
   identity) are deliberately distinct counters: syncing a replica does
   not bump the version, and directly mutating the master's weights
   without a reload would not bump the generation. *)

type slot = {
  mutable s_net : Nn.Pvnet.t option [@guarded_by "mutex"];
  mutable s_gen : int [@guarded_by "mutex"];
}

type t = {
  mutex : Mutex.t;
  mutable master : Nn.Pvnet.t [@guarded_by "mutex"];
  mutable generation : int [@guarded_by "mutex"];
  slots : slot array;  (* slot i belongs to worker i; refresh under lock *)
}

let create ~net ~workers =
  if workers <= 0 then invalid_arg "Registry.create: workers <= 0";
  {
    mutex = Mutex.create ();
    master = net;
    generation = 1;
    slots = Array.init workers (fun _ -> { s_net = None; s_gen = 0 });
  }

let workers t = Array.length t.slots

let version t =
  Mutex.lock t.mutex;
  let v = Nn.Pvnet.version t.master in
  Mutex.unlock t.mutex;
  v

let generation t =
  Mutex.lock t.mutex;
  let g = t.generation in
  Mutex.unlock t.mutex;
  g

let for_worker t ~worker =
  let slot = t.slots.(worker) in
  Mutex.lock t.mutex;
  let net =
    match slot.s_net with
    | Some net when slot.s_gen = t.generation -> net
    | Some net when Nn.Pvnet.config net = Nn.Pvnet.config t.master ->
        (* stale but same shape: refresh weights in place (no realloc) *)
        Nn.Pvnet.copy_into ~src:t.master ~dst:net;
        slot.s_gen <- t.generation;
        net
    | _ ->
        (* first use, or the reload changed the architecture *)
        let net = Nn.Pvnet.clone t.master in
        slot.s_net <- Some net;
        slot.s_gen <- t.generation;
        net
  in
  Mutex.unlock t.mutex;
  net

let reload t path =
  match Nn.Pvnet.load path with
  | exception (Invalid_argument msg | Sys_error msg | Failure msg) ->
      Error msg
  | net ->
      Mutex.lock t.mutex;
      t.master <- net;
      t.generation <- t.generation + 1;
      let v = Nn.Pvnet.version net in
      Mutex.unlock t.mutex;
      Ok v

let eval_count t =
  Mutex.lock t.mutex;
  let total =
    Array.fold_left
      (fun acc slot ->
        match slot.s_net with
        | Some net -> acc + Nn.Pvnet.eval_count net
        | None -> acc)
      0 t.slots
  in
  Mutex.unlock t.mutex;
  total
