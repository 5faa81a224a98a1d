(* Inference service: a counted direct call.

   Each worker evaluates its own MCTS leaves, one row at a time, on its
   own replica, so a service holds no queue and takes no lock: two
   atomic counters are its whole state.  It used to coalesce waves of
   leaves across workers into one forward (a ticket queue served by
   whichever submitter saw a full, quorum or timeout flush).  On the
   two-core bench host those batches held 1.6 rows on average, and the
   parked domains cost more than the larger GEMMs saved (EXPERIMENTS
   "SELFPLAY-DIRECT"), so it went.

   Determinism.  Every output row of the trunk/heads GEMMs and per-row
   LayerNorms depends only on its own input row, so a leaf's (priors,
   value) is the same bits as in any batch that holds it. *)

type stats = {
  batches : int;
  rows : int;
  timeout_flushes : int;
  wait_p50_us : float;
  wait_p99_us : float;
}

type t = { batches : int Atomic.t; rows : int Atomic.t }

let create ?(max_batch = 32) ?(wait_us = 200) ~workers () =
  if max_batch <= 0 then invalid_arg "Infer.create: max_batch <= 0";
  if wait_us < 0 then invalid_arg "Infer.create: wait_us < 0";
  if workers <= 0 then invalid_arg "Infer.create: workers <= 0";
  { batches = Atomic.make 0; rows = Atomic.make 0 }

let submit t ~net prep =
  let r = (Pvnet.predict_prepared net [| prep |]).(0) in
  Atomic.incr t.batches;
  Atomic.incr t.rows;
  r

let stats t : stats =
  {
    batches = Atomic.get t.batches;
    rows = Atomic.get t.rows;
    timeout_flushes = 0;
    wait_p50_us = 0.0;
    wait_p99_us = 0.0;
  }
