(** The allocation-as-a-service daemon.

    A long-lived process serving PBQP, MiniC, and ATE allocation
    requests over a Unix-domain socket (optionally also loopback TCP)
    in the {!Wire} format.  One IO domain owns every file descriptor
    (accept, frame assembly, all writes); [workers] worker loops, one
    per domain, execute requests with the existing parsers and solvers,
    each worker evaluating its rl leaves on its own replica through a
    shared {!Nn.Infer} counter, behind a shared striped {!Nn.Cache} —
    result-preserving (a daemon solve is bitwise the CLI solve).
    Identical PBQP bodies resolve to one canonical parse (a
    content-addressed memo), so repeated requests share a [Graph.uid]
    and the version-stamped evaluation cache carries across them.

    Admission control: a bounded request queue; a frame arriving while
    it is full gets an immediate [overloaded] reply.  Deadlines
    (arrival + [deadline_ms]) are checked at dequeue; expired requests
    get [timeout] without being executed.  [stats]/[ping] are answered
    inline by the IO domain.  [reload] swaps the {!Registry} master
    without blocking in-flight requests.

    {!stop} (or SIGTERM/SIGINT via {!install_signal_handlers}) drains
    gracefully: stop accepting, finish every queued request, flush
    every reply, close, unlink the socket. *)

type config = {
  socket_path : string;
  tcp_port : int option;  (** also listen on loopback TCP *)
  workers : int;
      (** solver domains, one worker loop each; the caller of {!run} is
          one of them *)
  queue_cap : int;  (** admission bound; beyond it: [overloaded] *)
  cache_capacity : int;  (** shared eval cache entries; [0] disables *)
}

val default_config : config
(** [/tmp/pbqp_serve.sock], no TCP, 2 workers, queue 64, cache 4096. *)

type t

val create : ?config:config -> Nn.Pvnet.t -> t
(** Bind the sockets and build the shared state (registry, inference
    service, cache, queues).  The net seeds the model registry.
    @raise Invalid_argument on non-positive [workers]/[queue_cap];
    [Unix.Unix_error] if binding fails. *)

val run : t -> unit
(** Serve until {!stop}: spawns the IO domain and [workers - 1] worker
    domains, runs worker 0 on the calling domain, joins them all, and
    returns only after the graceful drain completes — queued
    requests finished, replies flushed, sockets closed and unlinked.
    Call at most once. *)

val stop : t -> unit
(** Begin the graceful drain; safe from any domain and from signal
    handlers.  Idempotent. *)

val socket_path : t -> string

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT → {!stop} (the clean shutdown path the smoke
    test exercises). *)
