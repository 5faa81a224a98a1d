(** The learner's side of the actor connections: a [select]-based,
    non-blocking frame pump.

    The learner broadcasts multi-hundred-KB snapshot frames while actors
    may simultaneously be blocked writing episode results back; if the
    learner wrote blockingly, both sides could fill their pipe buffers
    and deadlock.  The hub therefore keeps every fd non-blocking,
    queues outbound frames per connection, and {!recv} keeps draining
    readable fds {e and} flushing writable ones until a complete frame
    arrives — the learner never blocks on a write.  Actors use plain
    blocking {!Frame} IO; this asymmetry is safe because the hub
    guarantees the learner side always makes progress. *)

type t

val create : (Unix.file_descr * Unix.file_descr) array -> t
(** One [(read_from_actor, write_to_actor)] fd pair per actor, indexed
    by actor id.  Both fds are switched to non-blocking mode (they may
    be the same fd, e.g. a socketpair end). *)

val send : t -> int -> string -> unit
(** Queue one frame payload to an actor and flush opportunistically. *)

val broadcast : t -> string -> unit
(** {!send} to every actor. *)

val traffic : unit -> int * int
(** [(frames, payload bytes)] queued by {!send} on every hub of this
    process so far — deterministic for a fixed-seed run, whatever the
    scheduling, so a test can pin what the learner puts on the wire. *)

val recv : t -> int * string
(** The next complete frame from any actor, as [(actor, payload)] —
    pumping pending writes while it waits.  Fair across actors (the
    scan origin rotates), though callers must not depend on arrival
    order for determinism.
    @raise Failure if every connection reaches EOF with no frame
    buffered (an actor died). *)

val flush : t -> unit
(** Block (via the pump) until all queued outbound frames are written. *)

val close : t -> unit
(** Close all fds; double-closes are ignored. *)
