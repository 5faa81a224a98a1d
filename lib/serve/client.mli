(** Blocking client for the daemon: persistent connection, synchronous
    request/reply (pipelining is possible via {!send}/{!receive} with
    [id] correlation tags). *)

type t

val connect_unix : string -> t
(** Connect to the daemon's Unix-domain socket.
    @raise Unix.Unix_error if the daemon is not listening. *)

val close : t -> unit

val send : t -> Wire.envelope -> unit
(** Write one request frame without waiting for the reply. *)

val send_raw : t -> string -> unit
(** Write an arbitrary payload as a frame — the malformed-input tests'
    entry point. *)

val receive : t -> (int * Wire.reply, string) result
(** Read and parse one reply frame ([id], reply); [Error] on EOF or a
    malformed reply. *)

val request : t -> Wire.request -> (Wire.reply, string) result
(** [send] + [receive] for the synchronous common case. *)
