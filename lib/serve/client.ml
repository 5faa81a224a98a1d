(* Blocking convenience client for the daemon: one synchronous request
   per call over a persistent connection.  Used by the pbqp_serve CLI's
   client modes, the wire tests, and the daemon bench (which runs one
   client per load-generator domain). *)

type t = { fd : Unix.file_descr }

let connect_unix path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t envelope = Wire.write_frame t.fd (Wire.request_to_string envelope)

let send_raw t payload = Wire.write_frame t.fd payload

let receive t =
  match Wire.read_frame t.fd with
  | None -> Error "connection closed by daemon"
  | Some payload -> Wire.reply_of_string payload

let request t req =
  send t { Wire.id = 0; req };
  match receive t with
  | Ok (_, reply) -> Ok reply
  | Error _ as e -> e
