type pending = { p_bytes : Bytes.t; mutable p_off : int }

type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_raw : Buffer.t;  (* incoming bytes not yet forming a complete frame *)
  c_inbox : string Queue.t;  (* complete frame payloads *)
  c_outq : pending Queue.t;  (* encoded frames awaiting write *)
  mutable c_eof : bool;
}

type t = { conns : conn array; mutable rr : int; chunk : Bytes.t }

let create fds =
  {
    conns =
      Array.map
        (fun (fd_in, fd_out) ->
          Unix.set_nonblock fd_in;
          if fd_out != fd_in then Unix.set_nonblock fd_out;
          {
            c_in = fd_in;
            c_out = fd_out;
            c_raw = Buffer.create 4096;
            c_inbox = Queue.create ();
            c_outq = Queue.create ();
            c_eof = false;
          })
        fds;
    rr = 0;
    chunk = Bytes.create 65536;
  }

(* Move any complete frames out of the raw byte buffer.  The buffer is
   rebuilt with the unconsumed tail — frames are consumed as soon as
   they complete, so the tail is at most one partial frame. *)
let parse_frames conn =
  let data = Buffer.contents conn.c_raw in
  let len = String.length data in
  let pos = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if len - !pos < Frame.header_bytes then continue_ := false
    else begin
      let n = Frame.decode_len (Bytes.unsafe_of_string data) !pos in
      Frame.check_len n;
      if len - !pos - Frame.header_bytes < n then continue_ := false
      else begin
        Queue.add (String.sub data (!pos + Frame.header_bytes) n) conn.c_inbox;
        pos := !pos + Frame.header_bytes + n
      end
    end
  done;
  if !pos > 0 then begin
    Buffer.clear conn.c_raw;
    Buffer.add_substring conn.c_raw data !pos (len - !pos)
  end

let would_block = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | _ -> false

let pump_read t conn =
  match Unix.read conn.c_in t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> conn.c_eof <- true
  | n ->
      Buffer.add_subbytes conn.c_raw t.chunk 0 n;
      parse_frames conn
  | exception e when would_block e -> ()

let pump_write conn =
  let continue_ = ref true in
  while !continue_ && not (Queue.is_empty conn.c_outq) do
    let p = Queue.peek conn.c_outq in
    let remaining = Bytes.length p.p_bytes - p.p_off in
    match Unix.write conn.c_out p.p_bytes p.p_off remaining with
    | 0 -> continue_ := false
    | n ->
        p.p_off <- p.p_off + n;
        if p.p_off = Bytes.length p.p_bytes then ignore (Queue.pop conn.c_outq)
    | exception e when would_block e -> continue_ := false
  done

(* Learner-side traffic over every hub of the process: frames queued to
   actors and their payload bytes (the frame headers excluded). *)
let frames_sent = Atomic.make 0
let payload_bytes_sent = Atomic.make 0
let traffic () = (Atomic.get frames_sent, Atomic.get payload_bytes_sent)

let send t actor payload =
  Atomic.incr frames_sent;
  ignore (Atomic.fetch_and_add payload_bytes_sent (String.length payload));
  let conn = t.conns.(actor) in
  Queue.add { p_bytes = Frame.encode payload; p_off = 0 } conn.c_outq;
  pump_write conn

let broadcast t payload =
  Array.iteri (fun i _ -> send t i payload) t.conns

(* One select round: wait for any readable actor or writable backlog,
   then pump both directions. *)
let pump_once t =
  let reads =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun c -> if c.c_eof then None else Some c.c_in)
            (Array.to_seq t.conns)))
  in
  let writes =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun c -> if Queue.is_empty c.c_outq then None else Some c.c_out)
            (Array.to_seq t.conns)))
  in
  if reads = [] && writes = [] then failwith "Dist.Hub: all actors disconnected";
  let r, w, _ = Unix.select reads writes [] (-1.0) in
  Array.iter
    (fun c ->
      if List.memq c.c_in r then pump_read t c;
      if List.memq c.c_out w then pump_write c)
    t.conns

let recv t =
  let n = Array.length t.conns in
  let rec find k =
    if k = n then None
    else
      let i = (t.rr + k) mod n in
      if not (Queue.is_empty t.conns.(i).c_inbox) then
        Some (i, Queue.pop t.conns.(i).c_inbox)
      else find (k + 1)
  in
  let rec loop () =
    match find 0 with
    | Some (i, payload) ->
        t.rr <- (i + 1) mod n;
        (i, payload)
    | None ->
        if
          Array.for_all
            (fun c -> c.c_eof && Queue.is_empty c.c_inbox)
            t.conns
        then failwith "Dist.Hub: actor closed connection";
        pump_once t;
        loop ()
  in
  loop ()

let flush t =
  while Array.exists (fun c -> not (Queue.is_empty c.c_outq)) t.conns do
    pump_once t
  done

let close t =
  Array.iter
    (fun c ->
      (try Unix.close c.c_in with Unix.Unix_error _ -> ());
      if c.c_out != c.c_in then
        try Unix.close c.c_out with Unix.Unix_error _ -> ())
    t.conns
