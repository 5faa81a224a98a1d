(* Spans recorded by the benchmark around each public call it makes into
   the stack (client send -> reply, per-stage library calls, training
   iterations).  Spans stay in memory and are written as JSON lines when
   the run ends.  Untraced runs pass [None] everywhere, so the timed
   regions of the two runs execute the same calls. *)

type span = {
  id : int;
  parent : int;  (* -1 = root *)
  op : int;  (* the operation (request, corpus item, iteration) it serves *)
  name : string;
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable next_id : int }

let create () = { spans = []; next_id = 0 }

let record t ?(parent = -1) ~op ~start ~stop name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent; op; name; start; stop } :: t.spans;
  id

(* Time [f] as a span when tracing; the caller gets the span id (or -1)
   so child spans can name their parent. *)
let span tr ?parent ~op name f =
  match tr with
  | None -> f ()
  | Some t ->
      let start = Common.now () in
      let r = f () in
      ignore (record t ?parent ~op ~start ~stop:(Common.now ()) name : int);
      r

let durations t name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
       t.spans)

let total_ms t name = 1000.0 *. Array.fold_left ( +. ) 0.0 (durations t name)
let count t name = Array.length (durations t name)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %S, \
             \"start\": %.6f, \"end\": %.6f}\n"
            s.id s.parent s.op s.name s.start s.stop)
        (List.rev t.spans))

(* Cost of recording one span, measured on a scratch recorder: the basis
   of the trace-overhead estimate when no untraced run is on record. *)
let record_cost_s () =
  let t = create () in
  let n = 20_000 in
  let (), dt =
    Common.time (fun () ->
        for i = 1 to n do
          ignore (record t ~op:i ~start:0.0 ~stop:(Common.now ()) "x" : int)
        done)
  in
  dt /. float_of_int n
