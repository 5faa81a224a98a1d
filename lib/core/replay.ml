type t = {
  buf : Nn.Pvnet.sample option array;
  mutable head : int;  (* next write position *)
  mutable size : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Replay.create: capacity <= 0";
  { buf = Array.make capacity None; head = 0; size = 0 }

let capacity t = Array.length t.buf
let length t = t.size

let add t s =
  t.buf.(t.head) <- Some s;
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.size <- min (t.size + 1) (Array.length t.buf)

let add_list t ss = List.iter (add t) ss

let sample_batch ~rng t n =
  if t.size = 0 then []
  else
    List.init n (fun _ ->
        match t.buf.((t.head - 1 - Random.State.int rng t.size + (2 * Array.length t.buf)) mod Array.length t.buf) with
        | Some s -> s
        | None -> assert false)


(* --- sample codec ----------------------------------------------------- *)

(* One sample as a text block ([sample]/[policy] header lines, a PBQP
   instance via Pbqp.Io, an [endsample] terminator).  Floats are %.17g,
   so values round-trip exactly.  The same blocks appear inside replay
   checkpoint files and — the distributed trainer — inside actor→learner
   sample frames, which is why the codec is exposed separately from
   {!save}/{!load}. *)

let write_sample buf (s : Nn.Pvnet.sample) =
  Buffer.add_string buf
    (Printf.sprintf "sample %d %.17g\n" s.Nn.Pvnet.next s.Nn.Pvnet.value);
  Buffer.add_string buf
    (Printf.sprintf "policy%s\n"
       (String.concat ""
          (Array.to_list
             (Array.map (Printf.sprintf " %.17g") s.Nn.Pvnet.policy))));
  Buffer.add_string buf (Pbqp.Io.frozen_to_string s.Nn.Pvnet.instance);
  Buffer.add_string buf "endsample\n"

let sample_to_string s =
  let b = Buffer.create 256 in
  write_sample b s;
  Buffer.contents b

(* Parse consecutive sample blocks from a pull-based line source until
   it is exhausted; blank lines between blocks are tolerated. *)
let parse_samples ~what next_line emit =
  let fail msg = invalid_arg (what ^ ": " ^ msg) in
  let line () =
    match next_line () with
    | Some l -> l
    | None -> fail "truncated sample block"
  in
  try
    while true do
      match next_line () with
      | None -> raise Exit
      | Some l when String.trim l = "" -> ()
      | Some l -> (
          match String.split_on_char ' ' l with
          | [ "sample"; next; value ] ->
              let next = int_of_string next in
              let value = float_of_string value in
              let policy =
                match String.split_on_char ' ' (line ()) with
                | "policy" :: ps -> Array.of_list (List.map float_of_string ps)
                | _ -> fail "expected policy line"
              in
              let buf = Buffer.create 256 in
              let rec slurp () =
                let l = line () in
                if String.trim l = "endsample" then ()
                else begin
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n';
                  slurp ()
                end
              in
              slurp ();
              let instance =
                Pbqp.Graph.freeze (Pbqp.Io.of_string (Buffer.contents buf))
              in
              emit { Nn.Pvnet.instance; next; policy; value }
          | _ -> fail ("unexpected line: " ^ l))
    done
  with Exit -> ()

let samples_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  let next_line () =
    match !lines with
    | [] -> None
    | l :: rest ->
        lines := rest;
        Some l
  in
  let acc = ref [] in
  parse_samples ~what:"Replay.samples_of_string" next_line (fun s ->
      acc := s :: !acc);
  List.rev !acc

(* --- persistence ------------------------------------------------------ *)

let iter_oldest_first t f =
  for i = 0 to t.size - 1 do
    let idx = (t.head - t.size + i + (2 * Array.length t.buf)) mod Array.length t.buf in
    match t.buf.(idx) with Some s -> f s | None -> assert false
  done

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "replay %d %d\n" (Array.length t.buf) t.size;
      let b = Buffer.create 1024 in
      iter_oldest_first t (fun s ->
          Buffer.clear b;
          write_sample b s;
          Buffer.output_buffer oc b))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail msg = invalid_arg ("Replay.load: " ^ msg) in
      let line () =
        match In_channel.input_line ic with
        | Some l -> l
        | None -> fail "truncated file"
      in
      let t =
        match String.split_on_char ' ' (line ()) with
        | [ "replay"; cap; _count ] -> create ~capacity:(int_of_string cap)
        | _ -> fail "bad header"
      in
      parse_samples ~what:"Replay.load"
        (fun () -> In_channel.input_line ic)
        (add t);
      t)
