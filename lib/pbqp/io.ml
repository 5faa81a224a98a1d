(* Full-precision cost formatting so parsing recovers the exact float
   (Cost.pp is for human display and rounds). *)
let cost_str c =
  if Cost.is_inf c then "inf"
  else if Float.is_integer c && Float.abs c < 1e15 then
    Printf.sprintf "%.0f" c
  else Printf.sprintf "%.17g" c

(* The one printer: a graph prints as its frozen instance, so a replay
   sample's text is byte for byte its source graph's. *)
let print_frozen ppf (f : Graph.frozen) =
  let m = f.Graph.f_m and verts = f.Graph.f_verts in
  Format.fprintf ppf "pbqp %d %d@\n" f.Graph.f_capacity m;
  (let dead = ref [] and r = ref (Array.length verts - 1) in
   for u = f.Graph.f_capacity - 1 downto 0 do
     if !r >= 0 && verts.(!r) = u then decr r else dead := u :: !dead
   done;
   let dead = !dead in
   if dead <> [] then
     Format.fprintf ppf "dead%s@\n"
       (String.concat "" (List.map (Printf.sprintf " %d") dead)));
  Array.iteri
    (fun r u ->
      Format.fprintf ppf "v %d" u;
      for i = (r * m) to (r * m) + m - 1 do
        Format.fprintf ppf " %s" (cost_str (Float.Array.get f.Graph.f_costs i))
      done;
      Format.fprintf ppf "@\n")
    verts;
  Array.iteri
    (fun k muv ->
      Format.fprintf ppf "e %d %d"
        verts.(f.Graph.f_ends.(2 * k))
        verts.(f.Graph.f_ends.((2 * k) + 1));
      Mat.iteri (fun _ _ c -> Format.fprintf ppf " %s" (cost_str c)) muv;
      Format.fprintf ppf "@\n")
    f.Graph.f_mats

let print ppf g = print_frozen ppf (Graph.freeze g)
let frozen_to_string f = Format.asprintf "%a" print_frozen f
let to_string g = frozen_to_string (Graph.freeze g)

let of_string s =
  let fail lineno msg =
    invalid_arg (Printf.sprintf "Io.of_string: line %d: %s" lineno msg)
  in
  let lines = String.split_on_char '\n' s in
  let g = ref None in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some k -> String.sub line 0 k
        | None -> line
      in
      let toks =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "" && t <> "\r")
      in
      let int_tok t =
        match int_of_string_opt t with
        | Some k -> k
        | None -> fail lineno (Printf.sprintf "expected integer, got %S" t)
      in
      let cost_tok t =
        try Cost.of_string t
        with Invalid_argument _ ->
          fail lineno (Printf.sprintf "expected cost, got %S" t)
      in
      match toks with
      | [] -> ()
      | "pbqp" :: rest -> (
          if !g <> None then fail lineno "duplicate header";
          match rest with
          | [ n; m ] -> g := Some (Graph.create ~n:(int_tok n) ~m:(int_tok m))
          | _ -> fail lineno "header must be: pbqp <n> <m>")
      | "v" :: rest -> (
          match !g with
          | None -> fail lineno "vertex line before header"
          | Some g -> (
              match rest with
              | id :: costs ->
                  let id = int_tok id in
                  if id < 0 || id >= Graph.capacity g then
                    fail lineno "vertex id out of range";
                  let costs = List.map cost_tok costs in
                  if List.length costs <> Graph.m g then
                    fail lineno "wrong cost vector length";
                  Graph.set_cost g id (Vec.of_list (List.map Cost.to_float costs))
              | [] -> fail lineno "vertex line must be: v <id> <costs...>"))
      | "dead" :: ids -> (
          match !g with
          | None -> fail lineno "dead line before header"
          | Some g ->
              List.iter
                (fun tok ->
                  let id = int_tok tok in
                  if not (Graph.is_alive g id) then
                    fail lineno "dead vertex out of range or repeated"
                  else Graph.remove_vertex g id)
                ids)
      | "e" :: rest -> (
          match !g with
          | None -> fail lineno "edge line before header"
          | Some g -> (
              match rest with
              | u :: v :: entries ->
                  let u = int_tok u and v = int_tok v in
                  let m = Graph.m g in
                  if List.length entries <> m * m then
                    fail lineno "wrong matrix entry count";
                  let arr = Array.of_list (List.map cost_tok entries) in
                  let muv = Mat.init ~rows:m ~cols:m (fun i j -> arr.((i * m) + j)) in
                  if u = v || not (Graph.is_alive g u) || not (Graph.is_alive g v)
                  then fail lineno "bad edge endpoints"
                  else Graph.add_edge g u v muv
              | _ -> fail lineno "edge line must be: e <u> <v> <entries...>"))
      | tok :: _ -> fail lineno (Printf.sprintf "unknown directive %S" tok))
    lines;
  match !g with None -> invalid_arg "Io.of_string: missing header" | Some g -> g

(* --- solutions -------------------------------------------------------- *)

(* One line, shared by the label files (Core.Labels) and the serving
   wire format (Serve.Wire): "assign <c_0> ... <c_{n-1}>", unassigned
   vertices as -1. *)
let print_solution ppf sol =
  Format.fprintf ppf "assign";
  Array.iter (fun c -> Format.fprintf ppf " %d" c) (Solution.to_array sol);
  Format.fprintf ppf "@\n"

let solution_to_string sol = Format.asprintf "%a" print_solution sol

let solution_of_string s =
  let toks =
    String.split_on_char ' ' (String.trim s)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "" && t <> "\r")
  in
  let cols =
    match toks with
    | "assign" :: rest -> rest
    | _ -> invalid_arg "Io.solution_of_string: missing assign header"
  in
  Solution.of_array
    (Array.of_list
       (List.map
          (fun t ->
            match int_of_string_opt t with
            | Some c -> c
            | None ->
                invalid_arg
                  (Printf.sprintf "Io.solution_of_string: bad color %S" t))
          cols))

let to_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
