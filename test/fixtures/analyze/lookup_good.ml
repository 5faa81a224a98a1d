(* Fixture: lookups the option rule must NOT flag. *)

(* the raising lookup with a handler returns the hit itself *)
let tbl_find tbl k = match Hashtbl.find tbl k with v -> v | exception Not_found -> 0
[@@hot]

(* an option lookup outside a [@hot] body *)
let cold_find tbl k = Hashtbl.find_opt tbl k

(* explicit waiver *)
let blessed tbl k =
  match (Hashtbl.find_opt tbl k [@analyze.ok "miss path only, once per run"]) with
  | Some v -> v
  | None -> 0
[@@hot]
