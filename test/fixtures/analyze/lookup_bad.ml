(* Fixture: option-returning lookups in [@hot] bodies. *)

module Itbl = Hashtbl.Make (Int)

let negative x = x < 0

let tbl_find tbl k = match Hashtbl.find_opt tbl k with Some v -> v | None -> 0
[@@hot]

let assoc k l = match List.assoc_opt k l with Some v -> v | None -> 0
[@@hot]

let first_negative l =
  match List.find_opt negative l with Some v -> v | None -> 0
[@@hot]

let itbl_find tbl k = match Itbl.find_opt tbl k with Some v -> v | None -> 0
[@@hot]
