(* Hot-path allocation lint.  Functions marked [@@hot] promise the
   allocation-free discipline the trail state and forward buffers are
   built around (ROADMAP: zero-allocation steady state); this pass
   flags the syntactic allocation sources inside their bodies:

   - [hot-closure]: a fun/function literal below the parameter chain —
     closures capturing their environment allocate on every call;
   - [hot-partial-apply]: a call that supplies fewer arguments than the
     callee's registered arity, which builds an intermediate closure;
   - [hot-boxed-alloc]: tuples (except as a match scrutinee, which the
     compiler deconstructs in place), records, arrays, non-constant
     constructors, list/string concatenation;
   - [hot-boxed-matrix]: a boxed row-pointer matrix ([Array.make_matrix]
     or a nested array literal) — each row is a separate heap block, so
     every row access chases a pointer; hot numeric code must use a flat
     [floatarray]/[Bigarray] with [i * cols + j] indexing (what
     [Tensor.t] does);
   - [hot-alloc-call]: calls into known-allocating stdlib entry points
     (List.map, Array.copy, Float.Array.make, Bigarray.Array1.create,
     String.concat, ...);
   - [hot-printf]: Printf/Format — formatting allocates pervasively.

   Deliberate non-rules: bare [ref] creation is NOT flagged (the local
   loop-counter idiom in Tensor.matmul_packed_rows; escape analysis
   keeps it cheap and the point of the lint is steady-state churn, not
   local scratch), and float boxing is invisible to a syntactic pass —
   the minor-words counter cases in test_nn own that.  Escape hatch:
   [@analyze.ok "why"] on any subtree. *)

open Parsetree

type env = {
  file : string;
  modpath : string list;
  symtab : Symtab.t;
  findings : Report.t list ref;
  symbol : string;
}

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let report env ~rule ~line fmt =
  Printf.ksprintf
    (fun message ->
      env.findings :=
        Report.make ~rule ~severity:Check.Diag.Warning ~file:env.file ~line
          ~symbol:env.symbol message
        :: !(env.findings))
    fmt

let head_path expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> Longident.flatten txt
  | _ -> []

let allocating_calls =
  [
    ([ "List"; "map" ], "builds a fresh list");
    ([ "List"; "mapi" ], "builds a fresh list");
    ([ "List"; "filter" ], "builds a fresh list");
    ([ "List"; "append" ], "copies the prefix list");
    ([ "List"; "concat" ], "builds a fresh list");
    ([ "List"; "rev" ], "builds a fresh list");
    ([ "List"; "sort" ], "allocates a working copy");
    ([ "Array"; "make" ], "allocates an array");
    ([ "Array"; "init" ], "allocates an array");
    ([ "Array"; "copy" ], "allocates an array");
    ([ "Array"; "append" ], "allocates an array");
    ([ "Array"; "map" ], "allocates an array");
    ([ "Array"; "of_list" ], "allocates an array");
    ([ "Array"; "to_list" ], "builds a fresh list");
    ([ "Float"; "Array"; "make" ], "allocates a floatarray");
    ([ "Float"; "Array"; "create" ], "allocates a floatarray");
    ([ "Float"; "Array"; "init" ], "allocates a floatarray");
    ([ "Float"; "Array"; "copy" ], "allocates a floatarray");
    ([ "Float"; "Array"; "sub" ], "allocates a floatarray");
    ([ "Float"; "Array"; "append" ], "allocates a floatarray");
    ([ "Float"; "Array"; "map" ], "allocates a floatarray");
    ([ "Float"; "Array"; "of_list" ], "allocates a floatarray");
    ([ "Float"; "Array"; "map_from_array" ], "allocates a floatarray");
    ([ "Float"; "Array"; "map_to_array" ], "allocates an array");
    ([ "Bigarray"; "Array1"; "create" ], "allocates a bigarray");
    ([ "Bigarray"; "Array2"; "create" ], "allocates a bigarray");
    ([ "Bigarray"; "Array1"; "of_array" ], "allocates a bigarray");
    ([ "Bigarray"; "Array2"; "of_array" ], "allocates a bigarray");
    ([ "String"; "concat" ], "allocates a string");
    ([ "String"; "make" ], "allocates a string");
    ([ "String"; "sub" ], "allocates a string");
    ([ "Bytes"; "create" ], "allocates a buffer");
    ([ "Hashtbl"; "create" ], "allocates a table");
    ([ "Buffer"; "create" ], "allocates a buffer");
  ]

let infix_allocators = [ ("^", "string concatenation"); ("@", "list append") ]

let check_apply env ~line f args =
  let head = head_path f in
  (match head with
  | [ "Array"; "make_matrix" ] ->
      report env ~rule:"hot-boxed-matrix" ~line
        "Array.make_matrix in a [@hot] body builds a boxed row-pointer \
         matrix (one heap block per row); use a flat floatarray/Bigarray \
         with i * cols + j indexing"
  | ("Printf" | "Format") :: fn :: _ ->
      report env ~rule:"hot-printf" ~line
        "%s.%s in a [@hot] body: formatting allocates on every call"
        (List.hd head) fn
  | [ op ] when List.mem_assoc op infix_allocators ->
      report env ~rule:"hot-boxed-alloc" ~line
        "(%s) in a [@hot] body: %s allocates" op
        (List.assoc op infix_allocators)
  | _ -> (
      match List.assoc_opt head allocating_calls with
      | Some why ->
          report env ~rule:"hot-alloc-call" ~line
            "%s in a [@hot] body %s on every call"
            (String.concat "." head) why
      | None -> ()));
  (* partial application against the repo-wide arity registry *)
  if head <> [] && not (List.mem_assoc head allocating_calls) then
    match Symtab.find_fn env.symtab ~modpath:env.modpath head with
    | Some (fi : Symtab.fninfo)
      when fi.fn_arity > 0 && List.length args < fi.fn_arity ->
        report env ~rule:"hot-partial-apply" ~line
          "partial application of %s (%d of %d arguments) builds a \
           closure in a [@hot] body"
          fi.fn_name (List.length args) fi.fn_arity
    | _ -> ()

let rec walk env expr =
  if Attr.suppressed expr.pexp_attributes then ()
  else
    let line = line_of expr.pexp_loc in
    match expr.pexp_desc with
    | Pexp_fun (_, default, _, body) ->
        report env ~rule:"hot-closure" ~line
          "closure literal in a [@hot] body allocates at every evaluation";
        Option.iter (walk env) default;
        walk env body
    | Pexp_function cases ->
        report env ~rule:"hot-closure" ~line
          "closure literal in a [@hot] body allocates at every evaluation";
        List.iter (walk_case env) cases
    | Pexp_apply (f, args) ->
        check_apply env ~line f args;
        walk env f;
        List.iter (fun (_, a) -> walk env a) args
    | Pexp_match (scrut, cases) ->
        (* [match (a, b) with ...] does not build the tuple: walk the
           components without flagging the scrutinee itself *)
        (match scrut.pexp_desc with
        | Pexp_tuple es when not (Attr.suppressed scrut.pexp_attributes) ->
            List.iter (walk env) es
        | _ -> walk env scrut);
        List.iter (walk_case env) cases
    | Pexp_tuple es ->
        report env ~rule:"hot-boxed-alloc" ~line
          "tuple construction allocates in a [@hot] body";
        List.iter (walk env) es
    | Pexp_record (fields, base) ->
        report env ~rule:"hot-boxed-alloc" ~line
          "record construction allocates in a [@hot] body";
        Option.iter (walk env) base;
        List.iter (fun (_, e) -> walk env e) fields
    | Pexp_array es ->
        let is_array e =
          match e.pexp_desc with Pexp_array _ -> true | _ -> false
        in
        if List.exists is_array es then begin
          report env ~rule:"hot-boxed-matrix" ~line
            "nested array literal builds a boxed row-pointer matrix in a \
             [@hot] body; use a flat floatarray/Bigarray with i * cols + j \
             indexing";
          (* the row literals are part of the one matrix already reported:
             walk their elements without re-flagging each row *)
          List.iter
            (fun e ->
              match e.pexp_desc with
              | Pexp_array inner when not (Attr.suppressed e.pexp_attributes)
                ->
                  List.iter (walk env) inner
              | _ -> walk env e)
            es
        end
        else begin
          report env ~rule:"hot-boxed-alloc" ~line
            "array literal allocates in a [@hot] body";
          List.iter (walk env) es
        end
    | Pexp_construct ({ txt; _ }, Some arg) ->
        report env ~rule:"hot-boxed-alloc" ~line
          "constructor %s with a payload allocates in a [@hot] body"
          (String.concat "." (Longident.flatten txt));
        walk env arg
    | Pexp_variant (_, Some arg) ->
        report env ~rule:"hot-boxed-alloc" ~line
          "polymorphic variant with a payload allocates in a [@hot] body";
        walk env arg
    | Pexp_lazy e ->
        report env ~rule:"hot-boxed-alloc" ~line
          "lazy thunk allocates in a [@hot] body";
        walk env e
    | Pexp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            if not (Attr.suppressed vb.pvb_attributes) then walk env vb.pvb_expr)
          vbs;
        walk env body
    | Pexp_sequence (a, b) ->
        walk env a;
        walk env b
    | Pexp_ifthenelse (c, t, e) ->
        walk env c;
        walk env t;
        Option.iter (walk env) e
    | Pexp_while (c, b) ->
        walk env c;
        walk env b
    | Pexp_for (_, a, b, _, body) ->
        walk env a;
        walk env b;
        walk env body
    | Pexp_try (body, handlers) ->
        walk env body;
        List.iter (walk_case env) handlers
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_open (_, e)
    | Pexp_newtype (_, e)
    | Pexp_assert e
    | Pexp_field (e, _) ->
        walk env e
    | Pexp_setfield (e1, _, e2) ->
        walk env e1;
        walk env e2
    | _ -> ()

and walk_case env c =
  Option.iter (walk env) c.pc_guard;
  walk env c.pc_rhs

(* Walk only [@@hot] bindings; the parameter chain itself is fine. *)
let rec fn_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) -> fn_body b
  | Pexp_newtype (_, b) -> fn_body b
  | Pexp_constraint (b, _) -> fn_body b
  | Pexp_function _ -> e  (* a [function] body is the body *)
  | _ -> e

let walk_binding ~file ~modpath ~symtab ~findings vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } when Attr.is_hot vb.pvb_attributes ->
      let env = { file; modpath; symtab; findings; symbol = name } in
      let body = fn_body vb.pvb_expr in
      (match body.pexp_desc with
      | Pexp_function cases -> List.iter (walk_case env) cases
      | _ -> walk env body)
  | _ -> ()

let rec walk_structure ~file ~modpath ~symtab ~findings str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter (walk_binding ~file ~modpath ~symtab ~findings) vbs
      | Pstr_module mb -> walk_mod ~file ~modpath ~symtab ~findings mb
      | Pstr_recmodule mbs ->
          List.iter (walk_mod ~file ~modpath ~symtab ~findings) mbs
      | _ -> ())
    str

and walk_mod ~file ~modpath ~symtab ~findings mb =
  match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
  | Some name, Pmod_structure str
  | ( Some name,
      Pmod_constraint ({ pmod_desc = Pmod_structure str; _ }, _) ) ->
      walk_structure ~file ~modpath:(modpath @ [ name ]) ~symtab ~findings str
  | _ -> ()

let check_file symtab (f : Source.file) =
  let findings = ref [] in
  walk_structure ~file:f.path ~modpath:[ f.modname ] ~symtab ~findings f.str;
  List.rev !findings
