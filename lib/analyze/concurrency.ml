(* Concurrency lints: a syntactic held-lock-set analysis.

   The walker threads an abstract "locks held here" set through each
   top-level binding's body: [Mutex.lock l] adds the canonical name of
   [l], [Mutex.unlock l] removes it, [Mutex.protect l f] scopes it over
   [f]'s body, sequencing threads the set left to right, and branches
   (if/match/try) exit with the INTERSECTION of their branch exit sets
   — the conservative "definitely held" semantics.  Lambdas are walked
   with the held set at their definition point, which matches this
   repo's idiom (closures built under a lock run under that lock, e.g.
   [Mutex.protect m (fun () -> ...)] and the inline worker bodies).

   Against that state the pass checks:
   - [guarded-by]: reads/writes of [@guarded_by "l"] fields and
     globals must occur with [l] (canonically) held;
   - [requires-lock]: calls to [@@requires_lock "l"] functions must
     hold [l]; those functions' own bodies are walked with [l] seeded;
   - [lock-reacquire]: [Mutex.lock l] while [l] is already held (OCaml
     mutexes are not reentrant — this self-deadlocks);
   - [unguarded-global-mutable]: module-level mutable state (ref /
     Hashtbl.create / Array.make / ...) with no [@guarded_by], not
     [Atomic.make], and no [@@analyze.unshared] waiver — anything at
     module level is reachable from every [Domain.spawn]/pool closure;
   - [malformed-annotation]: analyzer attributes missing their string
     payload.

   Locks are identified by the last path component of the expression
   passed to Mutex.lock ("t.mutex" and "pool.mutex" are both "mutex").
   That canonicalisation is what makes the purely syntactic analysis
   line up with [@guarded_by "mutex"] annotations; it conflates
   distinct mutexes that share a field name, which is conservative for
   guarded-by (accepts more) and only over-approximates the lock graph
   (merges nodes, never hides an edge... at file granularity nodes are
   qualified "File.lock", see [Lockgraph]). *)

open Parsetree

(* Per-function facts exported to the lock-order pass. *)
type acq = {
  a_lock : string;  (* qualified "File.lock" *)
  a_held : string list;  (* qualified locks held at the acquisition *)
  a_line : int;
}

type callsite = {
  c_callee : string;  (* resolved qualified function name *)
  c_held : string list;
  c_line : int;
}

type summary = {
  sum_fn : string;
  sum_file : string;
  mutable sum_acquires : acq list;
  mutable sum_calls : callsite list;
}

type env = {
  file : string;
  modname : string;
  mutable modpath : string list;
  symtab : Symtab.t;
  findings : Report.t list ref;
  summaries : summary list ref;
  mutable symbol : string;  (* enclosing top-level binding *)
  mutable cur : summary;
}

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let report env ~severity ~rule ~line fmt =
  Printf.ksprintf
    (fun message ->
      env.findings :=
        Report.make ~rule ~severity ~file:env.file ~line ~symbol:env.symbol
          message
        :: !(env.findings))
    fmt

let error env = report env ~severity:Check.Diag.Error
let warning env = report env ~severity:Check.Diag.Warning

(* --- lock identity --------------------------------------------------- *)

let rec last_component lid =
  match lid with
  | Longident.Lident s -> s
  | Longident.Ldot (_, s) -> s
  | Longident.Lapply (_, l) -> last_component l

(* Canonical (unqualified) name of the lock denoted by an expression, or
   None when the expression is too dynamic to track (e.g. an array
   element: Nn.Cache locks [fst c.shards.(i)] — those regions are
   simply not attributed to a named lock). *)
let rec lock_name expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last_component txt)
  | Pexp_field (_, { txt; _ }) -> Some (last_component txt)
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> lock_name e
  | _ -> None

let qualify env lock = env.modname ^ "." ^ lock

(* held sets are small (1-2 locks); sorted string lists *)
let add_held l held = List.sort_uniq String.compare (l :: held)
let remove_held l held = List.filter (fun x -> x <> l) held
let inter a b = List.filter (fun x -> List.mem x b) a

let intersect_all = function
  | [] -> []
  | h :: tl -> List.fold_left inter h tl

(* --- the walker ------------------------------------------------------ *)

let head_path expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> Longident.flatten txt
  | _ -> []

let check_guarded_field env ~line ~what name held =
  match Symtab.guarded_field env.symtab name with
  | Some lock when not (List.mem lock held) ->
      error env ~rule:"guarded-by" ~line
        "%s of field '%s' guarded by \"%s\" outside its lock region (held: %s)"
        what name lock
        (if held = [] then "none" else String.concat ", " held)
  | _ -> ()

let check_guarded_global env ~line parts held =
  match Symtab.guarded_global env.symtab ~modpath:env.modpath parts with
  | Some lock when not (List.mem lock held) ->
      error env ~rule:"guarded-by" ~line
        "access to global '%s' guarded by \"%s\" outside its lock region"
        (String.concat "." parts) lock
  | _ -> ()

let record_acquire env ~line lock held =
  if List.mem lock held then
    error env ~rule:"lock-reacquire" ~line
      "Mutex.lock on \"%s\" while \"%s\" is already held (OCaml mutexes \
       are not reentrant: this self-deadlocks)"
      lock lock;
  env.cur.sum_acquires <-
    {
      a_lock = qualify env lock;
      a_held = List.map (qualify env) (remove_held lock held);
      a_line = line;
    }
    :: env.cur.sum_acquires

let record_call env ~line parts held =
  match Symtab.find_fn env.symtab ~modpath:env.modpath parts with
  | None -> ()
  | Some (fi : Symtab.fninfo) ->
      (match fi.fn_requires with
      | Some lock when not (List.mem lock held) ->
          error env ~rule:"requires-lock" ~line
            "call to %s, which requires \"%s\" held, outside its lock region"
            fi.fn_name lock
      | _ -> ());
      env.cur.sum_calls <-
        {
          c_callee = fi.fn_name;
          c_held = List.map (qualify env) held;
          c_line = line;
        }
        :: env.cur.sum_calls

(* Walk [expr] with [held] locks; returns the held set at the
   expression's exit. *)
let rec walk env held expr =
  if Attr.suppressed expr.pexp_attributes then held
  else
    let line = line_of expr.pexp_loc in
    match expr.pexp_desc with
    | Pexp_apply (f, args) -> walk_apply env held ~line f args
    | Pexp_ident { txt; _ } ->
        check_guarded_global env ~line (Longident.flatten txt) held;
        held
    | Pexp_field (e, { txt; _ }) ->
        check_guarded_field env ~line ~what:"read" (last_component txt) held;
        ignore (walk env held e);
        held
    | Pexp_setfield (e1, { txt; _ }, e2) ->
        check_guarded_field env ~line ~what:"write" (last_component txt) held;
        ignore (walk env held e1);
        ignore (walk env held e2);
        held
    | Pexp_sequence (a, b) -> walk env (walk env held a) b
    | Pexp_let (_, vbs, body) ->
        let held =
          List.fold_left
            (fun held vb ->
              if Attr.suppressed vb.pvb_attributes then held
              else walk env held vb.pvb_expr)
            held vbs
        in
        walk env held body
    | Pexp_fun (_, default, _, body) ->
        Option.iter (fun d -> ignore (walk env held d)) default;
        ignore (walk env held body);
        held
    | Pexp_function cases ->
        walk_cases env held cases |> ignore;
        held
    | Pexp_match (scrut, cases) ->
        let h = walk env held scrut in
        walk_cases env h cases
    | Pexp_try (body, handlers) ->
        let h = walk env held body in
        (* a handler can run with the body partially executed: enter it
           with what was held at try-entry, and require agreement *)
        let hh = walk_cases env held handlers in
        inter h hh
    | Pexp_ifthenelse (c, t, e) ->
        let hc = walk env held c in
        let ht = walk env hc t in
        let he = match e with Some e -> walk env hc e | None -> hc in
        inter ht he
    | Pexp_while (c, body) ->
        let hc = walk env held c in
        ignore (walk env hc body);
        held
    | Pexp_for (_, a, b, _, body) ->
        ignore (walk env held a);
        ignore (walk env held b);
        ignore (walk env held body);
        held
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e)
    | Pexp_letexception (_, e)
    | Pexp_newtype (_, e) ->
        walk env held e
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) ->
        ignore (walk env held e);
        held
    | Pexp_tuple es | Pexp_array es ->
        List.iter (fun e -> ignore (walk env held e)) es;
        held
    | Pexp_record (fields, base) ->
        Option.iter (fun b -> ignore (walk env held b)) base;
        List.iter (fun (_, e) -> ignore (walk env held e)) fields;
        held
    | Pexp_assert e | Pexp_lazy e ->
        ignore (walk env held e);
        held
    | Pexp_letop { let_; ands; body } ->
        ignore (walk env held let_.pbop_exp);
        List.iter (fun a -> ignore (walk env held a.pbop_exp)) ands;
        ignore (walk env held body);
        held
    | _ -> held

and walk_cases env held cases =
  let exits =
    List.map
      (fun c ->
        Option.iter (fun g -> ignore (walk env held g)) c.pc_guard;
        walk env held c.pc_rhs)
      cases
  in
  intersect_all (held :: exits)

and walk_apply env held ~line f args =
  let arg_exprs = List.map snd args in
  match (head_path f, arg_exprs) with
  | [ "Mutex"; "lock" ], [ arg ] -> (
      match lock_name arg with
      | Some l ->
          record_acquire env ~line l held;
          add_held l held
      | None -> held)
  | [ "Mutex"; "unlock" ], [ arg ] -> (
      match lock_name arg with
      | Some l -> remove_held l held
      | None -> held)
  | [ "Mutex"; "protect" ], [ lockarg; fn ] -> (
      match lock_name lockarg with
      | Some l ->
          record_acquire env ~line l held;
          let inner = add_held l held in
          (match fn.pexp_desc with
          | Pexp_fun (_, _, _, body) -> ignore (walk env inner body)
          | _ -> ignore (walk env inner fn));
          held
      | None ->
          ignore (walk env held fn);
          held)
  | ([ "Condition"; _ ] | [ "Mutex"; _ ]), _ ->
      (* Condition.wait releases and reacquires atomically: the lock is
         held again on return, so the held set is unchanged. *)
      List.iter (fun a -> ignore (walk env held a)) arg_exprs;
      held
  | head, _ ->
      if head <> [] then record_call env ~line head held;
      ignore (walk env held f);
      List.iter (fun a -> ignore (walk env held a)) arg_exprs;
      held

(* --- module-level mutable state -------------------------------------- *)

let rec strip expr =
  match expr.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      strip e
  | _ -> expr

let mutable_makers =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "create_float" ];
    [ "Array"; "init" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
    [ "Weak"; "create" ];
  ]

let mutable_maker expr =
  match (strip expr).pexp_desc with
  | Pexp_apply (f, _) ->
      let head = head_path f in
      if List.mem head mutable_makers then
        Some (String.concat "." head)
      else None
  | _ -> None

let check_toplevel_binding env vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = name; _ } -> (
      let attrs = vb.pvb_attributes in
      (* malformed payload forms *)
      List.iter
        (fun probe ->
          match probe attrs with
          | Some (Error nm) ->
              error env ~rule:"malformed-annotation"
                ~line:(line_of vb.pvb_loc)
                "[@%s] on '%s' needs a string literal payload" nm name
          | _ -> ())
        [ Attr.guarded_by; Attr.requires_lock ];
      match mutable_maker vb.pvb_expr with
      | Some maker
        when (not (Attr.unshared attrs))
             && (not (Attr.suppressed attrs))
             && Attr.guarded_by attrs = None ->
          warning env ~rule:"unguarded-global-mutable"
            ~line:(line_of vb.pvb_loc)
            "module-level mutable '%s' (%s) is reachable from every \
             Domain.spawn/pool closure; guard it with [@guarded_by \
             \"lock\"], make it Atomic, or waive with [@@analyze.unshared \
             \"why\"]"
            name maker
      | _ -> ())
  | _ -> ()

(* --- driver over a file ---------------------------------------------- *)

let fresh_summary env name =
  let s =
    { sum_fn = name; sum_file = env.file; sum_acquires = []; sum_calls = [] }
  in
  env.summaries := s :: !(env.summaries);
  s

(* Peel the parameter chain: a [@@requires_lock] function's lock is
   held at its BODY's entry, not around the parameter defaults. *)
let rec fn_body e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) -> fn_body b
  | Pexp_newtype (_, b) -> fn_body b
  | Pexp_constraint (b, _) -> fn_body b
  | _ -> e

let walk_binding env vb =
  let name =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | _ -> "_"
  in
  env.symbol <- name;
  env.cur <- fresh_summary env (Symtab.qualify env.modpath name);
  check_toplevel_binding env vb;
  if not (Attr.suppressed vb.pvb_attributes) then
    let entry =
      match Attr.requires_lock vb.pvb_attributes with
      | Some (Ok lock) -> [ lock ]
      | _ -> []
    in
    ignore (walk env entry (fn_body vb.pvb_expr))

let rec walk_structure env str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter (walk_binding env) vbs
      | Pstr_module mb -> walk_module env mb
      | Pstr_recmodule mbs -> List.iter (walk_module env) mbs
      | Pstr_eval (e, _) ->
          env.symbol <- "_";
          env.cur <- fresh_summary env (Symtab.qualify env.modpath "_");
          ignore (walk env [] e)
      | _ -> ())
    str

and walk_module env mb =
  match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
  | Some name, Pmod_structure str
  | ( Some name,
      Pmod_constraint ({ pmod_desc = Pmod_structure str; _ }, _) ) ->
      let saved = env.modpath in
      env.modpath <- saved @ [ name ];
      walk_structure env str;
      env.modpath <- saved
  | _ -> ()

let check_file symtab (f : Source.file) =
  let findings = ref [] and summaries = ref [] in
  let env =
    {
      file = f.path;
      modname = f.modname;
      modpath = [ f.modname ];
      symtab;
      findings;
      summaries;
      symbol = "-";
      cur =
        { sum_fn = "-"; sum_file = f.path; sum_acquires = []; sum_calls = [] };
    }
  in
  walk_structure env f.str;
  (List.rev !findings, List.rev !summaries)
