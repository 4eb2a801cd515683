open Parsetree
module F = Finding

(* ------------------------------------------------------------------ *)
(* Rule scoping by root-relative path                                  *)

let l1_allowed = [ "lib/sim/"; "lib/vm/"; "lib/netdev/" ]
let l2_allowed = [ "lib/sim/"; "bench/"; "test/test_perf_guard.ml" ]
(* L4 targets *clients* of the transfer facility. The machinery itself —
   core semantics, the IPC/message/netdev/xkernel receive paths whose
   hand-off policies (auto_free_dst, free_after, rx_handler) make frees
   conditional by design — and the randomized state-machine property
   tests (whose balance is semantic, checked dynamically by Fbufs_check)
   are out of scope. *)
let l4_exempt =
  [
    "lib/core/"; "lib/check/"; "lib/ipc/"; "lib/msg/"; "lib/netdev/";
    "lib/xkernel/"; "test/test_properties.ml";
  ]

(* L6 targets production registrations; the metrics unit tests register
   deliberately bad and dynamic names to exercise the runtime rejection
   path. *)
let l6_exempt = [ "test/" ]

(* L7 targets *clients* of the span facility. The sink and the machine
   wrappers manipulate open spans by design (drain-on-end, adoption into
   closed transfers), the trace layer has its own span vocabulary, and
   the tests construct deliberately unbalanced trees to exercise the
   runtime violation reporting. *)
let l7_exempt = [ "lib/sim/"; "lib/span/"; "lib/trace/"; "test/" ]

let under prefixes file =
  List.exists (fun p -> String.starts_with ~prefix:p file) prefixes

(* ------------------------------------------------------------------ *)
(* Parsetree helpers                                                   *)

let line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

(* The flattened path of an identifier expression, with a leading
   [Stdlib.] stripped so [Stdlib.ignore] and [ignore] compare equal. *)
let ident_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | "Stdlib" :: (_ :: _ as rest) -> Some rest
      | l -> Some l
      | exception _ -> None)
  | _ -> None

let rev_path e = Option.map List.rev (ident_path e)

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let doc_of_attr (a : attribute) =
  match a.attr_name.txt with
  | "ocaml.doc" | "doc" -> (
      match a.attr_payload with
      | PStr
          [
            {
              pstr_desc =
                Pstr_eval
                  ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
              _;
            };
          ] ->
          Some s
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* API classification (normalized module paths, matched by suffix so
   [Fbufs.Allocator.alloc], [Allocator.alloc] and local module aliases
   all count)                                                          *)

let bytes_mutators =
  [ "set"; "blit"; "fill"; "unsafe_set"; "unsafe_blit"; "unsafe_fill" ]

let is_bytes_mutator e =
  match ident_path e with
  | Some [ "Bytes"; op ] when List.mem op bytes_mutators -> Some op
  | _ -> None

let is_phys_mem_data e =
  match rev_path e with Some ("data" :: "Phys_mem" :: _) -> true | _ -> false

let is_acquire e =
  match rev_path e with
  | Some ("alloc" :: "Allocator" :: _)
  | Some ("send" :: "Transfer" :: _)
  | Some ("call" :: "Ipc" :: _)
  | Some ("make_message" :: "Testproto" :: _) ->
      true
  | _ -> false

let release_names =
  [
    "free"; "free_all"; "free_deferred"; "flush_deallocs"; "terminate_domain";
    "teardown"; "destroy_cached"; "reclaim_memory";
  ]

let is_release e =
  match rev_path e with
  | Some (last :: _) -> List.mem last release_names
  | _ -> false

let is_handle_call e =
  match rev_path e with
  | Some ("alloc" :: "Allocator" :: _)
  | Some ("of_fbuf" :: "Msg" :: _)
  | Some ("make_message" :: "Testproto" :: _) ->
      true
  | _ -> false

let nondet_msg e =
  match ident_path e with
  | Some ("Random" :: _) ->
      Some "Stdlib.Random breaks replay; use Fbufs_sim.Rng"
  | Some _ -> (
      match rev_path e with
      | Some ("gettimeofday" :: "Unix" :: _) | Some ("time" :: "Unix" :: _) ->
          Some "wall-clock time is nondeterministic; use the simulated clock"
      | Some ("time" :: "Sys" :: _) ->
          Some "Sys.time is nondeterministic; use the simulated clock"
      | Some ("hash" :: "Hashtbl" :: _)
      | Some ("hash_param" :: "Hashtbl" :: _)
      | Some ("seeded_hash" :: "Hashtbl" :: _) ->
          Some "Hashtbl.hash-dependent behavior is not stable across runs"
      | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

type parse_result = Ok_impl of structure | Ok_intf of signature | Err of F.t

let parse ~file ~kind source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  Lexer.init ();
  let err loc msg =
    let line, col = line_col loc in
    Err (F.v ~rule:"E0" ~file ~line:(max line 1) ~col msg)
  in
  try
    match kind with
    | `Impl -> Ok_impl (Parse.implementation lexbuf)
    | `Intf -> Ok_intf (Parse.interface lexbuf)
  with
  | Syntaxerr.Error e ->
      err (Syntaxerr.location_of_error e) "syntax error (file does not parse)"
  | Lexer.Error (_, loc) -> err loc "lexer error (file does not parse)"
  | _ -> err Location.none "parse failure"

(* ------------------------------------------------------------------ *)
(* L1 / L2 / L5: one full-tree pass                                    *)

let expression_pass ~file ~l1 ~l2 str =
  let found = ref [] in
  let add ~rule loc msg =
    let line, col = line_col loc in
    found := F.v ~rule ~file ~line ~col msg :: !found
  in
  let mentions_phys_data e =
    let hit = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            if is_phys_mem_data e then hit := true;
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it e;
    !hit
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              (match is_bytes_mutator f with
              | Some op
                when l1
                     && List.exists (fun (_, a) -> mentions_phys_data a) args
                ->
                  add ~rule:"L1" e.pexp_loc
                    (Printf.sprintf
                       "direct Bytes.%s on an fbuf payload (Phys_mem.data); \
                        write through the originator API (Fbuf_api/Access) \
                        or a Phys_mem helper"
                       op)
              | _ -> ());
              match (ident_path f, args) with
              | Some [ "ignore" ], [ (_, arg) ] -> (
                  match arg.pexp_desc with
                  | Pexp_apply (g, _) when is_handle_call g ->
                      add ~rule:"L5" e.pexp_loc
                        "ignored result carries an fbuf handle; the \
                         reference must be relinquished, not dropped"
                  | _ -> ())
              | _ -> ())
          | Pexp_ident _ -> (
              (match ident_path e with
              | Some [ "Obj"; "magic" ] ->
                  add ~rule:"L5" e.pexp_loc
                    "Obj.magic defeats every fbuf-discipline guarantee"
              | _ -> ());
              match nondet_msg e with
              | Some msg when l2 -> add ~rule:"L2" e.pexp_loc msg
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !found

(* ------------------------------------------------------------------ *)
(* L3: raises in exported functions must be named in the .mli doc      *)

let rec intf_docs prefix items acc =
  List.fold_left
    (fun acc it ->
      match it.psig_desc with
      | Psig_value vd ->
          let doc =
            String.concat " " (List.filter_map doc_of_attr vd.pval_attributes)
          in
          (prefix ^ vd.pval_name.txt, doc) :: acc
      | Psig_module
          {
            pmd_name = { txt = Some n; _ };
            pmd_type = { pmty_desc = Pmty_signature s; _ };
            _;
          } ->
          intf_docs (prefix ^ n ^ ".") s acc
      | _ -> acc)
    acc items

let rec impl_bindings prefix items acc =
  List.fold_left
    (fun acc it ->
      match it.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.fold_left
            (fun acc vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } -> (prefix ^ txt, vb.pvb_expr) :: acc
              | _ -> acc)
            acc vbs
      | Pstr_module
          {
            pmb_name = { txt = Some n; _ };
            pmb_expr = { pmod_desc = Pmod_structure s; _ };
            _;
          } ->
          impl_bindings (prefix ^ n ^ ".") s acc
      | _ -> acc)
    acc items

let collect_raises e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, (_, a1) :: _) -> (
              match ident_path f with
              | Some [ "raise" ] | Some [ "raise_notrace" ] -> (
                  match a1.pexp_desc with
                  | Pexp_construct ({ txt; _ }, _) ->
                      acc := (Longident.last txt, e.pexp_loc) :: !acc
                  | _ -> ())
              | Some [ "invalid_arg" ] | Some [ "Fmt"; "invalid_arg" ] ->
                  acc := ("Invalid_argument", e.pexp_loc) :: !acc
              | Some [ "failwith" ] | Some [ "Fmt"; "failwith" ] ->
                  acc := ("Failure", e.pexp_loc) :: !acc
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

let l3_pass ~file str sg =
  let docs = intf_docs "" sg [] in
  let bindings = impl_bindings "" str [] in
  List.concat_map
    (fun (name, body) ->
      match List.assoc_opt name docs with
      | None -> []
      | Some doc ->
          List.filter_map
            (fun (exc, loc) ->
              if contains_substring ~needle:exc doc then None
              else
                let line, col = line_col loc in
                Some
                  (F.v ~rule:"L3" ~file ~line ~col
                     (Printf.sprintf
                        "exported %s raises %s but the .mli doc comment \
                         does not mention it"
                        name exc)))
            (collect_raises body))
    bindings

(* ------------------------------------------------------------------ *)
(* L4: per-scope relinquish balance                                    *)

(* A scope is a function body, a lambda body or a loop body; nested
   scopes are analyzed independently (a handler lambda owns its own
   balance; a loop body balances per iteration). *)

let strip_funs e =
  let rec go e =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> go body
    | _ -> e
  in
  go e

let is_scope_boundary e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_for _ | Pexp_while _ -> true
  | _ -> false

(* Shallow walk: visit every expression of the scope without entering
   nested scopes. *)
let iter_shallow on_expr e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          if is_scope_boundary e then ()
          else begin
            on_expr e;
            Ast_iterator.default_iterator.expr self e
          end);
    }
  in
  if is_scope_boundary e then () else it.expr it e

(* (definitely, possibly): does every / any syntactic exit path through
   [e] perform a call satisfying [is_rel]? Exceptional exits are treated
   optimistically (a [try] body's balance stands for the whole). *)
let rel ~is_rel e =
  let rec go e =
    let none = (false, false) in
    let all_evaluated parts =
      (List.exists fst parts, List.exists snd parts)
    in
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_for _ | Pexp_while _ | Pexp_lazy _
      ->
        none
    | Pexp_apply (f, args) ->
        let here = is_rel f in
        let d, p = all_evaluated (List.map (fun (_, a) -> go a) args) in
        (here || d, here || p)
    | Pexp_sequence (a, b) -> all_evaluated [ go a; go b ]
    | Pexp_let (_, vbs, body) ->
        all_evaluated (go body :: List.map (fun vb -> go vb.pvb_expr) vbs)
    | Pexp_ifthenelse (c, t, f) ->
        let dc, pc = go c in
        let dt, pt = go t in
        let df, pf = match f with Some f -> go f | None -> (false, false) in
        (dc || (dt && df), pc || pt || pf)
    | Pexp_match (s, cases) ->
        let ds, ps = go s in
        let rs = List.map (fun c -> go c.pc_rhs) cases in
        ( ds || (cases <> [] && List.for_all fst rs),
          ps || List.exists snd rs )
    | Pexp_try (b, cases) ->
        let db, pb = go b in
        (db, pb || List.exists (fun c -> snd (go c.pc_rhs)) cases)
    | Pexp_constraint (e, _)
    | Pexp_coerce (e, _, _)
    | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e)
    | Pexp_letexception (_, e)
    | Pexp_construct (_, Some e)
    | Pexp_variant (_, Some e)
    | Pexp_assert e
    | Pexp_field (e, _)
    | Pexp_send (e, _) ->
        go e
    | Pexp_tuple l | Pexp_array l -> all_evaluated (List.map go l)
    | Pexp_record (fields, base) ->
        all_evaluated
          (List.map (fun (_, e) -> go e) fields
          @ match base with Some b -> [ go b ] | None -> [])
    | Pexp_setfield (a, _, b) -> all_evaluated [ go a; go b ]
    | _ -> none
  in
  go e

let nested_scopes e =
  let acc = ref [] in
  let add body = acc := strip_funs body :: !acc in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_fun (_, _, _, body) -> add body
          | Pexp_function cases ->
              List.iter (fun c -> add c.pc_rhs) cases
          | Pexp_for (_, _, _, _, body) | Pexp_while (_, body) -> add body
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !acc

(* Shared scope walk for the two balance rules: find the first [is_acq]
   call of each scope, run the definitely/possibly analysis with
   [is_rel], and let [flag] decide whether the (d, p) pair is a
   finding. *)
let rec analyze_scope ~is_acq ~is_rel ~flag ~file ~name acc e =
  let acquire = ref None in
  iter_shallow
    (fun e ->
      match e.pexp_desc with
      | Pexp_apply (f, _) when is_acq f && !acquire = None -> (
          match ident_path f with
          | Some p -> acquire := Some (String.concat "." p, e.pexp_loc)
          | None -> ())
      | _ -> ())
    e;
  let acc =
    match !acquire with
    | Some (fn, loc) -> (
        let d, p = rel ~is_rel e in
        match flag ~name ~fn ~d ~p with
        | Some (rule, msg) ->
            let line, col = line_col loc in
            F.v ~rule ~file ~line ~col msg :: acc
        | None -> acc)
    | None -> acc
  in
  List.fold_left
    (fun acc body ->
      analyze_scope ~is_acq ~is_rel ~flag ~file ~name:(name ^ ".<fun>") acc
        body)
    acc (nested_scopes e)

let balance_pass ~is_acq ~is_rel ~flag ~file str =
  let bindings = impl_bindings "" str [] in
  List.fold_left
    (fun acc (name, e) ->
      analyze_scope ~is_acq ~is_rel ~flag ~file ~name acc (strip_funs e))
    [] bindings

let l4_pass ~file str =
  let flag ~name ~fn ~d ~p =
    if p && not d then
      Some
        ( "L4",
          Printf.sprintf
            "%s acquires an fbuf reference via %s but relinquishes on only \
             some syntactic exit paths"
            name fn )
    else None
  in
  balance_pass ~is_acq:is_acquire ~is_rel:is_release ~flag ~file str

(* ------------------------------------------------------------------ *)
(* L7: span begin/end balance                                          *)

(* A span id obtained from any of the open-span entry points must be
   closed on every syntactic exit path of the scope that opened it — an
   unfinished span corrupts the per-machine context stack and shows up
   only later, as a drain-time violation on some unrelated transfer.
   Unlike L4, never releasing at all is also a finding: span ids are
   meaningless outside their machine, so there is no ownership
   hand-off that could justify it. Matching is by function name, so
   [Machine.span_enter] and any alias of it count alike. *)

let span_acquire_names =
  [ "span_enter"; "span_adopt"; "span_begin"; "transfer_begin" ]

let span_release_names = [ "span_exit"; "span_end"; "transfer_end" ]

let is_span_acquire e =
  match rev_path e with
  | Some (last :: _) -> List.mem last span_acquire_names
  | _ -> false

let is_span_release e =
  match rev_path e with
  | Some (last :: _) -> List.mem last span_release_names
  | _ -> false

let l7_pass ~file str =
  let flag ~name ~fn ~d ~p:_ =
    if not d then
      Some
        ( "L7",
          Printf.sprintf
            "%s opens a span via %s but does not close it on every \
             syntactic exit path"
            name fn )
    else None
  in
  balance_pass ~is_acq:is_span_acquire ~is_rel:is_span_release ~flag ~file str

(* ------------------------------------------------------------------ *)
(* L6: metric registrations                                            *)

(* A registration is an application of [counter]/[gauge]/[sketch]
   (under any module alias of [Fbufs_metrics.Metrics]) carrying both the
   [~name] and [~help] labelled arguments — the registration signature.
   Three disciplines, all static approximations of what the runtime
   registry enforces or assumes:

   - the [~name] must be a string literal (the exposition contract is
     greppable, and the runtime duplicate check is only useful if names
     are decided at compile time);
   - the literal must match [^fbufs_[a-z0-9_]+$], the namespace the
     exposition formats promise;
   - the registration must execute at module initialization, not under a
     lambda or loop — a registration that re-runs raises
     [Invalid_argument] on the second call.

   Duplicate literals are tracked across the whole lint run in
   [registered_metric_names]; {!reset_registered_metrics} clears the
   table between runs. *)

let registered_metric_names : (string, string) Hashtbl.t = Hashtbl.create 32
let reset_registered_metrics () = Hashtbl.reset registered_metric_names

let metric_name_ok s =
  let prefix = "fbufs_" in
  String.length s > String.length prefix
  && String.starts_with ~prefix s
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       s

let labelled l args =
  List.find_map
    (fun (lbl, a) ->
      match lbl with Asttypes.Labelled l' when l' = l -> Some a | _ -> None)
    args

let is_metric_registration f args =
  (match rev_path f with
  | Some (("counter" | "gauge" | "sketch") :: _) -> true
  | _ -> false)
  && labelled "name" args <> None
  && labelled "help" args <> None

let l6_pass ~file str =
  let found = ref [] in
  let add loc msg =
    let line, col = line_col loc in
    found := F.v ~rule:"L6" ~file ~line ~col msg :: !found
  in
  let depth = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          let nested =
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ | Pexp_for _ | Pexp_while _
            | Pexp_lazy _ ->
                true
            | _ -> false
          in
          (match e.pexp_desc with
          | Pexp_apply (f, args) when is_metric_registration f args -> (
              (if !depth > 0 then
                 add e.pexp_loc
                   "metric registered under a function or loop; \
                    registrations must run once, at module initialization");
              match labelled "name" args with
              | Some { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }
                -> (
                  if not (metric_name_ok s) then
                    add e.pexp_loc
                      (Printf.sprintf
                         "metric name %S does not match ^fbufs_[a-z0-9_]+$" s)
                  else
                    match Hashtbl.find_opt registered_metric_names s with
                    | Some first when first <> file ->
                        add e.pexp_loc
                          (Printf.sprintf
                             "metric name %S already registered in %s" s first)
                    | Some _ ->
                        add e.pexp_loc
                          (Printf.sprintf
                             "metric name %S registered twice in this unit" s)
                    | None -> Hashtbl.replace registered_metric_names s file)
              | Some arg ->
                  add arg.pexp_loc
                    "metric name must be a string literal, not a computed \
                     value"
              | None -> ())
          | _ -> ());
          if nested then begin
            incr depth;
            Ast_iterator.default_iterator.expr self e;
            decr depth
          end
          else Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !found

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let lint_unit ~file ~impl ?intf () =
  let norm = String.map (fun c -> if c = '\\' then '/' else c) file in
  match parse ~file ~kind:`Impl impl with
  | Err f -> [ f ]
  | Ok_intf _ -> assert false
  | Ok_impl str ->
      let l1 = not (under l1_allowed norm) in
      let l2 = not (under l2_allowed norm) in
      let l4 = not (under l4_exempt norm) in
      let l6 = not (under l6_exempt norm) in
      let l7 = not (under l7_exempt norm) in
      let a = expression_pass ~file ~l1 ~l2 str in
      let b = if l4 then l4_pass ~file str else [] in
      let d = if l6 then l6_pass ~file str else [] in
      let e = if l7 then l7_pass ~file str else [] in
      let c =
        match intf with
        | None -> []
        | Some src -> (
            match parse ~file:(file ^ "i") ~kind:`Intf src with
            | Err f -> [ f ]
            | Ok_impl _ -> assert false
            | Ok_intf sg -> l3_pass ~file str sg)
      in
      List.sort_uniq F.compare (a @ b @ c @ d @ e)

let lint_file ~root rel =
  let read p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let path = Filename.concat root rel in
  let impl = read path in
  let intf =
    let i = path ^ "i" in
    if Sys.file_exists i then Some (read i) else None
  in
  lint_unit ~file:rel ~impl ?intf ()
