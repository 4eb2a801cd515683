(* Fbufs_lint: one known-bad fixture per rule, each pinned to an exact
   file:line, plus negative (clean) fixtures and the JSON round-trip the
   CI artifact and baseline depend on.

   The fixtures use paths outside every allowlist (lib/demo/...) so all
   rules apply; the dogfood test lints the real lib/core/lifecycle unit
   (made visible via dune deps) and expects it clean. *)

module Finding = Fbufs_lint.Finding
module Rules = Fbufs_lint.Rules
module Typestate = Fbufs_lint.Typestate
module Summary = Fbufs_lint.Summary
module Driver = Fbufs_lint.Driver
module Sarif = Fbufs_lint.Sarif

let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let finding_t =
  Alcotest.testable Finding.pp (fun a b -> Finding.compare a b = 0)

let lint ?intf impl = Rules.lint_unit ~file:"lib/demo/fixture.ml" ~impl ?intf ()

(* Exactly one finding with the expected rule and span; the message is
   asserted by keyword so wording can evolve without breaking the test.
   The rule must be one the SARIF table documents. *)
let expect_one ~rule ~line ~keyword findings =
  Alcotest.(check bool)
    (Printf.sprintf "%s has a SARIF rule_meta entry" rule)
    true
    (List.mem_assoc rule Sarif.rule_meta);
  check Alcotest.int "exactly one finding" 1 (List.length findings);
  let f = List.hd findings in
  check Alcotest.string "rule" rule f.Finding.rule;
  check Alcotest.int "line" line f.Finding.line;
  Alcotest.(check bool)
    (Printf.sprintf "message mentions %S (got %S)" keyword f.Finding.msg)
    true
    (contains f.Finding.msg keyword)

(* ------------------------------------------------------------------ *)
(* Layer A: bad fixtures                                               *)

let test_l1_direct_payload_write () =
  lint "let scribble pm id =\n  Bytes.set (Phys_mem.data pm id) 0 'x'\n"
  |> expect_one ~rule:"L1" ~line:2 ~keyword:"Bytes.set"

let test_l2_nondeterminism () =
  lint "let roll () =\n  Random.int 6\n"
  |> expect_one ~rule:"L2" ~line:2 ~keyword:"Random"

let test_l3_undocumented_raise () =
  lint
    "let clamp n =\n  if n < 0 then invalid_arg \"clamp\" else n\n"
    ~intf:"val clamp : int -> int\n(** Clamp to non-negative. *)\n"
  |> expect_one ~rule:"L3" ~line:2 ~keyword:"Invalid_argument"

let test_l4_asymmetric_release () =
  lint
    "let leaky alloc dom keep =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  if keep then () else Transfer.free fb ~dom\n"
  |> expect_one ~rule:"L4" ~line:2 ~keyword:"some syntactic exit paths"

let test_l5_obj_magic () =
  lint "let launder x =\n  Obj.magic x\n"
  |> expect_one ~rule:"L5" ~line:2 ~keyword:"Obj.magic"

let test_l5_ignored_handle () =
  lint "let drop alloc =\n  ignore (Allocator.alloc alloc ~npages:1)\n"
  |> expect_one ~rule:"L5" ~line:2 ~keyword:"fbuf handle"

let test_parse_error_is_a_finding () =
  lint "let let let\n"
  |> expect_one ~rule:"E0" ~line:1 ~keyword:"does not parse"

(* L6: each test resets the cross-unit name table so order is irrelevant. *)
let lint_l6 ?(file = "lib/demo/fixture.ml") impl =
  Rules.reset_registered_metrics ();
  Rules.lint_unit ~file ~impl ()

let test_l6_bad_name () =
  lint_l6 "let c =\n  Mx.counter ~name:\"requests_total\" ~help:\"h\" ()\n"
  |> expect_one ~rule:"L6" ~line:2 ~keyword:"fbufs_"

let test_l6_dynamic_name () =
  lint_l6
    "let c =\n  Mx.counter ~name:(prefix ^ \"_total\") ~help:\"h\" ()\n"
  |> expect_one ~rule:"L6" ~line:2 ~keyword:"string literal"

let test_l6_registration_under_lambda () =
  lint_l6
    "let make () =\n  Mx.gauge ~name:\"fbufs_demo_depth\" ~help:\"h\" ()\n"
  |> expect_one ~rule:"L6" ~line:2 ~keyword:"module initialization"

let test_l6_duplicate_within_unit () =
  lint_l6
    "let a = Mx.counter ~name:\"fbufs_demo_total\" ~help:\"h\" ()\n\
     let b = Mx.counter ~name:\"fbufs_demo_total\" ~help:\"h\" ()\n"
  |> expect_one ~rule:"L6" ~line:2 ~keyword:"twice"

let test_l6_duplicate_across_units () =
  Rules.reset_registered_metrics ();
  let impl = "let a = Mx.counter ~name:\"fbufs_demo_total\" ~help:\"h\" ()\n" in
  let first = Rules.lint_unit ~file:"lib/demo/one.ml" ~impl () in
  check Alcotest.int "first unit clean" 0 (List.length first);
  Rules.lint_unit ~file:"lib/demo/two.ml" ~impl ()
  |> expect_one ~rule:"L6" ~line:1 ~keyword:"lib/demo/one.ml"

let test_l6_sketch_is_a_registration () =
  lint_l6 "let s =\n  Mx.sketch ~name:\"walls_us\" ~help:\"h\" ()\n"
  |> expect_one ~rule:"L6" ~line:2 ~keyword:"fbufs_"

(* The observability metric families are ordinary L6 citizens: the real
   names register cleanly at module init, and a second unit claiming
   either one is a cross-unit duplicate. *)
let test_l6_covers_obs_names () =
  Rules.reset_registered_metrics ();
  let impl =
    "let a = Mx.counter ~name:\"fbufs_obs_dumps_total\" ~help:\"h\" ()\n\
     let b = Mx.counter ~name:\"fbufs_monitor_violations_total\" ~help:\"h\" ()\n"
  in
  let first = Rules.lint_unit ~file:"lib/demo/obs_one.ml" ~impl () in
  check Alcotest.int "obs names register cleanly" 0 (List.length first);
  Rules.lint_unit ~file:"lib/demo/obs_two.ml"
    ~impl:"let c = Mx.counter ~name:\"fbufs_obs_dumps_total\" ~help:\"h\" ()\n"
    ()
  |> expect_one ~rule:"L6" ~line:1 ~keyword:"lib/demo/obs_one.ml"

(* L7 *)

let test_l7_never_closed () =
  lint
    "let fire m =\n\
    \  let sp = Machine.span_enter m \"demo\" in\n\
    \  work sp\n"
  |> expect_one ~rule:"L7" ~line:2 ~keyword:"every"

let test_l7_closed_on_some_paths () =
  lint
    "let fire m ok =\n\
    \  let sp = Machine.span_enter m \"demo\" in\n\
    \  if ok then Machine.span_exit m sp\n"
  |> expect_one ~rule:"L7" ~line:2 ~keyword:"every"

let test_l7_dangling_transfer () =
  lint
    "let go m =\n\
    \  let tid = Machine.transfer_begin m \"msg\" in\n\
    \  push tid\n"
  |> expect_one ~rule:"L7" ~line:2 ~keyword:"every"

(* ------------------------------------------------------------------ *)
(* Layer A: negatives                                                  *)

let test_clean_fixture () =
  let fs =
    lint
      "let shuttle alloc dom =\n\
      \  let fb = Allocator.alloc alloc ~npages:1 in\n\
      \  Transfer.free fb ~dom\n"
      ~intf:"val shuttle : Allocator.t -> Pd.t -> unit\n"
  in
  check (Alcotest.list finding_t) "no findings" [] fs

let test_l3_documented_raise_is_clean () =
  let fs =
    lint
      "let clamp n =\n  if n < 0 then invalid_arg \"clamp\" else n\n"
      ~intf:
        "val clamp : int -> int\n\
         (** Clamp; raises [Invalid_argument] when negative. *)\n"
  in
  check (Alcotest.list finding_t) "no findings" [] fs

let test_l1_allowed_inside_sim () =
  let fs =
    Rules.lint_unit ~file:"lib/sim/fixture.ml"
      ~impl:"let scribble pm id =\n  Bytes.set (Phys_mem.data pm id) 0 'x'\n"
      ()
  in
  check (Alcotest.list finding_t) "lib/sim owns the frames" [] fs

let test_l4_full_release_is_clean () =
  let fs =
    lint
      "let balanced alloc dom keep =\n\
      \  let fb = Allocator.alloc alloc ~npages:1 in\n\
      \  if keep then Transfer.free fb ~dom else Transfer.free fb ~dom\n"
  in
  check (Alcotest.list finding_t) "release on every path" [] fs

let test_l6_top_level_literal_is_clean () =
  let fs =
    lint_l6
      "let c =\n\
      \  Mx.counter ~name:\"fbufs_demo_total\" ~help:\"h\"\n\
      \    ~labels:[ \"machine\" ] ()\n"
  in
  check (Alcotest.list finding_t) "well-formed registration" [] fs

let test_l6_exempt_under_test () =
  let fs =
    lint_l6 ~file:"test/fixture.ml"
      "let c () = Mx.counter ~name:(dyn ()) ~help:\"h\" ()\n"
  in
  check (Alcotest.list finding_t) "test/ is exempt" [] fs

let test_l7_balanced_is_clean () =
  let fs =
    lint
      "let fire m ok =\n\
      \  let sp = Machine.span_enter m \"demo\" in\n\
      \  (if ok then fast () else slow ());\n\
      \  Machine.span_exit m sp\n"
  in
  check (Alcotest.list finding_t) "closed on every path" [] fs

let test_l7_with_transfer_is_clean () =
  (* The bracketed form owns the close internally; it is not an open. *)
  let fs =
    lint "let go m =\n  Machine.with_transfer m \"msg\" (fun () -> push ())\n"
  in
  check (Alcotest.list finding_t) "with_transfer needs no pairing" [] fs

let test_l7_exempt_under_span () =
  let fs =
    Rules.lint_unit ~file:"lib/span/fixture.ml"
      ~impl:"let go m =\n  let sp = Machine.span_enter m \"demo\" in\n  keep sp\n"
      ()
  in
  check (Alcotest.list finding_t) "lib/span is exempt" [] fs

(* Dogfood: the unit whose Invalid_argument contract this PR pins down
   must itself pass L3 — the .mli names the exception. *)
let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let in_tree rel =
  (* cwd is test/ under dune runtest, the repo root under dune exec. *)
  if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel

let test_l3_dogfood_lifecycle () =
  let impl = read_file (in_tree "lib/core/lifecycle.ml") in
  let intf = read_file (in_tree "lib/core/lifecycle.mli") in
  Alcotest.(check bool)
    "the contract is stated in the interface" true
    (contains intf "Invalid_argument");
  let fs = Rules.lint_unit ~file:"lib/core/lifecycle.ml" ~impl ~intf () in
  check (Alcotest.list finding_t) "lifecycle is lint-clean" [] fs

(* ------------------------------------------------------------------ *)
(* JSON round-trip (artifact and baseline grammar)                     *)

let test_json_round_trip () =
  let fs =
    [
      Finding.v ~rule:"L1" ~file:"lib/demo/a.ml" ~line:7 ~col:2
        "message with \"quotes\" and a\nnewline";
      Finding.v ~rule:"C2" ~file:"lib/demo/b.ml" ~line:0 "line zero";
    ]
  in
  let s = Fbufs_trace.Json.to_string (Finding.list_to_json fs) in
  check (Alcotest.list finding_t) "decode (encode fs) = fs" fs
    (Finding.list_of_string s)

let test_baseline_matches_ignoring_line () =
  let f = Finding.v ~rule:"L3" ~file:"lib/demo/a.ml" ~line:10 "msg" in
  let moved = { f with Finding.line = 99; col = 4 } in
  let other = { f with Finding.rule = "L4" } in
  Alcotest.(check bool) "same rule+file+msg, moved line" true
    (Finding.baseline_mem ~baseline:[ f ] moved);
  Alcotest.(check bool) "different rule" false
    (Finding.baseline_mem ~baseline:[ f ] other)

let test_malformed_baseline_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       let (_ : Finding.t list) = Finding.list_of_string "{\"not\": 1}" in
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Layer C: interprocedural typestate — bad fixtures                   *)

let lint_c impl = Typestate.lint_unit ~file:"lib/demo/fixture.ml" ~impl

let test_c1_cross_function_use_after_free () =
  lint_c
    "let discard fb dom =\n\
    \  Transfer.free fb ~dom\n\
     \n\
     let go alloc dom =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  discard fb dom;\n\
    \  Fbuf_api.read fb ~as_:dom ~off:0 ~len:4\n"
  |> expect_one ~rule:"C1" ~line:7 ~keyword:"use after free"

let test_c1_double_free () =
  lint_c
    "let twice alloc dom =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.free fb ~dom;\n\
    \  Transfer.free fb ~dom\n"
  |> expect_one ~rule:"C1" ~line:4 ~keyword:"double free"

let test_c2_leak_through_helper () =
  lint_c
    "let make alloc =\n\
    \  Allocator.alloc alloc ~npages:1\n\
     \n\
     let forget alloc =\n\
    \  let fb = make alloc in\n\
    \  ignore (Fbuf.size fb)\n"
  |> expect_one ~rule:"C2" ~line:5 ~keyword:"leaked"

let test_c3_write_after_send_via_alias () =
  lint_c
    "let oops alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  let same = fb in\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  Fbuf_api.set_word same ~as_:src ~off:0 7;\n\
    \  Transfer.free fb ~dom:dst;\n\
    \  Transfer.free same ~dom:src\n"
  |> expect_one ~rule:"C3" ~line:5 ~keyword:"immutable"

let test_c3_write_after_send_via_helper () =
  lint_c
    "let poke fb dom =\n\
    \  Fbuf_api.touch_write fb ~as_:dom\n\
     \n\
     let relay alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  poke fb src;\n\
    \  Transfer.free fb ~dom:src\n"
  |> expect_one ~rule:"C3" ~line:7 ~keyword:"poke"

let test_c4_read_before_secure_via_helper () =
  lint_c
    "let peek fb dom =\n\
    \  Fbuf_api.word_at fb ~as_:dom ~off:0\n\
     \n\
     let spy tb producer consumer =\n\
    \  let alloc =\n\
    \    Testbed.allocator tb ~domains:[ producer; consumer ]\n\
    \      Fbuf.cached_volatile\n\
    \  in\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src:producer ~dst:consumer;\n\
    \  ignore (peek fb consumer);\n\
    \  Transfer.secure fb;\n\
    \  Transfer.free fb ~dom:consumer;\n\
    \  Transfer.free fb ~dom:producer\n"
  |> expect_one ~rule:"C4" ~line:11 ~keyword:"before secure"

let test_c4_direct_read_before_secure () =
  lint_c
    "let spy tb producer consumer =\n\
    \  let alloc =\n\
    \    Testbed.allocator tb ~domains:[ producer; consumer ]\n\
    \      Fbuf.cached_volatile\n\
    \  in\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Fbuf_api.write fb ~as_:producer ~off:0 \"hello\";\n\
    \  Transfer.send fb ~src:producer ~dst:consumer;\n\
    \  let seen = Fbuf_api.read_string fb ~as_:consumer ~off:0 ~len:5 in\n\
    \  Transfer.secure fb;\n\
    \  Transfer.free fb ~dom:consumer;\n\
    \  Transfer.free fb ~dom:producer;\n\
    \  seen\n"
  |> expect_one ~rule:"C4" ~line:9 ~keyword:"before secure"

let test_c3_write_after_secure () =
  lint_c
    "let rewrite alloc producer consumer =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src:producer ~dst:consumer;\n\
    \  Transfer.secure fb;\n\
    \  Fbuf_api.write fb ~as_:producer ~off:0 \"late\";\n\
    \  Transfer.free fb ~dom:consumer;\n\
    \  Transfer.free fb ~dom:producer\n"
  |> expect_one ~rule:"C3" ~line:5 ~keyword:"secured"

let test_c3_direct_write_after_send () =
  lint_c
    "let demo alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  Fbuf_api.touch_write fb ~as_:src;\n\
    \  Transfer.free fb ~dom:src;\n\
    \  Transfer.free fb ~dom:dst\n"
  |> expect_one ~rule:"C3" ~line:4 ~keyword:"immutable"

(* ------------------------------------------------------------------ *)
(* Layer C: negatives (the hand-off idioms must stay clean)            *)

let expect_clean name impl =
  check (Alcotest.list finding_t) name [] (lint_c impl)

let test_c_clean_handoff_to_helper () =
  expect_clean "deliver owns the frees"
    "let deliver fb ~src ~dst =\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  Transfer.free fb ~dom:dst;\n\
    \  Transfer.free fb ~dom:src\n\
     \n\
     let pipeline alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Fbuf_api.write fb ~as_:src ~off:0 \"payload\";\n\
    \  deliver fb ~src ~dst\n"

let test_c_clean_rx_handler_lambda () =
  expect_clean "rx handler borrows and frees"
    "let install rx dom =\n\
    \  Ipc.set_rx_handler rx (fun fb ->\n\
    \      ignore (Fbuf_api.word_at fb ~as_:dom ~off:0);\n\
    \      Transfer.free fb ~dom)\n"

let test_c_clean_returned_handle () =
  expect_clean "returning hands ownership off"
    "let produce alloc dom =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Fbuf_api.write fb ~as_:dom ~off:0 \"x\";\n\
    \  fb\n"

let test_c_clean_two_domain_free () =
  expect_clean "one free per holding domain is not a double free"
    "let full alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  Transfer.secure fb;\n\
    \  Transfer.free fb ~dom:dst;\n\
    \  Transfer.free fb ~dom:src\n"

let test_c_clean_secure_then_read () =
  expect_clean "reading a secured volatile fbuf is safe"
    "let careful tb producer consumer =\n\
    \  let alloc =\n\
    \    Testbed.allocator tb ~domains:[ producer; consumer ]\n\
    \      Fbuf.cached_volatile\n\
    \  in\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Fbuf_api.write fb ~as_:producer ~off:0 \"hello\";\n\
    \  Transfer.send fb ~src:producer ~dst:consumer;\n\
    \  Transfer.secure fb;\n\
    \  let seen = Fbuf_api.read_string fb ~as_:consumer ~off:0 ~len:5 in\n\
    \  Transfer.free fb ~dom:consumer;\n\
    \  Transfer.free fb ~dom:producer;\n\
    \  seen\n"

let test_c_clean_branchy_free_is_l4_territory () =
  (* Relinquished on one path only: L4's finding, not C2's (C2 is the
     no-path completion). *)
  expect_clean "some-path free raises no C finding"
    "let branchy alloc dom keep =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  if keep then Transfer.free fb ~dom\n"

let test_c_allow_annotation_suppresses () =
  expect_clean "[@lint.allow] silences the named rule"
    "let demo alloc src dst =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  Transfer.send fb ~src ~dst;\n\
    \  (Fbuf_api.touch_write fb ~as_:src [@lint.allow \"C3\"]);\n\
    \  Transfer.free fb ~dom:src;\n\
    \  Transfer.free fb ~dom:dst\n"

(* ------------------------------------------------------------------ *)
(* Dedup: L4 and C2 at the same span keep only the Layer C finding     *)

let test_dedup_l4_shadowed_by_c2 () =
  let impl =
    "let free _fb = ()\n\
     \n\
     let stubbed alloc keep =\n\
    \  let fb = Allocator.alloc alloc ~npages:1 in\n\
    \  if keep then () else free fb\n"
  in
  let a = Rules.lint_unit ~file:"lib/demo/fixture.ml" ~impl () in
  let c = Typestate.lint_unit ~file:"lib/demo/fixture.ml" ~impl in
  let combined = List.sort_uniq Finding.compare (a @ c) in
  check Alcotest.int "both layers fire" 2 (List.length combined);
  Alcotest.(check (list string))
    "L4 and C2 share the span"
    [ "C2"; "L4" ]
    (List.map (fun f -> f.Finding.rule) combined);
  Driver.dedup combined |> expect_one ~rule:"C2" ~line:4 ~keyword:"leaked"

let test_dedup_keeps_distinct_spans () =
  let l4 = Finding.v ~rule:"L4" ~file:"a.ml" ~line:2 ~col:11 "acquired" in
  let c2 = Finding.v ~rule:"C2" ~file:"a.ml" ~line:9 ~col:11 "leaked" in
  check Alcotest.int "different lines: both survive" 2
    (List.length (Driver.dedup [ l4; c2 ]))

(* ------------------------------------------------------------------ *)
(* qcheck: summary fixpoint terminates, is deterministic and monotone  *)

let graph_src shape =
  let n = List.length shape in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i (frees, outs) ->
      Buffer.add_string buf (Printf.sprintf "let f%d fb dom =\n" i);
      if frees then Buffer.add_string buf "  Transfer.free fb ~dom;\n";
      List.iter
        (fun j -> Buffer.add_string buf (Printf.sprintf "  f%d fb dom;\n" (j mod n)))
        outs;
      Buffer.add_string buf "  ()\n\n")
    shape;
  Buffer.contents buf

let parse_fixture src =
  match Rules.parse ~file:"lib/demo/gen.ml" ~kind:`Impl src with
  | Rules.Ok_impl str -> [ ("lib/demo/gen.ml", str) ]
  | _ -> Alcotest.fail ("generated fixture does not parse:\n" ^ src)

let prop_summary_fixpoint =
  QCheck.Test.make
    ~name:"summary fixpoint terminates, deterministic, monotone" ~count:60
    QCheck.(
      list_of_size
        Gen.(2 -- 8)
        (pair bool (list_of_size Gen.(0 -- 3) (int_bound 7))))
    (fun shape ->
      QCheck.assume (List.length shape >= 2);
      let units = parse_fixture (graph_src shape) in
      let s1, rounds = Typestate.summaries units in
      let s2, _ = Typestate.summaries units in
      let n = List.length shape in
      (* Terminates well under the bound even with cycles. *)
      if rounds > (16 * n) + 8 then
        QCheck.Test.fail_reportf "too many sweeps: %d for %d defs" rounds n;
      (* Deterministic. *)
      if
        not
          (List.for_all2
             (fun (q1, a) (q2, b) -> q1 = q2 && Summary.equal a b)
             s1 s2)
      then QCheck.Test.fail_report "two runs disagree";
      (* Monotone: making one body also free its handle can only grow
         summaries. *)
      let grown =
        match shape with
        | (_, outs) :: rest -> (true, outs) :: rest
        | [] -> []
      in
      let s3, _ = Typestate.summaries (parse_fixture (graph_src grown)) in
      List.for_all2 (fun (_, a) (_, b) -> Summary.le a b) s1 s3)

(* ------------------------------------------------------------------ *)
(* SARIF                                                               *)

let test_sarif_shape () =
  let fs =
    [
      Finding.v ~rule:"C1" ~file:"examples/quickstart.ml" ~line:43 ~col:65
        "use after free";
      Finding.v ~rule:"C2" ~file:"lib/demo/b.ml" ~line:0 "line zero";
    ]
  in
  let module J = Fbufs_trace.Json in
  let doc = J.parse (J.to_string (Sarif.to_json fs)) in
  let get path v =
    List.fold_left
      (fun v k ->
        match v with
        | Some (J.Obj _ as o) -> J.member k o
        | Some (J.List l) -> ( try Some (List.nth l (int_of_string k)) with _ -> None)
        | _ -> None)
      (Some v) path
  in
  (match get [ "version" ] doc with
  | Some (J.String "2.1.0") -> ()
  | _ -> Alcotest.fail "version");
  (match get [ "runs"; "0"; "tool"; "driver"; "name" ] doc with
  | Some (J.String "fbufs_lint") -> ()
  | _ -> Alcotest.fail "driver name");
  (match get [ "runs"; "0"; "results"; "0"; "ruleId" ] doc with
  | Some (J.String "C1") -> ()
  | _ -> Alcotest.fail "ruleId");
  (match
     get
       [
         "runs"; "0"; "results"; "0"; "locations"; "0"; "physicalLocation";
         "region"; "startLine";
       ]
       doc
   with
  | Some (J.Int 43) -> ()
  | _ -> Alcotest.fail "startLine");
  (* 0-based finding column becomes 1-based SARIF column; line 0 clamps
     to 1, SARIF's first line. *)
  (match
     get
       [
         "runs"; "0"; "results"; "0"; "locations"; "0"; "physicalLocation";
         "region"; "startColumn";
       ]
       doc
   with
  | Some (J.Int 66) -> ()
  | _ -> Alcotest.fail "startColumn");
  (match
     get
       [
         "runs"; "0"; "results"; "1"; "locations"; "0"; "physicalLocation";
         "region"; "startLine";
       ]
       doc
   with
  | Some (J.Int 1) -> ()
  | _ -> Alcotest.fail "clamped startLine");
  match get [ "runs"; "0"; "tool"; "driver"; "rules" ] doc with
  | Some (J.List rules) ->
      check
        Alcotest.(list string)
        "every rule this tool emits, and no other, is documented"
        [ "E0"; "L1"; "L2"; "L3"; "L4"; "L5"; "L6"; "L7"; "C1"; "C2"; "C3"; "C4" ]
        (List.map
           (fun r ->
             match J.member "id" r with
             | Some (J.String id) -> id
             | _ -> Alcotest.fail "rule without an id")
           rules)
  | _ -> Alcotest.fail "rules array"

(* ------------------------------------------------------------------ *)
(* Baseline staleness                                                  *)

let test_stale_entries () =
  let live = Finding.v ~rule:"C1" ~file:"examples/q.ml" ~line:3 "boom" in
  let dead = Finding.v ~rule:"L4" ~file:"lib/gone.ml" ~line:9 "old debt" in
  let findings = [ { live with Finding.line = 30 } ] in
  let stale = Driver.stale_entries ~baseline:[ live; dead ] findings in
  check (Alcotest.list finding_t) "only the unmatched entry is stale"
    [ dead ] stale;
  check (Alcotest.list finding_t) "empty baseline is never stale" []
    (Driver.stale_entries ~baseline:[] findings)

(* The CLI gate end to end: a baseline entry nothing matches makes lint
   exit 3 even though there are no fresh findings. Exercised against the
   real tree (which doubles as the in-tree zero-findings dogfood). *)
let cli_setup () =
  if Sys.file_exists "../bin/fbufs_cli.exe" then
    Some ("../bin/fbufs_cli.exe", "..")
  else if Sys.file_exists "_build/default/bin/fbufs_cli.exe" then
    Some ("_build/default/bin/fbufs_cli.exe", "_build/default")
  else None

let test_cli_tree_clean_and_staleness_gate () =
  match cli_setup () with
  | None -> Alcotest.skip ()
  | Some (exe, root) ->
      let quiet = " > /dev/null 2> /dev/null" in
      check Alcotest.int "clean tree exits 0" 0
        (Sys.command
           (Printf.sprintf "%s lint --format json --root %s%s" exe root quiet));
      let tmp = Filename.temp_file "stale_baseline" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let oc = open_out tmp in
          output_string oc
            (Fbufs_trace.Json.to_string
               (Finding.list_to_json
                  [
                    Finding.v ~rule:"L4" ~file:"lib/gone.ml" ~line:9
                      "grandfathered debt that no longer fires";
                  ]));
          close_out oc;
          check Alcotest.int "stale baseline exits 3" 3
            (Sys.command
               (Printf.sprintf "%s lint --format text --baseline %s --root %s%s"
                  exe tmp root quiet)))

(* ------------------------------------------------------------------ *)
(* Dynamic cross-validation: the hazard shapes Layer C flagged in-tree
   (quickstart's C1/C3/C4, before they were fixed or annotated) are
   replayed through the differential checker. A passing replay means the
   real stack and the reference model agree step by step on the hazard's
   dynamic semantics — the use-after-free is defended, the in-flight
   write is visible pre-secure, the post-secure write faults — i.e. the
   static findings describe real dynamic behavior, not analyzer
   artifacts. *)

let replay_concordant name ops =
  let report = Fbufs_check.Driver.replay ~seed:1 ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: stack and model agree (%s)" name
       (Format.asprintf "%a" Fbufs_check.Driver.pp_report report))
    false
    (Fbufs_check.Driver.failed report);
  check Alcotest.int
    (Printf.sprintf "%s: every op executed" name)
    report.Fbufs_check.Driver.total report.Fbufs_check.Driver.executed

let test_replay_use_after_free () =
  (* quickstart's C1: both domains free, then the old handle is touched.
     The plain (uncached) allocator on the b->c path is the one whose
     full release actually kills the buffer — a cached free only parks
     it, leaving no dead address range to probe. *)
  replay_concordant "use after free"
    Fbufs_check.Op.
      [
        Alloc { alloc = 3; npages = 1 };
        Write { fbuf = 0 };
        Send { fbuf = 0; src = 1; dst = 2 };
        Secure { fbuf = 0 };
        Read { fbuf = 0; dom = 2 };
        Free { fbuf = 0; dom = 2 };
        Free { fbuf = 0; dom = 1 };
        Use_after_free { fbuf = 0; write = false };
      ]

let test_replay_write_after_send () =
  (* quickstart's C3: the originator rewrites the volatile fbuf while it
     is in flight — allowed by protection pre-secure, which is exactly
     why it is a discipline hazard: the receiver's two reads straddle the
     write. (Post-secure the write faults; the checker's protection
     invariant asserts that after every step, and quickstart demonstrates
     it dynamically.) *)
  replay_concordant "write after send"
    Fbufs_check.Op.
      [
        Alloc { alloc = 0; npages = 1 };
        Write { fbuf = 0 };
        Send { fbuf = 0; src = 0; dst = 1 };
        Read { fbuf = 0; dom = 1 };
        Write { fbuf = 0 };
        Secure { fbuf = 0 };
        Read { fbuf = 0; dom = 1 };
        Free { fbuf = 0; dom = 1 };
        Free { fbuf = 0; dom = 0 };
      ]

let test_replay_read_before_secure () =
  (* quickstart's C4: the receiver reads the volatile fbuf before
     securing, the originator rewrites it, the receiver reads again —
     the torn-read hazard the paper's secure step exists to close. *)
  replay_concordant "read before secure"
    Fbufs_check.Op.
      [
        Alloc { alloc = 0; npages = 1 };
        Write { fbuf = 0 };
        Send { fbuf = 0; src = 0; dst = 1 };
        Read { fbuf = 0; dom = 1 };
        Write { fbuf = 0 };
        Read { fbuf = 0; dom = 1 };
        Secure { fbuf = 0 };
        Read { fbuf = 0; dom = 1 };
        Free { fbuf = 0; dom = 1 };
        Free { fbuf = 0; dom = 0 };
      ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "lint"
    [
      ( "layer-a-bad",
        [
          tc "L1 direct payload write" `Quick test_l1_direct_payload_write;
          tc "L2 nondeterminism" `Quick test_l2_nondeterminism;
          tc "L3 undocumented raise" `Quick test_l3_undocumented_raise;
          tc "L4 asymmetric release" `Quick test_l4_asymmetric_release;
          tc "L5 Obj.magic" `Quick test_l5_obj_magic;
          tc "L5 ignored handle" `Quick test_l5_ignored_handle;
          tc "parse error is a finding" `Quick test_parse_error_is_a_finding;
          tc "L6 bad name" `Quick test_l6_bad_name;
          tc "L6 dynamic name" `Quick test_l6_dynamic_name;
          tc "L6 under lambda" `Quick test_l6_registration_under_lambda;
          tc "L6 duplicate in unit" `Quick test_l6_duplicate_within_unit;
          tc "L6 duplicate across units" `Quick test_l6_duplicate_across_units;
          tc "L6 sketch registration" `Quick test_l6_sketch_is_a_registration;
          tc "L6 covers obs names" `Quick test_l6_covers_obs_names;
          tc "L7 never closed" `Quick test_l7_never_closed;
          tc "L7 partial close" `Quick test_l7_closed_on_some_paths;
          tc "L7 dangling transfer" `Quick test_l7_dangling_transfer;
        ] );
      ( "layer-a-clean",
        [
          tc "clean fixture" `Quick test_clean_fixture;
          tc "documented raise" `Quick test_l3_documented_raise_is_clean;
          tc "L1 allowlist" `Quick test_l1_allowed_inside_sim;
          tc "L4 balanced" `Quick test_l4_full_release_is_clean;
          tc "L6 well-formed" `Quick test_l6_top_level_literal_is_clean;
          tc "L6 test exemption" `Quick test_l6_exempt_under_test;
          tc "L7 balanced" `Quick test_l7_balanced_is_clean;
          tc "L7 with_transfer" `Quick test_l7_with_transfer_is_clean;
          tc "L7 span exemption" `Quick test_l7_exempt_under_span;
          tc "dogfood: lifecycle" `Quick test_l3_dogfood_lifecycle;
        ] );
      ( "json",
        [
          tc "round trip" `Quick test_json_round_trip;
          tc "baseline ignores line" `Quick test_baseline_matches_ignoring_line;
          tc "malformed baseline" `Quick test_malformed_baseline_rejected;
        ] );
      ( "layer-c-bad",
        [
          tc "C1 cross-function use after free" `Quick
            test_c1_cross_function_use_after_free;
          tc "C1 double free" `Quick test_c1_double_free;
          tc "C2 leak through helper" `Quick test_c2_leak_through_helper;
          tc "C3 write after send via alias" `Quick
            test_c3_write_after_send_via_alias;
          tc "C3 write after send via helper" `Quick
            test_c3_write_after_send_via_helper;
          tc "C3 direct write after send" `Quick
            test_c3_direct_write_after_send;
          tc "C4 read before secure via helper" `Quick
            test_c4_read_before_secure_via_helper;
          tc "C4 direct read before secure" `Quick
            test_c4_direct_read_before_secure;
          tc "C3 write after secure" `Quick test_c3_write_after_secure;
        ] );
      ( "layer-c-clean",
        [
          tc "hand-off to a freeing helper" `Quick
            test_c_clean_handoff_to_helper;
          tc "rx handler lambda" `Quick test_c_clean_rx_handler_lambda;
          tc "returned handle" `Quick test_c_clean_returned_handle;
          tc "two-domain free" `Quick test_c_clean_two_domain_free;
          tc "secure then read" `Quick test_c_clean_secure_then_read;
          tc "branchy free stays L4's" `Quick
            test_c_clean_branchy_free_is_l4_territory;
          tc "allow annotation" `Quick test_c_allow_annotation_suppresses;
        ] );
      ( "dedup",
        [
          tc "L4 shadowed by C2" `Quick test_dedup_l4_shadowed_by_c2;
          tc "distinct spans survive" `Quick test_dedup_keeps_distinct_spans;
        ] );
      ( "summaries",
        [ QCheck_alcotest.to_alcotest prop_summary_fixpoint ] );
      ( "sarif",
        [ tc "document shape" `Quick test_sarif_shape ] );
      ( "staleness",
        [
          tc "stale entries detected" `Quick test_stale_entries;
          tc "CLI gate: clean tree, stale baseline" `Slow
            test_cli_tree_clean_and_staleness_gate;
        ] );
      ( "cross-validation",
        [
          tc "use after free replays concordantly" `Slow
            test_replay_use_after_free;
          tc "write after send replays concordantly" `Slow
            test_replay_write_after_send;
          tc "read before secure replays concordantly" `Slow
            test_replay_read_before_secure;
        ] );
    ]
