(** Layer A: source lint over the repo's own [.ml]/[.mli] files.

    Parses with [compiler-libs.common] (the toolchain's own parser — no new
    dependency) and walks the parsetree. Seven rules, each a static
    approximation of a discipline the type system does not enforce:

    - {b L1 — payload immutability} (paper section 3.1): no direct
      [Bytes.set]/[Bytes.blit]/[Bytes.fill] (or their [unsafe_] variants)
      applied to frame payloads — syntactically, a mutation whose argument
      subtree mentions [Phys_mem.data]. All payload writes must go through
      the protection-checked originator API ([Fbuf_api] over [Access]).
      Allowed only in [lib/sim] (owns the frames), [lib/vm] (the access
      layer that enforces protection) and [lib/netdev] (DMA engines bypass
      the MMU by construction).
    - {b L2 — determinism}: no [Stdlib.Random], [Hashtbl.hash],
      [Unix.gettimeofday], [Unix.time] or [Sys.time] outside [lib/sim] —
      goldens and [Fbufs_check] replay depend on bit-identical runs.
      [bench/] and [test/test_perf_guard.ml] are exempt: they measure real
      wall-clock time on purpose.
    - {b L3 — documented raises}: every [raise]/[invalid_arg]/[failwith]
      occurring syntactically in the body of a function exported through
      the unit's [.mli] must have its exception named in that value's
      [.mli] doc comment. (Syntactic containment approximates "reachable
      from"; raises in private helpers are the helper's caller's contract.)
    - {b L4 — reference pairing} (paper section 3.3): a scope (function,
      lambda or loop body) that calls a reference-acquiring API
      ([Allocator.alloc], [Transfer.send], [Ipc.call]) and relinquishes
      ([Transfer.free], [Msg.free_all], [Ipc.free_deferred],
      [Lifecycle.terminate_domain], ...) on {e some} syntactic exit path
      but not on {e all} of them is flagged — the branch asymmetry that
      leaks references. Scopes with no relinquish at all are not flagged
      (ownership handed off elsewhere). Exempt: [lib/core], [lib/ipc],
      [lib/msg], [lib/netdev] and [lib/xkernel] (the machinery itself,
      whose hand-off policies — [auto_free_dst], [free_after],
      [rx_handler] — make frees conditional by design), [lib/check] and
      [test/test_properties.ml] (randomized sequences whose balance is
      semantic and checked dynamically).
    - {b L5 — no handle laundering}: no [Obj.magic] anywhere; no [ignore]
      of a call whose result carries an fbuf handle ([Allocator.alloc],
      [Msg.of_fbuf], [Testproto.make_message]).
    - {b L6 — metric registration discipline}: every
      [Fbufs_metrics.Metrics] registration ([counter]/[gauge]/[sketch]
      under any module alias, recognized by its [~name]/[~help]
      signature) must pass a string literal matching
      [^fbufs_[a-z0-9_]+$] as its name, must not reuse a literal already
      registered anywhere in the tree, and must execute at module
      initialization — not under a lambda or loop, where a re-run would
      raise at runtime. Exempt: [test/] (the metrics tests register bad
      names on purpose to exercise the runtime rejection).
    - {b L7 — span open/close balance}: a scope that opens a causal span
      ([span_enter], [span_adopt], [span_begin], [transfer_begin]) must
      close it ([span_exit], [span_end], [transfer_end]) on {e every}
      syntactic exit path. Unlike L4, never closing is also a finding:
      span ids mean nothing outside their machine, so there is no
      ownership hand-off. Exempt: [lib/sim], [lib/span], [lib/trace]
      (the machinery drains open spans by design) and [test/].

    Rule scoping is by root-relative path with ['/'] separators. Fixture
    tests use paths outside every allowlist so all rules apply. *)

val lint_unit :
  file:string -> impl:string -> ?intf:string -> unit -> Finding.t list
(** Lint one compilation unit. [file] is the root-relative [.ml] path used
    for rule scoping and finding spans; [impl] is its source text; [intf],
    when present, is the text of the paired [.mli] (enables L3). A file
    that does not parse yields a single ["E0"] finding at the error
    location. Findings are sorted with {!Finding.compare}. *)

val lint_file : root:string -> string -> Finding.t list
(** [lint_file ~root rel] reads [root ^ "/" ^ rel] (and its [.mli] sibling
    if present) and lints it. *)

val reset_registered_metrics : unit -> unit
(** Clear the cross-unit table of metric names L6 has seen. {!Driver.run}
    calls this before every tree walk; call it between unrelated
    {!lint_unit} batches so duplicate detection does not leak across
    runs. *)

(** {2 Shared parsing and parsetree helpers}

    Layer C ({!Callgraph}, {!Typestate}) reuses Layer A's parser and
    identifier utilities so both layers agree on file positions and path
    normalization. *)

type parse_result =
  | Ok_impl of Parsetree.structure
  | Ok_intf of Parsetree.signature
  | Err of Finding.t  (** an ["E0"] finding at the error location *)

val parse : file:string -> kind:[ `Impl | `Intf ] -> string -> parse_result

val line_col : Location.t -> int * int
(** 1-based line, 0-based column of the location's start. *)

val ident_path : Parsetree.expression -> string list option
(** The flattened path of an identifier expression ([Transfer.send] ->
    [["Transfer"; "send"]]), with a leading [Stdlib.] stripped. *)

val rev_path : Parsetree.expression -> string list option
(** {!ident_path} reversed — suffix matching reads outward. *)

val labelled :
  string ->
  (Asttypes.arg_label * Parsetree.expression) list ->
  Parsetree.expression option
(** The argument carrying the given label, if present. *)

val release_names : string list
(** Last path components treated as reference-relinquishing calls by L4
    and by Layer C's unknown-callee fallback. *)
