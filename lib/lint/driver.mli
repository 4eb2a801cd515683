(** Orchestration: lint the whole tree, render, apply the baseline.

    [fbufs_cli lint] calls {!run} with the repository root (found by
    walking up from the working directory to the nearest [dune-project]),
    lints every [.ml] under [lib/], [bin/], [examples/], [bench/] and
    [test/], and fails on any finding absent from the checked-in baseline
    ([lint_baseline.json], shipped empty). *)

val source_dirs : string list
(** [lib; bin; examples; bench; test] — the roots scanned for sources. *)

val find_root : unit -> string option
(** Nearest ancestor of the working directory containing [dune-project]. *)

val run : root:string -> Finding.t list
(** All findings from both layers — Layer A per-file rules and Layer C
    interprocedural typestate ({!Typestate.lint_units} over every unit
    that parses) — sorted, duplicates removed, and {!dedup}-filtered.
    Skips [_build] and dot-directories. *)

val dedup : Finding.t list -> Finding.t list
(** Drop a syntactic finding shadowed by its interprocedural refinement
    at the same [file:line:col] — L4 by C2 — keeping the list's
    {!Finding.compare} order intact. {!run} applies this already. *)

val render_text : Format.formatter -> Finding.t list -> unit
val render_json : Format.formatter -> Finding.t list -> unit

val load_baseline : string -> Finding.t list
(** Read a baseline file. Raises [Sys_error] if unreadable or
    [Invalid_argument] if malformed. *)

val unbaselined : baseline:Finding.t list -> Finding.t list -> Finding.t list

val stale_entries :
  baseline:Finding.t list -> Finding.t list -> Finding.t list
(** Baseline entries no current finding matches (same rule, file and
    message — the {!Finding.baseline_mem} criterion). [fbufs_cli lint
    --baseline] treats a non-empty result as an error (exit 3): stale
    entries are deleted debt that would otherwise excuse future
    regressions. *)
