(** Bench-trajectory trend gate over the committed bench snapshots.

    Given the committed [BENCH_*.json] snapshots in chronological order,
    each benchmark's ns/run series gets (1) an ordinary-least-squares
    slope, normalized to percent of the series mean per step, and (2) a
    two-segment changepoint (the split minimizing summed squared error,
    with a minimum segment length of one point on each side). A
    benchmark {e regresses} when the post-changepoint mean exceeds the
    pre-changepoint mean by more than the tolerance — a step regression
    a generous pairwise tolerance would wave through accumulates no
    matter how it is split across adjacent snapshots — or when the
    benchmark was present earlier but is missing from the latest
    snapshot. A two-point series is the pairwise comparison: it fails
    when the newer ns/run exceeds the older by more than the tolerance,
    or the benchmark is gone.

    All snapshots must come from the same collection machine; runner
    speed never enters. *)

type row = { name : string; ns_per_run : float option }
(** One benchmark of a snapshot (the JSON list [bench/main.ml --json]
    writes). *)

exception Bad_snapshot of string

val load_string : string -> row list
(** Raises {!Bad_snapshot} on structural problems and
    [Fbufs_trace.Json.Parse_error] on malformed JSON. *)

val load_file : string -> row list
(** {!load_string} of a file; also raises [Sys_error]. *)

type verdict = {
  bench : string;
  n : int;  (** points present in the series *)
  first_ns : float;
  last_ns : float;
  slope_pct : float;  (** OLS slope, percent of series mean per step *)
  change_at : int option;
      (** series index of the first post-changepoint point (n >= 3) *)
  pre_mean : float;
  post_mean : float;
  delta_pct : float;  (** (post − pre)/pre × 100 across the changepoint *)
  regressed : bool;
  missing_latest : bool;
}

type result = {
  files : string list;
  verdicts : verdict list;  (** sorted by benchmark name *)
  tolerance_pct : float;
  failed : bool;
}

val analyze_rows :
  named:(string * row list) list ->
  tolerance_pct:float ->
  result
(** [named] pairs a snapshot label with its rows, oldest first. Raises
    [Invalid_argument] on fewer than two snapshots. *)

val analyze : files:string list -> tolerance_pct:float -> result
(** {!analyze_rows} over {!load_file} of each path; raises as that
    loader on malformed snapshots. *)

val render : result -> string
(** Fixed-width table plus a PASS/FAIL trailer line. *)

val to_json : result -> Fbufs_trace.Json.t
(** Machine-readable verdict (the CI artifact). *)
