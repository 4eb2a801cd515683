(** Counterexample shrinking (truncate to the failing step, then ddmin).

    Sound because {!Op} indices resolve modulo the candidate lists: any
    subsequence of a failing sequence is executable. A shrunk sequence is
    kept as long as it fails {e somehow} — a different divergence is
    still a minimal reproducer. *)

val minimize :
  ?on_refusal:(string -> unit) ->
  seed:int ->
  Op.t list ->
  Op.t list * Driver.report
(** The minimal failing subsequence and its replay report. If the input
    does not fail, it is returned unchanged with its passing report.
    Every replay passes [on_refusal] to {!Driver.replay}. *)
