(** Span-tree exporters: Chrome trace_event (with flow events for
    follows-from edges) and JSONL with a round-trip parser. *)

val chrome : Span.t -> Fbufs_trace.Json.t
(** Chrome [trace_event] document: spans as ["X"] complete events
    (component charges in [args]), follows-from edges as flow-event
    pairs (["s"]/["f"] with [bp = "e"]), on the lanes and inside the
    envelope of {!Fbufs_trace.Chrome.document} (domain-less spans sit on
    their machine's tid 1 lane). Loadable in about:tracing / Perfetto. *)

val write_chrome : string -> Span.t -> unit
(** {!chrome} into a file. Raises [Sys_error] when the file cannot be
    written, a failure at the final flush included. *)

val jsonl : Span.t -> string
(** One JSON object per line: each transfer line followed by its span
    lines, in creation order. Open spans serialize [end_us] as [null]. *)

val jsonl_of_transfers : Span.transfer list -> string
(** {!jsonl} over an explicit transfer list (e.g. the flight recorder's
    sampled root ring); output round-trips through {!parse_jsonl}. *)

val write_jsonl : string -> Span.t -> unit
(** {!jsonl} into a file, written one transfer's lines at a time. Raises
    [Sys_error] as {!write_chrome}. *)

exception Parse_error of string

val parse_jsonl : string -> Span.transfer list
(** Inverse of {!jsonl}: rebuilds the transfers with their spans
    attached (recording order restored by {!Span.spans_of}). Raises
    {!Parse_error} on malformed input, unknown record types, or spans
    referencing unknown transfers. *)
