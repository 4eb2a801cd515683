(** Exposition formats for a metrics instance.

    Renders registry cells and the cost ledger as Prometheus text or
    JSON. The ledger appears in both as a synthetic counter family
    [fbufs_cost_us_total{machine,component,kind}], so one exposition
    carries the whole observable state. *)

val to_prometheus : Metrics.t -> string
(** Prometheus text format: [# HELP]/[# TYPE] headers followed by
    [name{label="v"} value] lines; sketch families are typed [summary]
    and emit [_count], [_sum] and p50/p90/p99 quantile lines. *)

val to_json : Metrics.t -> Fbufs_trace.Json.t
val to_json_string : Metrics.t -> string

type flat = { name : string; labels : (string * string) list; value : float }
(** One sample as parsed back from JSON exposition. *)

exception Bad_exposition of string

val of_json : Fbufs_trace.Json.t -> flat list
(** Parse JSON exposition back to flat samples (round-trip check); raises
    {!Bad_exposition} on structural surprises. *)

val of_json_string : string -> flat list
(** Raises {!Bad_exposition} (and [Fbufs_trace.Json.Parse_error] on
    malformed JSON). *)
