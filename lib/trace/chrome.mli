(** The one Chrome [trace_event] writer, plus the line-oriented JSONL
    renderer of trace events.

    The Chrome format loads directly in [chrome://tracing] and Perfetto.
    Simulated microseconds map one-to-one onto the format's native [ts]
    unit, so the timeline reads in real simulated time. Each simulated
    machine becomes a process (pid), each protection domain a thread (tid)
    within it; machine-level events (cost charges, interrupts) land on a
    dedicated tid 1 lane per machine. The lane assignment, the
    [process_name]/[thread_name] metadata and the document envelope live
    here for every exporter; other event sources (the causal span export)
    only build their own events. *)

type lanes
(** Lane assignment for one document: pids 1.. per machine in order of
    first appearance; tid 1 for the machine lane (domain [""]) and tids
    2.. per domain in order of first appearance within its machine. *)

val lanes : unit -> lanes

val lane : lanes -> machine:string -> domain:string -> int * int
(** [(pid, tid)] of a machine/domain pair, assigning it on first use. *)

val document : ?dropped:int -> lanes -> Json.t list -> Json.t
(** [{"traceEvents": events @ metadata, "displayTimeUnit": "ms"}], the
    metadata naming every assigned process and thread. With [dropped],
    also [{"otherData": {"dropped": n}}]. *)

val to_json : Trace.t -> Json.t
(** The whole trace as a {!document}, dropped-event count included. *)

val to_string : Trace.t -> string

val write_file : Trace.t -> string -> unit
(** {!to_string} into a file. Raises [Sys_error] when the file cannot be
    written, a failure at the final flush included. *)

val jsonl : Trace.event list -> string
(** One raw event per line:
    [{"ts":..,"machine":..,"domain":..,"path":..,"kind":..,"ph":..,...}].
    Suited to grep/jq-style processing rather than timeline viewers. The
    flight recorder renders its event subsets with it too. *)

val write_jsonl : Trace.t -> string -> unit
(** {!jsonl} of every retained event, into a file. Raises [Sys_error]
    as {!write_file}. *)
