(** The one run wrapper behind every observed CLI run.

    The experiment drivers build their own testbeds, so a run is observed
    by building one {!Fbufs_sim.Machine.obs} record for the requested
    outputs and installing it with {!Fbufs_sim.Machine.with_obs} for the
    run's duration: every machine created inside carries it. With
    nothing requested, nothing is installed and the run is untouched —
    report output is byte-identical to an unobserved run. *)

val with_outputs :
  ?chrome:string ->
  ?jsonl:string ->
  ?metrics:string ->
  ?folded:string ->
  ?breakdown:bool ->
  ?spans:string ->
  ?spans_chrome:string ->
  ?critical:bool ->
  ?top:int ->
  ?extend:(Fbufs_sim.Machine.obs -> Fbufs_sim.Machine.obs) ->
  (unit -> 'a) ->
  'a
(** [with_outputs ... f] runs [f] once, observed by one record holding
    a trace sink when [chrome] or [jsonl] is given (capacity 2M events;
    dropped events are reported, and the latency summary still covers
    them), a metrics registry when [metrics], [folded] or [breakdown]
    is, and a causal span sink when [spans], [spans_chrome] or
    [critical] is. [extend] adds what the caller observes with (the
    flight recorder, monitors, a periodic report) to that record before
    it is installed.

    After [f] returns, in this order: each transfer's wall time is
    observed into the [fbufs_transfer_wall_us] sketch (when both a span
    sink and a registry were requested); [spans] receives the span trees
    as JSONL (round-trippable via
    {!Fbufs_span.Span_export.parse_jsonl}), [spans_chrome] a
    trace_event file with flow events, and with [critical] the
    critical-path report (first [top] transfers when given) is printed;
    [metrics] receives the exposition (JSON when the name ends in
    [.json], Prometheus text otherwise), [folded] collapsed flamegraph
    stacks of the cost ledger, and with [breakdown] the per-component
    cost table is printed; then the trace goes to [chrome] (Chrome
    trace_event JSON) and [jsonl], and the per-path latency summary is
    printed. Each written file gets a one-line note on stdout; I/O
    errors are reported on stderr, not raised. If [f] raises, the
    previous record is restored and nothing is exported. *)

val roll_transfer_walls : Fbufs_metrics.Metrics.t -> Fbufs_span.Span.t -> unit
(** Observe each of the sink's transfer wall times into the
    [fbufs_transfer_wall_us] sketch of the given registry — what
    {!with_outputs} does for the sinks it owns. *)

val workload :
  ?config:Exp_fig5.config ->
  ?bytes:int ->
  ?uncached:bool ->
  ?pdu_size:int ->
  ?window:int ->
  ?nmsgs:int ->
  unit ->
  unit
(** The [trace] and [spans] subcommands' run: one end-to-end UDP/IP
    transfer (the Figure 5/6 testbed at a single message size, default
    64 KB user-user cached), printing its throughput and CPU loads. *)
