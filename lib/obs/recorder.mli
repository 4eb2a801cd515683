(** The flight recorder: always-on, bounded-memory capture of recent
    history, dumped post-mortem when an anomaly fires.

    Three stores, all bounded and all fed from the ordinary trace/span
    sinks — the trace's sampling hook and the span sink's tap — so
    recording shares the exporters and costs nothing when disarmed:

    - a ring of the 4096 most recent trace events (the recorder installs
      its own ring sink when the run has none; otherwise it taps the
      existing sink and dumps that sink's tail),
    - a seeded weighted reservoir of 256 events over the whole run
      (duration-biased, for long-horizon context the ring has already
      overwritten),
    - a ring of the 64 most recent completed transfers (span roots);
      evicted transfers are {!Fbufs_span.Span.forget}ten from a
      recorder-owned sink, bounding memory.

    A {!trigger} is debounced (10 ms of simulated time between dumps, at
    most 4 dumps) and writes one dump: recent events as JSONL and Chrome
    trace, sampled events as JSONL, the kept transfers as span JSONL
    (round-trips through {!Fbufs_span.Span_export.parse_jsonl}), plus a
    meta record. Every parameter is fixed and the reservoir is seeded,
    so equal runs produce byte-identical dumps. *)

type t

val create : dir:string -> t
(** A disarmed recorder whose dumps go to [dir] (created on the first
    dump). *)

val arm : t -> Fbufs_sim.Machine.obs -> Fbufs_sim.Machine.obs
(** Arm against a run's record: tap its trace and span sinks, adding a
    recorder-owned ring trace / span sink for any it lacks, and count
    dumps in its registry. Returns the record to install. Re-arming
    returns the record unchanged. While armed, the minor heap is at
    least 8M words (restored on {!disarm}). *)

val disarm : t -> unit
(** Remove the taps and restore the nursery size. *)

val note : t -> kind:string -> ?args:(string * Fbufs_trace.Trace.arg) list -> unit -> unit
(** Stamp an instant event (at the last observed simulated time) into
    the recorded stream — how monitors and refusal hooks leave their
    mark in the dump. Dropped when disarmed. *)

val trigger : ?force:bool -> t -> reason:string -> bool
(** Request a post-mortem dump; returns whether one was written.
    Suppressed (returning [false]) within 10 ms of simulated time of the
    previous dump or past 4 dumps; [~force:true] (the [--dump-on-exit]
    path) bypasses both. Counted in [fbufs_obs_dumps_total{reason}] /
    [fbufs_obs_dump_suppressed_total{reason}] when the armed record
    carries a registry. A dump file that cannot be written is reported
    on stderr ([record: cannot write PATH: MSG]) and skipped; the dump
    still counts, and nothing is raised, so a dump that a monitor
    triggers mid-run never ends the run. *)

val render_dump : t -> reason:string -> (string * string) list
(** The dump a {!trigger} would write, as [(filename, content)] pairs,
    without touching the filesystem or the debounce state — what the
    determinism tests compare. *)

val last_ts : t -> float
(** Latest simulated timestamp observed through the taps (0 initially). *)

val dumps : t -> int
val events_seen : t -> int

val roots_seen : t -> int
(** Completed transfers tapped; the newest 64 are kept for the dump. *)
