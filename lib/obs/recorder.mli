(** The flight recorder: always-on, bounded-memory capture of recent
    history, dumped post-mortem when an anomaly fires.

    Three stores, all bounded and all fed from the ordinary trace/span
    sinks — the trace's sampling hook and the span sink's tap — so
    recording shares the exporters and costs nothing when disarmed:

    - a ring of the most recent trace events (the recorder installs its
      own ring sink when the run has none; otherwise it taps the
      existing sink and dumps that sink's tail),
    - a seeded weighted reservoir of events over the whole run
      (duration-biased, for long-horizon context the ring has already
      overwritten),
    - a ring of head-sampled span roots (whole completed transfers);
      evicted or unsampled transfers are {!Fbufs_span.Span.forget}ten
      from a recorder-owned sink, bounding memory.

    A {!trigger} is debounced (simulated-time window, lifetime dump cap)
    and writes one dump: recent events as JSONL and Chrome trace,
    sampled events as JSONL, sampled transfers as span JSONL
    (round-trips through {!Fbufs_span.Span_export.parse_jsonl}), plus a
    meta record. Everything sampled is derived from the configured seed,
    so equal seeds over equal runs produce byte-identical dumps. *)

type config = {
  seed : int;  (** sampling seed (head sampler and reservoir substreams) *)
  event_capacity : int;  (** recent-event ring size (recorder-owned sink) *)
  reservoir : int;  (** weighted reservoir size *)
  span_capacity : int;  (** sampled transfer-root ring size *)
  span_denom : int;  (** head-sample 1-in-[span_denom] paths *)
  debounce_us : float;  (** min simulated time between dumps *)
  max_dumps : int;  (** lifetime dump cap *)
  dir : string;  (** dump directory (created on first dump) *)
  gc_minor_words : int;
      (** nursery size (in words) to guarantee while armed; [0] leaves
          the GC untouched. The recorder pre-sizes the minor heap the
          way flight recorders pre-size their arenas: its residual
          churn (slow-path event records, boxed floats at emission
          call sites) otherwise raises the host run's minor-GC rate,
          which is where an always-on tap would tax the workload.
          Restored on {!disarm}. *)
}

val default : config
(** seed 1, 4096-event ring, 256-event reservoir, 64 roots, every path
    ([span_denom = 1]), 10 ms debounce, 4 dumps, ["postmortem"],
    8M-word nursery while armed. *)

type t

val create : config -> t

val arm : t -> Fbufs_sim.Machine.obs -> Fbufs_sim.Machine.obs
(** Arm against a run's record: tap its trace and span sinks, adding a
    recorder-owned ring trace / span sink for any it lacks, and count
    dumps in its registry. Returns the record to install. Re-arming
    returns the record unchanged. *)

val disarm : t -> unit
(** Remove the taps and restore the nursery size. *)

val note : t -> kind:string -> ?args:(string * Fbufs_trace.Trace.arg) list -> unit -> unit
(** Stamp an instant event (at the last observed simulated time) into
    the recorded stream — how monitors and refusal hooks leave their
    mark in the dump. Dropped when disarmed. *)

val trigger : ?force:bool -> t -> reason:string -> bool
(** Request a post-mortem dump; returns whether one was written.
    Suppressed (returning [false]) while within [debounce_us] of the
    previous dump or past [max_dumps]; [~force:true] (the [--dump-on-exit]
    path) bypasses both. Counted in [fbufs_obs_dumps_total{reason}] /
    [fbufs_obs_dump_suppressed_total{reason}] when the armed record
    carries a registry. *)

val render_dump : t -> reason:string -> (string * string) list
(** The dump a {!trigger} would write, as [(filename, content)] pairs,
    without touching the filesystem or the debounce state — what the
    determinism tests compare. *)

val last_ts : t -> float
(** Latest simulated timestamp observed through the taps (0 initially). *)

val dumps : t -> int
val events_seen : t -> int
val roots_seen : t -> int
val roots_kept : t -> int
