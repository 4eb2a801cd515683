(** Periodic snapshot report over the metrics registry, on the simulated
    timeline.

    A [Top.t] hangs off the machines' [on_tick] callback: every time any
    machine's clock crosses an interval boundary it renders one frame —
    throughput counters with per-interval deltas, drops by class, held
    pages vs threshold, TLB shootdowns and elisions, monitor violations,
    per-component cost shares from the ledger and transfer-wall
    quantiles from the sketch. Everything printed is simulated-time
    state, so frames are deterministic and goldenable; rendering reads
    the registry without charging, so installing Top perturbs nothing.

    [fbufs_cli stats --watch] drives this renderer. *)

type t

val create : ?interval_us:float -> ?ppf:Format.formatter -> unit -> t
(** Default interval 1 s of simulated time, output to stdout, reading a
    registry of its own until {!attach}ed. Raises [Invalid_argument]
    unless the interval is positive. *)

val attach : t -> Fbufs_sim.Machine.obs -> Fbufs_sim.Machine.obs
(** Add {!tick} as the record's [on_tick] callback. Frames read the
    record's registry; a record without one gets Top's own. *)

val metrics : t -> Fbufs_metrics.Metrics.t
(** The registry frames are read from. *)

val tick : t -> float -> unit
(** The tick callback: renders one frame per interval boundary crossed
    by the new simulated time. *)

val frame : t -> now_us:float -> unit
(** Render one snapshot frame unconditionally. *)

val final : t -> unit
(** Render a closing frame at the latest simulated time observed by
    {!tick} (the end-of-run summary frame). *)

val frames : t -> int
