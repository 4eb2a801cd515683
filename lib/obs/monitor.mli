(** Online invariant monitor, evaluated at every sequence point
    ({!Fbufs_sim.Machine.seq_point} sites: an IPC reply delivered, a
    transfer secured, a pageout sweep done). It reads the run's metrics
    registry, so it only checks metered runs; it never charges simulated
    time, so arming it cannot perturb any golden output.

    One rule, [gauge]: each policy held-pages gauge stays within 16
    pages of its threshold gauge (the first 32 gauges are examined per
    sequence point). A violation feeds
    [fbufs_monitor_violations_total{rule="gauge"}], leaves an instant
    event in the recorded stream and arms the recorder's dump trigger.
    Independently, a policy drop spike (the dropped-total counter
    advancing by 8 or more between consecutive sequence points of a
    machine) triggers a dump with reason [drop-spike].

    The exact cost-ledger closure (every machine's charged time equals
    its busy time) is not an online rule: the ledger is keyed by machine
    name, which several testbeds of one experiment share, so it is
    checked offline by [Fbufs_check.Driver.verify_metrics]. *)

type t

val create : ?recorder:Recorder.t -> unit -> t

val hook : t -> Fbufs_sim.Machine.t -> string -> unit
(** The sequence-point callback, installed as the [seq_hook] of a run's
    {!Fbufs_sim.Machine.obs} record. *)

val violations : t -> (string * string) list
(** Retained [(rule, message)] pairs, oldest first, capped at 64. *)

val violation_count : t -> int

val checks : t -> int
(** Sequence points observed. *)
