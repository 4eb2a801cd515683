(** Online invariant monitors: a budgeted subset of the structural
    checker's invariants, evaluated incrementally at sequence points
    ({!Fbufs_sim.Machine.seq_point} sites: an IPC reply delivered, a
    transfer secured, a pageout sweep done) instead of in one full
    sweep.

    Rules rotate round-robin, one rule per sequence point, and the
    structural rules resume a cursor between calls, examining at most
    [budget] items each — so the per-sequence-point cost is constant
    regardless of system size, and every item is still visited given
    enough sequence points. Monitors only read: they never charge
    simulated time, so arming them cannot perturb any golden output.

    Rules:
    - [refcount]: registered fbufs hold non-negative reference counts,
      and cached-free buffers hold none (needs an {!attach}ed target);
    - [free-list]: allocator free-list length agrees with its parked
      set, and parked buffers are cached-free with zero references
      (needs an {!attach}ed target);
    - [ledger]: the cost ledger's arrival total for the machine equals
      [Machine.busy_us] — attribution is complete (metered runs);
    - [gauge]: policy held-pages gauges do not exceed their threshold
      gauge by more than [grace] pages (metered runs).

    Violations feed [fbufs_monitor_violations_total{rule}], leave an
    instant event in the recorded stream and arm the recorder's dump
    trigger. Independently of the rules, a policy drop spike (the
    dropped-total counter advancing by [drop_spike] or more between
    consecutive sequence points of a machine) triggers a dump with
    reason [drop-spike]. *)

type config = {
  budget : int;  (** max items examined per sequence point *)
  grace : int;  (** pages of held-over-threshold slack before [gauge] fires *)
  drop_spike : float;  (** drops between sequence points that trigger a dump *)
  max_violations : int;  (** retained violation messages (metric still counts all) *)
}

val default : config
(** budget 32, grace 16 pages, spike 8 drops, 64 retained messages. *)

type target = {
  region : Fbufs.Region.t;
  allocators : Fbufs.Allocator.t list;
}

type t

val create : ?recorder:Recorder.t -> config -> t

val attach : t -> machine:string -> target -> unit
(** Enable the structural rules for sequence points of the named
    machine. Without an attachment only the machine-local rules run. *)

val hook : t -> Fbufs_sim.Machine.t -> string -> unit
(** The sequence-point callback, installed as the [seq_hook] of a run's
    {!Fbufs_sim.Machine.obs} record. *)

val violations : t -> (string * string) list
(** Retained [(rule, message)] pairs, oldest first, capped at
    [max_violations]. *)

val violation_count : t -> int
val checks : t -> int
(** Sequence points observed. *)
