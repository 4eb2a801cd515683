(** Simulated translation lookaside buffer.

    Modelled on the MIPS R3000: a small fully-associative array of
    (ASID, VPN) tagged entries with random replacement and *software* miss
    handling — the OS refill handler cost is what makes the paper's
    cached/volatile fbuf transfers cost 3 us/page instead of 0.

    The TLB caches the writable bit, so downgrading a mapping's protection
    requires an explicit shootdown (the consistency action the paper counts
    against non-volatile fbufs), and upgrading leads to a TLB modification
    fault on the next write through a stale read-only entry.

    Two mechanisms make invalidation cheap for the fbuf reuse path:

    - {b Generations.} Every ASID owns a generation word and every entry is
      tagged with the generation current when it was inserted; an entry is
      live only while the tags match. {!flush_asid} is therefore an O(1)
      generation bump — stale entries are reclaimed lazily when a probe or
      insert next lands on them, and a generation-word wraparound falls
      back to one eager sweep before resetting to zero.

    - {b Deferred shootdowns.} Instead of invalidating immediately, the VM
      layer may queue a shootdown ({!defer}) to be either cancelled when
      the identical translation is re-entered (fbuf reuse — the elision the
      whole exercise is after) or drained in one batch at the next
      synchronization barrier ({!invalidate_pending}). The queue records
      the removed translation's pmap word (frame and writability) so
      re-entry can prove identity. It is an open-addressed table of
      immediate ints: queueing, cancelling and draining allocate nothing.
      The TLB itself charges nothing; cost accounting stays with the
      callers. *)

type t

type probe_result =
  | Hit  (** translation present with sufficient permission *)
  | Hit_readonly
      (** translation present but the access is a write and the cached entry
          is read-only: the hardware raises a TLB modification exception *)
  | Miss  (** no entry for this (asid, vpn) *)

val create : ?entries:int -> ?gen_limit:int -> Rng.t -> t
(** [entries] defaults to 64 (R3000); [gen_limit] is the exclusive upper
    bound on a per-ASID generation word before the wraparound sweep runs
    (default [2{^20}]; raises [Invalid_argument] when < 2 or when
    [entries] is not positive). *)

val entries : t -> int

val probe : t -> asid:int -> vpn:int -> write:bool -> probe_result
(** Look up a translation. Never changes the visible contents, but may
    lazily reclaim a generation-stale slot it lands on. *)

val insert : t -> asid:int -> vpn:int -> writable:bool -> unit
(** Refill after a miss (or after a modification fault, with the new
    permission). Replaces the existing entry for (asid, vpn) if any,
    otherwise prefers a non-live slot and falls back to evicting a random
    victim. *)

val invalidate : t -> asid:int -> vpn:int -> unit
(** Shoot down one entry if present. *)

val flush_asid : t -> asid:int -> unit
(** Invalidate every entry belonging to one address space: an O(1)
    generation bump (plus dropping that ASID's queued shootdowns, which it
    subsumes), degenerating to an eager sweep only on generation-word
    wraparound. *)

val flush_all : t -> unit

val valid_entries : t -> int
(** Number of live entries (for tests and locality diagnostics);
    generation-stale slots do not count. *)

val generation : t -> asid:int -> int
(** Current generation word of [asid] (for tests and the checker). *)

val iter_live : t -> (asid:int -> vpn:int -> writable:bool -> unit) -> unit
(** Iterate the live entries (for the checker's stale-translation audit). *)

(** {2 Deferred-shootdown queue} *)

val defer : t -> asid:int -> vpn:int -> pte:int -> unit
(** Queue a shootdown of (asid, vpn) whose pmap translation — the
    non-negative word [pte] — was just removed. Replaces any earlier
    pending entry for the same tag. *)

val find_pending : t -> asid:int -> vpn:int -> int
(** The word queued for (asid, vpn), or [-1] when none is. *)

val pending_covers : t -> asid:int -> vpn:int -> bool

val cancel_pending : t -> asid:int -> vpn:int -> unit
(** Drop the queued shootdown for (asid, vpn), if any — the elision path,
    taken when the identical translation was re-entered. *)

val pending_count : t -> int

val iter_pending : t -> (asid:int -> vpn:int -> pte:int -> unit) -> unit
(** Iterate the queued shootdowns in unspecified order (for the checker's
    audit). *)

val invalidate_pending : t -> int
(** Invalidate every queued tag, empty the queue, and return how many
    there were; the caller charges one batched barrier for them. *)
