(** Simulated translation lookaside buffer.

    Modelled on the MIPS R3000: a small fully-associative array of
    (ASID, VPN) tagged entries with random replacement and *software* miss
    handling — the OS refill handler cost is what makes the paper's
    cached/volatile fbuf transfers cost 3 us/page instead of 0.

    The TLB caches the writable bit, so downgrading a mapping's protection
    requires an explicit shootdown (the consistency action the paper counts
    against non-volatile fbufs), and upgrading leads to a TLB modification
    fault on the next write through a stale read-only entry.

    Every valid entry's (ASID, VPN) tag is kept in an open-addressed
    index from tag to slot, so a probe, a refill and a shootdown are O(1)
    rather than a scan of the array, and an entry is live exactly when
    it is valid.

    Invalidation is cheap on the fbuf reuse path through {b deferred
    shootdowns}: instead of invalidating immediately, the VM layer may
    queue a shootdown ({!defer}) to be either cancelled when the identical
    translation is re-entered (fbuf reuse — the elision the whole exercise
    is after) or drained in one batch at the next synchronization barrier
    ({!invalidate_pending}). The queue records the removed translation's
    pmap word (frame and writability) so re-entry can prove identity. The
    queue and the tag index are two instances of one table of immediate
    ints, and the queued keys are also listed in an int array, so a drain
    or an iteration visits only the tags queued since the last drain:
    probing, refilling, queueing, cancelling and draining allocate
    nothing once the arrays have grown. The TLB itself charges nothing;
    cost accounting stays with the callers. *)

type t

type probe_result =
  | Hit  (** translation present with sufficient permission *)
  | Hit_readonly
      (** translation present but the access is a write and the cached entry
          is read-only: the hardware raises a TLB modification exception *)
  | Miss  (** no entry for this (asid, vpn) *)

val create : ?entries:int -> Rng.t -> t
(** [entries] defaults to 64 (R3000); raises [Invalid_argument] when it
    is not positive. *)

val entries : t -> int

val probe : t -> asid:int -> vpn:int -> write:bool -> probe_result
(** Look up a translation. Changes nothing. *)

val insert : t -> asid:int -> vpn:int -> writable:bool -> unit
(** Refill after a miss (or after a modification fault, with the new
    permission). Replaces the existing entry for (asid, vpn) if any,
    otherwise prefers the lowest-numbered invalid slot and falls back to
    evicting a random victim. *)

val invalidate : t -> asid:int -> vpn:int -> unit
(** Shoot down one entry if present. *)

val valid_entries : t -> int
(** Number of valid entries (for tests and locality diagnostics). *)

val iter_live : t -> (asid:int -> vpn:int -> writable:bool -> unit) -> unit
(** Iterate the valid entries (for the checker's stale-translation audit). *)

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
