(** Buffer-sharing policies: arbitration of the global fbuf pool between
    competing data paths under memory pressure.

    The paper's per-path LIFO caches are fixed-policy — nothing decides
    who keeps cached buffers, who gets reclaimed first, and who is refused
    admission when physical memory runs short. This module makes those
    decisions explicit behind one interface with two implementations:

    - {!Static}: today's behavior, exactly. No admission control, no
      policy charges, no eviction preference — attaching a static policy
      to an allocator reproduces the unmanaged goldens byte-for-byte; the
      hooks only maintain the held-page account for introspection.
    - {!Fb_dynamic}: FB-style dynamic thresholds (arXiv 2105.10553). A
      path of class [k] may hold at most [weight k * alpha * free_frames]
      pages; allocations that would grow a path past its threshold first
      reclaim parked buffers from over-threshold strictly-lower-class
      paths (reclaim-before-drop), and are refused with {!Dropped} only
      when no such victim exists. Because thresholds scale with remaining
      free memory, every class's allowance collapses as the pool empties
      and grows back as it drains — no static partitioning, no permanent
      starvation.

    A path's {e held} pages are those the allocator has charged to it:
    its Active fbufs plus its parked fbufs still carrying their charge
    ([Fbuf.accounted] — parked-and-charged implies resident, and the
    account moves only at allocator events, so it cannot drift when a
    fault re-materializes a paged-out buffer). Decisions are observable
    three ways: an event log for
    the differential checker ({!set_recording}/{!drain_events}), plain
    counters ({!totals}), and [fbufs_policy_*] registry metrics; dynamic
    decision work is charged to the [policy] cost component. *)

type klass = Control | Latency | Bulk
(** Service classes, highest priority first: kernel/control traffic,
    latency-sensitive RPC, bulk data movement. *)

type kind = Static | Fb_dynamic of { alpha : float }

exception Dropped of string
(** An allocation the dynamic policy refused; the message names the path,
    its held pages, the threshold, and the free-frame level. Raised out of
    [Allocator.alloc] before any allocator state changes. *)

val chaos_skip_threshold : bool ref
(** Test-only fault injection: when set, the admission check admits
    unconditionally (the threshold comparison is skipped) — the planted
    policy bug the differential checker must catch and shrink. Must stay
    [false] outside the checker's self-test. *)

val klass_label : klass -> string
(** ["control"], ["latency"], ["bulk"] — stable metric label values. *)

val rank : klass -> int
(** Reclaim priority, inverse of service priority: [Bulk] is 0 (evicted
    first), [Control] is 2 (evicted last). *)

val weight : klass -> float
(** Threshold weight of each class: 8 / 3 / 1 for control / latency /
    bulk. *)

val threshold : kind -> klass -> free_frames:int -> int
(** The held-page allowance of a path of this class when [free_frames]
    frames remain: [max_int] for {!Static},
    [weight klass * alpha * free_frames] (truncated) for {!Fb_dynamic}. *)

type t

type event =
  | Admit of {
      path : int;
      npages : int;
      growth : int;
      held : int;
      free : int;
      threshold : int;
    }
  | Drop of {
      path : int;
      npages : int;
      held : int;
      free : int;
      threshold : int;
    }
  | Evict of { victim_path : int; fbuf : int; npages : int; free : int }
      (** One admission decision unfolds as zero or more [Evict]s followed
          by exactly one [Admit] or [Drop]; each event snapshots the
          inputs ([held], [free], [threshold]) the decision was made from,
          so a checker can re-derive the verdict independently. *)

val create : Fbufs.Region.t -> kind -> t

val kind : t -> kind

val register : t -> Fbufs.Allocator.t -> klass:klass -> unit
(** Attach the policy to an allocator: installs [Allocator.share] hooks
    that maintain the held-page account and, for {!Fb_dynamic}, run the
    admission decision (whose hook refuses by raising {!Dropped}).
    Raises [Invalid_argument] if the allocator is already registered. *)

val pageout_order :
  t -> Fbufs.Pageout.victim list -> Fbufs.Pageout.victim list
(** Victim ordering for [Pageout.create ~order]: {!Static} defers to the
    daemon's global LRU; {!Fb_dynamic} ranks buffers of over-threshold
    paths first (lowest class, then LRU, then id), judged at the
    sweep-start free level. *)

(** {2 Introspection} *)

val held : t -> Fbufs.Allocator.t -> int option
(** Held pages of a registered path (Active + parked still-charged). *)

val over_threshold : t -> Fbufs.Allocator.t -> bool
(** Whether the path currently holds more than its threshold at the
    present free-frame level; always false for unregistered allocators
    and static policies. *)

val entries : t -> (Fbufs.Allocator.t * klass * int) list
(** All registered paths with their class and held pages, in registration
    order. *)

val totals : t -> int * int * int
(** Lifetime [(admitted, dropped, evicted)] decision counts. *)

(** {2 Decision log (differential checking)} *)

val set_recording : t -> bool -> unit
(** Enable the event log. Off by default; with recording off no events
    accumulate. *)

val drain_events : t -> event list
(** Return and clear the recorded events, oldest first. *)
