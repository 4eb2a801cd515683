(** Pure reference model of fbuf semantics.

    An executable restatement of the paper's transfer rules — immutability
    after transfer, copy semantics by sharing, lazy protection raise,
    cached reuse, dead-page reads for invalid references, pageout of
    parked buffers — with no dependency on the real stack. The driver
    applies every operation to both and diffs observable state; the model
    also predicts which refusals ([Dead_fbuf], [Invalid_argument],
    protection violations) the real stack must raise. *)

type phase = Active | Parked | Dead

type fbuf = {
  key : int;  (** stable driver handle *)
  alloc : int;
  npages : int;
  cached : bool;
  volatile : bool;
  originator : int;  (** Pd ids throughout *)
  path : int list;
  mutable real_id : int;
  mutable phase : phase;
  mutable secured : bool;
  mutable refs : (int * int) list;
  mutable mapped_in : int list;  (** granted receivers *)
  mutable materialized : int list;
      (** receivers holding live-frame mappings from a touch while the
          originator's frames were resident *)
  mutable stale_zero : int list;
      (** domains whose touch resolved to the dead page; they read zeros
          until those mappings are cleared *)
  mutable expected : bytes;
  mutable resident : bool;
  mutable charged : bool;
      (** mirror of [Fbuf.accounted]: the buffer's pages count toward its
          path's held account. Set on (re)allocation, cleared on parking
          without frames, pageout, and death — never by the page faults
          that can restore [resident] behind the allocator's back *)
  mutable last_alloc_us : float;
}

type alloc_spec = {
  a_idx : int;
  a_cached : bool;
  a_volatile : bool;
  a_path : int list;  (** Pd ids, originator first *)
  a_policy : (int * float) option;
      (** buffer-sharing [(rank, weight)] when the path is policy-managed:
          rank is the reclaim priority (lower is evicted first), weight
          scales the dynamic threshold — restated here independently of
          [Fbufs_policy]'s own tables *)
}

type allocator

type t

val create : page_size:int -> ?alpha:float -> alloc_spec array -> t
(** [alpha] is the buffer-sharing threshold scale (the policy mirror's
    allowance is [weight * alpha * free] pages); irrelevant (default [0.])
    when no spec carries [a_policy]. *)

val all : t -> fbuf list
(** Every buffer ever allocated (including dead ones), creation order. *)

val allocator : t -> int -> allocator
val size_bytes : t -> fbuf -> int
val ref_count : fbuf -> int -> int
val total_refs : fbuf -> int

val parked_of : allocator -> fbuf list
val parked_len : allocator -> int
val live_count : allocator -> int

val predict_alloc : t -> alloc:int -> npages:int -> fbuf option
(** [Some fb]: the real allocator must reuse exactly this parked buffer;
    [None]: it must take the fresh path. *)

val commit_hit : t -> fbuf -> now:float -> unit
(** Confirm that the real allocator reused the predicted parked buffer.
    Raises [Invalid_argument] if [fb] is not the buffer {!predict_alloc}
    returned (a divergence in free-list order). *)

val commit_fresh :
  t -> alloc:int -> npages:int -> real_id:int -> contents:bytes ->
  now:float -> fbuf

val may_write : fbuf -> bool
(** Whether the originator's write must succeed (vs. fault). *)

type view = Content | Zeros

val read_view : fbuf -> dom:int -> view
(** What a whole-range read by [dom] must return; also applies the
    mapping-state transition the touch causes (materialization or a
    dead-page mapping). *)

val expected_bytes : t -> fbuf -> view -> bytes

type refusal = R_dead | R_invalid

val send_check : fbuf -> src:int -> dst:int -> (unit, refusal) result
val apply_send : fbuf -> dst:int -> unit
val secure_check : fbuf -> (unit, refusal) result
val apply_secure : fbuf -> unit
val free_check : fbuf -> dom:int -> (unit, refusal) result
val apply_free : t -> fbuf -> dom:int -> unit

val reclaim_victims : t -> alloc:int -> max_fbufs:int -> fbuf list
(** The exact buffers [Allocator.reclaim] must page out, LRU order. *)

val apply_reclaim : t -> fbuf -> unit

(** {2 Buffer-sharing policy mirror}

    The model's restatement of [Fbufs_policy]: the held-page account is
    recomputed from per-buffer state (Active fbufs plus parked
    still-charged ones) where the subject maintains a single integer
    event-wise through allocator hooks, and the threshold/victim
    arithmetic is written out again here — the driver diffs every
    admission decision the real policy records against these functions. *)

val held : t -> alloc:int -> int
(** Pages the path currently holds: its Active fbufs plus its parked
    fbufs still carrying their charge ([charged]). *)

val policy_threshold : t -> alloc:int -> free:int -> int
(** The path's held-page allowance at the given free-frame level;
    [max_int] for unmanaged paths. *)

val over_threshold : t -> alloc:int -> free:int -> bool

val next_victim : t -> requester:int -> free:int -> fbuf option
(** The buffer a reclaim-before-drop eviction on behalf of [requester]
    must target: the coldest parked still-resident buffer of a
    strictly-lower-rank path over its own threshold at [free] — lowest
    rank, then LRU, then fbuf id. [None] when the allocation must drop. *)

val balance_order : t -> allocs:int list -> free:int -> fbuf list
(** The order a policy-driven pageout sweep over the daemon's registered
    allocators must reclaim in (over-threshold paths first at the
    sweep-start [free], then rank, LRU, id); the daemon's reclaimed set
    must be a prefix of this list. *)

(** {2 TLB discipline mirror}

    The model's view of the deferred-shootdown rules: which pages are
    {e allowed} to have a queued shootdown (a sanctioned-teardown
    superset — TLB residency itself is random in the subject and not
    predictable). *)

val window_open : t -> vpn:int -> unit
(** Record that [vpn] saw a teardown that may defer its shootdown. *)

val window_sanctions : t -> vpn:int -> bool
(** Whether a queued shootdown on [vpn] is sanctioned. *)
