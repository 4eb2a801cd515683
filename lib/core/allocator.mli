(** Per-domain, per-path fbuf allocators: the lower level of the two-level
    allocation scheme.

    Each communication endpoint owns one allocator, bound to the I/O data
    path its traffic follows and to an fbuf variant. The allocator satisfies
    requests from, in order: (1) its LIFO free list of cached fbufs of the
    right size — the common case, requiring no VM work and no page clearing;
    (2) virtual address extents it already owns; (3) fresh chunks requested
    from the kernel's {!Region} (the rare, IPC-charged slow path).

    The LIFO discipline keeps the warmest buffers (those most likely to
    still have physical memory and live TLB entries) at the head. *)

type t

type policy = Lifo | Fifo

type share = {
  sh_dynamic : bool;
      (** when true, {!alloc} consults [sh_admit] before any state change;
          accounting-only (static) policies set it false and pay nothing on
          the admission path *)
  sh_admit : npages:int -> growth:int -> unit;
      (** admission decision for an allocation of [npages] pages whose
          effect on the path's held-page account would be [growth] pages
          (zero when a still-charged cached buffer would be reused).
          Return normally to admit; raise to refuse — the exception
          propagates out of {!alloc} with no allocator state changed. *)
  sh_grow : int -> unit;
      (** the path's held-page account grew by this many pages *)
  sh_shrink : int -> unit;
      (** the path's held-page account shrank by this many pages *)
}
(** Buffer-sharing policy hooks (see [Fbufs_policy]). A path's {e held}
    pages are those the allocator has charged to it: every Active fbuf
    plus parked fbufs still carrying their charge ([Fbuf.accounted]); the
    allocator reports every transition of that account and, for dynamic
    policies, asks permission before growing it. The charge moves only at
    allocator events (allocation, parking without frames, pageout, death),
    so the account cannot drift when a page fault re-materializes a
    paged-out parked buffer behind the allocator's back — such memory is
    charged back at the buffer's next allocation. *)

val set_share : t -> share -> unit
(** Attach sharing-policy hooks. *)

val create :
  Region.t -> path:Path.t -> variant:Fbuf.variant -> ?policy:policy -> unit -> t
(** The allocator is owned by the path's originator domain. [policy]
    defaults to {!Lifo}, the paper's choice: freed buffers are reused
    most-recently-freed first, so the reused buffer is the one most likely
    to still have physical memory and warm TLB entries. {!Fifo} exists for
    the ablation that quantifies that choice. *)

val default : Region.t -> owner:Fbufs_vm.Pd.t -> t
(** The default allocator used when the data path is unknown at allocation
    time: hands out uncached, volatile fbufs on a single-domain path; they
    may be sent to any domain, paying VM map manipulations per transfer. *)

val path : t -> Path.t
val variant : t -> Fbuf.variant
val owner : t -> Fbufs_vm.Pd.t
val region : t -> Region.t

val alloc : t -> npages:int -> Fbuf.t
(** Allocate an fbuf of exactly [npages] pages with one originator
    reference, writable by the originator. Reuses a cached buffer when one
    of the right size is available. Raises [Invalid_argument] if the
    allocator was torn down or [npages] is not positive. When a dynamic
    {!share} policy is attached its admission hook runs first and may
    refuse by raising (e.g. [Fbufs_policy.Policy.Dropped]); refusal leaves
    the allocator unchanged. *)

val free_list_length : t -> int
val live_fbufs : t -> int

(** {2 Introspection}

    Read-only views consumed by the [Fbufs_check] invariant auditor; none
    of these mutate allocator state. *)

val parked : t -> Fbuf.t list
(** Every fbuf currently parked on the free lists, in unspecified order. *)

val iter_extents : t -> (base:int -> npages:int -> unit) -> unit
(** The free address extents, in base order; they should be coalesced. *)

val owned_chunks : t -> (int * int) list
(** The [(base_vpn, nchunks)] chunk grants this allocator holds from the
    region, most recent first. *)

val needs_frames : t -> npages:int -> bool
(** Whether [alloc ~npages] right now would have to claim fresh physical
    frames — false exactly when the buffer the cache would hand out is
    still resident. Read-only; used by reservation checks in the
    congestion scenarios and by dynamic sharing policies. *)

val buffer_resident : Fbuf.t -> bool
(** Whether the buffer still holds physical memory (its originator mapping
    has a frame under its first page). Parked buffers lose residency to
    {!reclaim}/{!reclaim_one} and regain it, Active, on the originator's
    next touch. *)

val buffer_accounted : Fbuf.t -> bool
(** Whether the buffer's pages are currently charged to its path's
    held-page account ([Fbuf.accounted]). Implies residency for parked
    buffers; the converse can fail when a touch re-materialized a
    paged-out parked buffer. *)

val reclaim : t -> ?older_than_us:float -> max_fbufs:int -> unit -> int
(** Pageout-daemon entry point: discard the physical memory of up to
    [max_fbufs] parked cached buffers, least recently used first,
    considering only buffers idle for at least [older_than_us] (default 0:
    any). Returns the number of buffers reclaimed. *)

val reclaim_one : t -> Fbuf.t -> unit
(** Discard the physical memory of one specific parked buffer — the
    targeted form of {!reclaim}, used by the pageout daemon's deterministic
    sweep and by a dynamic sharing policy's reclaim-before-drop eviction.
    Raises [Invalid_argument] if the buffer is not parked on this
    allocator or holds no physical memory. *)

val teardown : t -> unit
(** Destroy the endpoint: fully tear down free cached fbufs and return all
    chunk ownership to the kernel. Live fbufs (references still held by
    other domains) survive until their last free; their chunks are retained
    by the kernel until then, as the paper requires for terminating
    domains. Raises [Invalid_argument] if called twice. *)
