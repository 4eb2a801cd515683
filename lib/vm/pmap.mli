(** Machine-dependent physical map: one per address space.

    This is the lower level of the two-level VM system the paper insists
    modern portable operating systems use ("mapping changes require the
    modification of both low-level, machine dependent page tables, and
    high-level, machine-independent data structures"). The TLB refill
    handler reads this table; every mutation charges simulated time, and
    mutations of entries that may be cached in the TLB pay for TLB
    consistency — immediately, batched at the next barrier, or not at all
    when the translation comes back unchanged (see {!elision_enabled}). *)

type t

(** {2 Translation words}

    A translation is one immediate int, [frame lsl 1 lor writable], the
    way a hardware PTE is one word: the table stores it in place and the
    TLB's deferred-shootdown queue records it, so mapping, protecting and
    unmapping a page allocate nothing. *)

val encode : frame:Fbufs_sim.Phys_mem.frame_id -> writable:bool -> int
(** The word of a translation to [frame] (a frame id, non-negative). *)

val frame : int -> Fbufs_sim.Phys_mem.frame_id
val writable : int -> bool

val elision_enabled : bool ref
(** Deferred/elidable shootdowns (default on). When off, every downgrade
    and remove pays the immediate per-page shootdown, reproducing the
    pre-deferral (PR6) cost model exactly. *)

val chaos_defer_downgrade : bool ref
(** Fault injection for the differential checker (default off): defer
    even the cached writable downgrade, leaving a reachable stale
    writable translation the checker's TLB audit must flag. *)

val create : Fbufs_sim.Machine.t -> asid:int -> t

val asid : t -> int

val word : t -> vpn:int -> int
(** The translation word for a page, or [-1] when none is installed.
    Hardware-walk view used by the TLB refill path; free of charge (the
    refill cost is charged by the access path). *)

val enter : t -> vpn:int -> frame:Fbufs_sim.Phys_mem.frame_id -> writable:bool -> unit
(** Install or replace a translation. Charges [pmap_enter]. Resolves any
    pending deferred shootdown for the page: cancelled outright when the
    re-entered translation is identical (the fbuf-reuse elision), turned
    into an immediate shootdown when it changed. *)

val protect : t -> vpn:int -> writable:bool -> unit
(** Change the writable bit of an existing entry. Charges [pmap_protect],
    plus a TLB shootdown when write permission is being removed from a
    still-cached entry (a stale writable TLB entry would be a protection
    hole — this one is never deferred); a downgrade of an uncached
    translation is elided. Upgrades are lazy: the stale read-only TLB
    entry is left to cause a modification fault. Raises
    [Invalid_argument] if no entry exists. *)

val remove : t -> vpn:int -> unit
(** Drop a translation. Charges [pmap_remove]; the TLB shootdown is
    deferred (queued with the translation's word) when the translation is
    still cached and elided when it is not. With {!elision_enabled} off,
    charges the immediate shootdown unconditionally. Does nothing (and
    charges nothing) if absent. *)

val entry_count : t -> int

(** {2 Metrics hooks} (shared with the drain path in {!Tlb_sync}) *)

val note_shootdown : Fbufs_sim.Machine.t -> reason:string -> unit
(** Count one shootdown in [fbufs_tlb_shootdowns_total]; [reason] is one
    of ["downgrade"], ["remove"], ["batch"], ["elided-cancel"]. *)

val note_elided : Fbufs_sim.Machine.t -> reason:string -> unit
(** Count one elided flush in [fbufs_tlb_flushes_elided_total]; [reason]
    is one of ["reuse"], ["evicted"], ["uncached"]. *)
