(** Machine-independent address map: the upper level of the two-level VM.

    Holds the authoritative mapping state for one address space (backing
    frames, protections, copy-on-write and zero-fill attributes) and keeps
    the {!Pmap} below it consistent, either eagerly or lazily (lazy updates
    are resolved by {!fault}, which is how Mach's COW facility ends up taking
    two page faults per transferred page — the behaviour the paper measures
    in Table 1).

    Charging convention: each call that changes mapping state pays one
    [vm_range_op] plus one [vm_page_op] per affected page, and whatever the
    pmap layer charges for the low-level updates it performs. *)

type t

(** {2 Entry words}

    A map entry is one immediate int, stored in place in the page table:
    the backing frame (or none), the protection, and the copy-on-write
    and zero-fill attributes. Changing an entry writes a new word, so
    mapping, protecting, unmapping and fault handling allocate nothing
    per page. *)

val encode :
  frame:Fbufs_sim.Phys_mem.frame_id ->
  prot:Prot.t ->
  cow:bool ->
  zero_fill:bool ->
  int
(** The word of an entry backed by [frame], or by no frame yet when
    [frame] is [-1]. *)

val frame : int -> Fbufs_sim.Phys_mem.frame_id
(** The entry's frame, [-1] when it has none. *)

val prot : int -> Prot.t
val cow : int -> bool
val zero_fill : int -> bool

exception
  Protection_violation of { domain : string; vaddr : int; write : bool }

val create : Fbufs_sim.Machine.t -> name:string -> asid:int -> t

val name : t -> string
val pmap : t -> Pmap.t
val machine : t -> Fbufs_sim.Machine.t

(* -- address space management --------------------------------------- *)

val reserve_private : t -> npages:int -> int
(** Find and reserve a range of virtual pages in the domain's private area;
    returns the base VPN. Charges [vm_range_op]. *)

val release_range : t -> vpn:int -> npages:int -> unit
(** Return a reserved range; unmaps any remaining pages (freeing frames).
    Charges [vm_range_op] plus unmap costs. *)

(* -- mapping operations ---------------------------------------------- *)

val map_zero_fill : t -> vpn:int -> npages:int -> unit
(** Establish lazily materialized anonymous zero-filled memory with
    read-write protection. Frames are allocated (and zeroed, with the full
    57 us charge) on first touch by {!fault}. *)

val map_frame :
  t ->
  vpn:int ->
  frame:Fbufs_sim.Phys_mem.frame_id ->
  prot:Prot.t ->
  eager:bool ->
  unit
(** Map one page to a concrete frame (taking over one reference). [eager]
    installs the pmap entry now; otherwise the first access faults it in. *)

val protect : t -> vpn:int -> npages:int -> prot:Prot.t -> unit
(** Change protection. Valid pmap entries are updated in place (paying the
    pmap protect cost and, on downgrade, a TLB shootdown per page). Raises
    [Invalid_argument] on an unmapped page. *)

val unmap : t -> vpn:int -> npages:int -> free_frames:bool -> unit
(** Remove mappings. With [free_frames], materialized frames lose one
    reference (and are charged [page_free] if that frees them); without it
    the frames survive — used by move-semantics remapping. *)

val copy_cow : src:t -> dst:t -> vpn:int -> npages:int -> unit
(** Mach-style virtual copy of [src]'s pages into [dst] at the same VPN:
    frames become shared and copy-on-write in both maps; physical map
    entries are invalidated lazily, so the next access in either domain
    faults ({!fault} then either re-enters read-only or performs the
    physical copy). Raises [Invalid_argument] on an unmapped source page. *)

val convert_zero_fill : t -> vpn:int -> npages:int -> unit
(** Pageout support: drop the frames backing a mapped range (one reference
    each) and turn the entries into lazily materialized zero-fill pages,
    keeping their protection. The next touch faults in a fresh zeroed
    frame. Raises [Invalid_argument] on unmapped pages. *)

(* -- queries ---------------------------------------------------------- *)

(** Each reads the page's entry word; none allocates. *)

val mapped : t -> vpn:int -> bool

val prot_of : t -> vpn:int -> Prot.t
(** The page's protection; [No_access] when it is not mapped. *)

val frame_of : t -> vpn:int -> Fbufs_sim.Phys_mem.frame_id
(** The frame backing the page, or [-1] when it is not mapped or not yet
    materialized (a zero-fill or paged-out page). *)

val entry_count : t -> int

(* -- fault handling --------------------------------------------------- *)

type fault_result = Resolved | Violation

val fault : t -> vpn:int -> write:bool -> fault_result
(** Resolve a page fault: zero-fill materialization, COW copy (or claim, if
    the frame is no longer shared), or lazy pmap re-entry. Charges
    [fault_trap] plus the work performed. [Violation] means the access is
    not permitted by the map. *)
