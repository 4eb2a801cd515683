(** The fbuf: one or more contiguous virtual pages of I/O data.

    An fbuf lives at a fixed virtual address inside the globally shared fbuf
    region, so it is mapped at the same address in the originator and every
    receiver — no receiver-side address allocation and no pointer
    translation ever happen on a transfer.

    The four variants of the paper are the cross product of two flags:
    - [cached]: on last free the buffer keeps its mappings and returns to
      its path's LIFO free list instead of being torn down;
    - [volatile]: the originator keeps write permission across transfers
      unless a receiver explicitly secures the buffer.

    This module is the passive record; all semantics (and all cost
    accounting) live in {!Allocator} and {!Transfer}. *)

type variant = { cached : bool; volatile : bool }

val cached_volatile : variant
val volatile_only : variant  (** uncached, volatile *)

val cached_only : variant  (** cached, non-volatile *)

val plain : variant  (** uncached, non-volatile: the base mechanism *)

val variant_name : variant -> string

type state =
  | Active  (** allocated, holding data, references outstanding *)
  | Cached_free  (** parked on a path free list, mappings intact *)
  | Dead  (** torn down; using it is an error *)

type time = { mutable us : float }
(** A simulated time stamp. An all-float record is stored flat, so
    setting [us] writes in place; a [float] field of {!t} would box a
    fresh float on every write. *)

type t = {
  id : int;
  base_vpn : int;
  npages : int;
  variant : variant;
  path : Path.t;
  m : Fbufs_sim.Machine.t;
  mutable state : state;
  mutable secured : bool;  (** originator's write permission removed *)
  refs : (int, int) Hashtbl.t;
      (** domain id -> reference count; a domain that held a reference
          keeps its entry at 0 *)
  mutable total_refs : int;  (** sum of [refs] *)
  mutable mapped_in : Fbufs_vm.Pd.t list;  (** receivers with live mappings *)
  mutable on_all_freed : (t -> unit) option;  (** allocator hook *)
  last_alloc : time;
      (** simulated time of the most recent allocation; the pageout
          daemon's LRU approximation reclaims the least recently used
          parked buffers first *)
  mutable xfer : int;
      (** causal transfer ({!Fbufs_sim.Machine.current_transfer} at
          allocation) carried with the fbuf across domains; 0 = none *)
  mutable walk : int;
      (** stamp of the last message walk ([Msg.fold_fbufs]) that visited
          this buffer, so a walk skips the buffer's later leaves without
          a table of buffers seen; 0 = none *)
  mutable accounted : bool;
      (** whether this buffer's pages are charged to its path's held-page
          account (buffer-sharing policies). Maintained by the allocator
          at its own events — set on allocation, cleared when the buffer
          parks without physical memory, is paged out, or dies. Memory
          re-materialized by a touch of a paged-out parked buffer is
          deliberately not re-charged until the next allocation: page
          faults are invisible to the allocator, and accounting only at
          allocator events is what keeps the account drift-free. *)
}

val make :
  m:Fbufs_sim.Machine.t ->
  id:int ->
  base_vpn:int ->
  npages:int ->
  variant:variant ->
  path:Path.t ->
  t

val originator : t -> Fbufs_vm.Pd.t
val vaddr : t -> int
val size : t -> int
(** Bytes: npages * page size. *)

val ref_count : t -> Fbufs_vm.Pd.t -> int
val total_refs : t -> int
val add_ref : t -> Fbufs_vm.Pd.t -> unit
val drop_ref : t -> Fbufs_vm.Pd.t -> unit
(** Raises [Invalid_argument] if the domain holds no reference. *)

val is_mapped_in : t -> Fbufs_vm.Pd.t -> bool
(** True for the originator and for receivers with retained mappings. *)

val pp : Format.formatter -> t -> unit
