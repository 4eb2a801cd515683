(** Dense slab-backed page table: vpn -> one non-negative int word.

    Backing store for {!Vm_map} and {!Pmap}, each of which packs its entry
    into the word. Mapped pages cluster into a few contiguous ranges, so
    entries live in dense slabs (int arrays) found through a per-slab
    hashtable. A point operation costs one slab resolution plus an array
    index; the most recently used slab is memoized, so a sequential range
    traversal resolves the hashtable once per slab crossed instead of once
    per page. Words are stored in place: reading, writing and removing an
    entry allocate nothing once its slab exists.

    Note this structure only changes the *real* execution cost of the
    simulator; simulated-time charges are made by the callers, per page,
    exactly as before. *)

type t

val create : ?slab_bits:int -> unit -> t
(** [slab_bits] (default 9, i.e. 512-page / 2 MB slabs) sets the slab
    granule. Raises [Invalid_argument] outside [1, 20]. *)

val find : t -> int -> int
(** The word stored for a vpn, or [-1] when there is none. *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** Insert or overwrite. Raises [Invalid_argument] on a negative vpn or a
    negative word ([-1] is the empty slot). *)

val remove : t -> int -> unit
(** No-op when absent. *)

val length : t -> int
(** Number of live entries, maintained as a counter (O(1)). *)
