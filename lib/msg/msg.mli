(** The aggregate object: an immutable buffer-aggregate DAG in the style of
    x-kernel messages (and BSD mbuf chains).

    A message is a tree whose leaves are (fbuf, offset, length) windows; all
    editing — joining PDUs into an ADU, fragmenting an ADU into PDUs,
    prepending headers, clipping headers off — is performed by building new
    nodes that share the underlying fbufs, never by touching buffer bytes.
    This is what makes copy semantics free for immutable buffers.

    Data access goes through {!Fbufs_vm.Access} in a caller-supplied domain,
    so a domain reading a message it was never sent faults exactly as the
    paper requires. *)

type t

type leaf = private { fbuf : Fbufs.Fbuf.t; off : int; len : int }

val empty : t

val of_fbuf : Fbufs.Fbuf.t -> off:int -> len:int -> t
(** A single-leaf message windowing [len] bytes of the fbuf at [off].
    Raises [Invalid_argument] if the window exceeds the buffer. *)

val length : t -> int

val is_empty : t -> bool

val join : t -> t -> t
(** Logical concatenation: [join hd tl] is hd's bytes followed by tl's. *)

val split : t -> int -> t * t
(** [split m k] is [(truncate m k, clip m k)]: the first [k] bytes and
    the rest. Raises [Invalid_argument] when [k] is outside
    [0, length m]. *)

val clip : t -> int -> t
(** Drop the first [k] bytes (header strip). Only the nodes on the path
    to byte [k] are rebuilt — a leaf cut at [k] shares its fbuf with an
    adjusted window — and nothing of the dropped side is built. Raises
    [Invalid_argument] when [k] is outside [0, length m]. *)

val truncate : t -> int -> t
(** Keep only the first [k] bytes, building only the kept side, as
    {!clip} does. Raises [Invalid_argument] when [k] is outside
    [0, length m]. *)

val leaves : t -> leaf list
(** Left-to-right leaf windows (empty leaves omitted). *)

val fold_leaves : (leaf -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_leaves f m acc] folds [f] over the leaf windows left to right,
    the order of {!leaves}, without building the list: with an [f] that
    captures no variables the walk allocates nothing (a device gathering
    a PDU keeps its cursor in the accumulator). *)

val mem_fbuf : Fbufs.Fbuf.t -> t -> bool
(** Whether some leaf of the message windows this fbuf: the same answer
    as a search of {!fbufs}, by a walk over the leaves that allocates
    nothing. Unlike {!fold_fbufs} it takes no walk stamp, so it may run
    inside a {!fold_fbufs} callback. *)

val fbufs : t -> Fbufs.Fbuf.t list
(** Distinct underlying fbufs in first-appearance order: the order
    {!fold_fbufs} visits them in. *)

val fold_fbufs : (Fbufs.Fbuf.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_fbufs f m acc] folds [f] over the distinct underlying fbufs in
    first-appearance order (left to right over the leaves, an fbuf counted
    at its first leaf), in time linear in the leaves. The walk itself
    allocates nothing, so with an [f] that captures no variables it is
    the allocation-free way to visit a message's buffers on a
    per-operation path. [f] must not walk a message itself: that raises
    [Invalid_argument]. *)

val depth : t -> int

(* -- data plane ------------------------------------------------------ *)

val to_bytes : t -> as_:Fbufs_vm.Pd.t -> bytes
(** Gather the message contents (charged reads in [as_]):
    {!sub_bytes} over the whole message. *)

val to_string : t -> as_:Fbufs_vm.Pd.t -> string

val sub_bytes : t -> as_:Fbufs_vm.Pd.t -> off:int -> len:int -> bytes
(** [sub_bytes m ~as_ ~off ~len] reads bytes [off, off + len) into a
    fresh buffer: one {!Fbufs_vm.Access.read_into} per leaf window of
    [truncate (clip m off) len], left to right, so the charges, TLB
    traffic and ["mem.bytes_read"] count are those of reading that
    message's leaves, but neither the message nor its leaf list is
    built — the result is the only allocation. Raises [Invalid_argument]
    when the range is not inside [0, length m]. *)

val checksum : t -> as_:Fbufs_vm.Pd.t -> int
(** Ones'-complement checksum over the whole message, fragment-aware (odd
    leaf boundaries handled as a contiguous byte stream). *)

val iter_units :
  t -> as_:Fbufs_vm.Pd.t -> unit_size:int -> (bytes -> unit) -> unit
(** The paper's generator-like interface: deliver the message as
    consecutive application data units of [unit_size] bytes (last may be
    short). A unit contained in one leaf is read in place; only units that
    cross a fragment boundary pay an extra gather copy, which is recorded
    in the machine's stats under "msg.unit_gather". Raises
    [Invalid_argument] when [unit_size] is not positive. *)

val touch_read : t -> as_:Fbufs_vm.Pd.t -> unit
(** Read one word per page spanned by each leaf — the paper's dummy
    receiver workload, at message granularity. *)

val free_all : t -> dom:Fbufs_vm.Pd.t -> unit
(** Release [dom]'s reference on each distinct underlying fbuf. Raises
    [Invalid_argument] if a reference is missing. *)

val free_held : t -> dom:Fbufs_vm.Pd.t -> unit
(** Like {!free_all} but skips buffers [dom] holds no reference to (a layer
    releasing only what it owns in a message assembled by several). *)

val pp : Format.formatter -> t -> unit
