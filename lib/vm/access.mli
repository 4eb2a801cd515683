(** The memory access path: TLB lookup, software refill, fault dispatch.

    Every byte any simulated component reads or writes goes through this
    module, so TLB locality, lazy pmap updates, modification faults and
    protection enforcement are emergent properties of the mechanisms under
    test rather than numbers asserted by the experiments.

    Word operations model individual loads/stores (charging a cache-fill
    share per access); bulk operations model bcopy-style loops (charging
    [copy_per_byte]) and checksum loops (charging [checksum_per_byte]).

    Raises {!Vm_map.Protection_violation} on access the domain does not
    have — this is the memory access violation exception the paper's
    restricted dynamic read sharing relies on. *)

val read_word : Pd.t -> vaddr:int -> int
(** Load a 32-bit little-endian word. Raises [Invalid_argument] if the
    word crosses a page boundary. *)

val write_word : Pd.t -> vaddr:int -> int -> unit
(** Store a 32-bit little-endian word (low 32 bits of the argument).
    Raises [Invalid_argument] if the word crosses a page boundary. *)

val read_bytes : Pd.t -> vaddr:int -> len:int -> bytes
(** A fresh buffer holding the [len] bytes at [vaddr]: {!read_into} a
    new [len]-byte buffer. Raises [Invalid_argument] when [len] is
    negative. *)

val read_into : Pd.t -> vaddr:int -> len:int -> bytes -> pos:int -> unit
(** [read_into dom ~vaddr ~len out ~pos] copies the [len] bytes at
    [vaddr] into [out] at [pos]: one translation and one copy charge per
    page segment, and [len] added to ["mem.bytes_read"]. It allocates
    nothing, so a caller gathering several ranges into one buffer (a
    message's leaves) pays for the result only. Raises [Invalid_argument]
    when [len] or [pos] is negative or the range does not fit in [out]. *)

val write_bytes : Pd.t -> vaddr:int -> bytes -> unit

val write_string : Pd.t -> vaddr:int -> string -> unit

val blit : src:Pd.t -> src_vaddr:int -> dst:Pd.t -> dst_vaddr:int -> len:int -> unit
(** Copy between (possibly different) domains through a trusted intermediary
    (e.g. kernel copyin/copyout); charges one copy per byte. *)

val checksum : Pd.t -> vaddr:int -> len:int -> int
(** Internet-style 16-bit ones'-complement checksum over the range,
    computed over the actual simulated bytes. *)

type checksum_state
(** Partial ones'-complement sum, composable across discontiguous ranges
    (buffer aggregates): carries the running sum and byte parity. *)

val checksum_start : checksum_state

val checksum_feed :
  Pd.t -> vaddr:int -> len:int -> checksum_state -> checksum_state
(** Fold a range into the sum in place (charging only the checksum loop,
    not a copy). *)

val checksum_finish : checksum_state -> int

val touch_read : Pd.t -> vaddr:int -> npages:int -> unit
(** Read one word in each page of the range — the paper's Table 1 receiver
    workload ("touches (reads) one word in each page"). *)

val touch_write : Pd.t -> vaddr:int -> npages:int -> unit
(** Write one word in each page — the Table 1 originator workload. *)

val can_access : Pd.t -> vaddr:int -> write:bool -> bool
(** Non-faulting permission probe against the map (no charges). *)
