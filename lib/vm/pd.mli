(** Protection domains.

    A protection domain is an address space (one {!Vm_map.t} with its own
    ASID) plus an identity. The kernel is itself a domain — "a range of
    virtual addresses, the fbuf region, is reserved in each protection
    domain, including the kernel". Kernel domains are trusted: enforcement
    operations such as securing a volatile fbuf are no-ops when the
    originator is trusted.

    [fault_hook] lets a higher layer intercept faults the plain VM cannot
    resolve; the fbuf library uses it to implement the paper's "invalid DAG
    references appear to the receiver as the absence of data" behaviour
    (mapping a null leaf page on bad reads inside the fbuf region). *)

type t = {
  id : int;
  name : string;
  kernel : bool;
  m : Fbufs_sim.Machine.t;
  map : Vm_map.t;
  mutable live : bool;
  mutable fault_hook : (t -> vpn:int -> write:bool -> bool) option;
}

val create : Fbufs_sim.Machine.t -> ?kernel:bool -> string -> t
(** A fresh domain with its own ASID and empty address space. *)

val asid : t -> int
val equal : t -> t -> bool

val mem : t -> t list -> bool
(** [mem d ds]: whether a domain {!equal} to [d] is in [ds]. *)

val pp : Format.formatter -> t -> unit
