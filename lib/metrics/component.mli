(** Table 1 cost components.

    Every simulated-microsecond charge is attributed to one component.
    The first eight constructors are the paper's Table 1 decomposition of
    a cross-domain transfer (allocation, pmap update, pmap removal, TLB
    flush, zero-fill, secure, data copy, aggregate-object support); the
    remainder classify work outside Table 1's scope — IPC control
    transfer, protocol processing, network driver, per-word touches — so
    the attribution is total. [Other] is only ever produced by a charge
    whose call site carries no tag. [Policy] tags buffer-sharing policy
    work (admission checks and victim scans, see [Fbufs_policy]). *)

type t =
  | Alloc
  | Map
  | Unmap
  | Tlb_flush
  | Zero
  | Secure
  | Copy
  | Dag
  | Ipc
  | Proto
  | Net
  | Touch
  | Other
  | Policy

val all : t list
(** Every component, in a fixed report order. *)

val label : t -> string
(** Stable lower-case name, e.g. ["tlb_flush"]. *)

val index : t -> int
(** Dense index in [0, List.length all); follows the order of {!all}. *)

val name : t -> Fbufs_trace.Name.t
(** {!label}, interned: what a charge's trace slice stores. *)

val table1 : t list
(** The paper's own eight components. *)

val in_table1 : t -> bool
