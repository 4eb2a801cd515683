(* Table 1 decomposes the incremental per-page cost of a cross-domain
   transfer into mechanism components; every simulated-us charge is
   attributed to exactly one of them. The first eight constructors are
   the paper's; the rest cover work outside Table 1's scope so the
   attribution is total (nothing ever lands in a catch-all silently —
   [Other] is reserved for charges whose call site carries no tag). *)

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

let all =
  [
    Alloc; Map; Unmap; Tlb_flush; Zero; Secure; Copy; Dag; Ipc; Proto; Net;
    Touch; Other; Policy;
  ]

let label = function
  | Alloc -> "alloc"
  | Map -> "map"
  | Unmap -> "unmap"
  | Tlb_flush -> "tlb_flush"
  | Zero -> "zero"
  | Secure -> "secure"
  | Copy -> "copy"
  | Dag -> "dag"
  | Ipc -> "ipc"
  | Proto -> "proto"
  | Net -> "net"
  | Touch -> "touch"
  | Other -> "other"
  | Policy -> "policy"


let index = function
  | Alloc -> 0
  | Map -> 1
  | Unmap -> 2
  | Tlb_flush -> 3
  | Zero -> 4
  | Secure -> 5
  | Copy -> 6
  | Dag -> 7
  | Ipc -> 8
  | Proto -> 9
  | Net -> 10
  | Touch -> 11
  | Other -> 12
  | Policy -> 13

let names =
  Array.of_list (List.map (fun c -> Fbufs_trace.Name.intern (label c)) all)

let name c = names.(index c)

let table1 = [ Alloc; Map; Unmap; Tlb_flush; Zero; Secure; Copy; Dag ]
let in_table1 c = List.mem c table1
