open Fbufs_sim
open Fbufs_vm
module Comp = Fbufs_metrics.Component

let fbuf_lazy_map = Stats.counter "fbuf.lazy_map"
let region_chunk_rpc = Stats.counter "region.chunk_rpc"
let region_chunks_granted = Stats.counter "region.chunks_granted"
let region_dead_page_read = Stats.counter "region.dead_page_read"

type config = {
  base_vpn : int;
  region_pages : int;
  chunk_pages : int;
  max_chunks_per_allocator : int;
  zero_on_alloc : bool;
}

let default_config =
  {
    base_vpn = 0x40000;
    region_pages = 8192;
    chunk_pages = 16;
    max_chunks_per_allocator = 64;
    zero_on_alloc = false;
  }

type t = {
  m : Machine.t;
  kernel : Pd.t;
  config : config;
  nchunks : int;
  chunk_owner : int option array;  (* chunk index -> owning domain id *)
  owned_count : (int, int) Hashtbl.t;  (* domain id -> chunks owned *)
  chunk_fbufs : Fbuf.t list array;  (* chunk index -> overlapping fbufs *)
  dead_frame : Phys_mem.frame_id;
  mutable dead_reads : int;
  mutable cursor : int;  (* next-fit: first chunk to probe on alloc *)
  mutable free_count : int;  (* unowned chunks, for O(1) exhaustion *)
}

exception Chunk_limit_exceeded of string
exception Region_exhausted

let machine t = t.m
let kernel t = t.kernel
let config t = t.config

let in_region t ~vpn =
  vpn >= t.config.base_vpn && vpn < t.config.base_vpn + t.config.region_pages

let chunk_of t ~vpn = (vpn - t.config.base_vpn) / t.config.chunk_pages

(* Chunk-granular index: at most chunk_pages fbufs can overlap one chunk,
   so the per-chunk scan is short and registration is O(chunks spanned)
   instead of O(pages). [covering] returns the fbuf or raises
   [Not_found]: an option would be a block on every lazy map. *)
let rec covering ~vpn = function
  | [] -> raise Not_found
  | (fb : Fbuf.t) :: rest ->
      if vpn >= fb.Fbuf.base_vpn && vpn < fb.Fbuf.base_vpn + fb.Fbuf.npages
      then fb
      else covering ~vpn rest

let fbuf_at t ~vpn =
  if not (in_region t ~vpn) then None
  else
    match covering ~vpn t.chunk_fbufs.(chunk_of t ~vpn) with
    | fb -> Some fb
    | exception Not_found -> None

let lazy_map_frame t (dom : Pd.t) ~vpn frame =
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Map t.m
    t.m.cost.Cost_model.fault_trap;
  Stats.incr t.m.stats fbuf_lazy_map;
  Phys_mem.incref t.m.pmem frame;
  Vm_map.map_frame dom.Pd.map ~vpn ~frame ~prot:Prot.Read_only ~eager:true

let map_dead t (dom : Pd.t) ~vpn =
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Map t.m
    t.m.cost.Cost_model.fault_trap;
  Stats.incr t.m.stats region_dead_page_read;
  t.dead_reads <- t.dead_reads + 1;
  Phys_mem.incref t.m.pmem t.dead_frame;
  Vm_map.map_frame dom.Pd.map ~vpn ~frame:t.dead_frame ~prot:Prot.Read_only
    ~eager:true

(* Reads inside the region that the domain's own map cannot resolve are
   handled here. Two cases:

   - The page belongs to an fbuf the domain legitimately holds a reference
     to: transfers grant rights without eagerly building mappings, so the
     first touch materializes the mapping now. A receiver that never
     touches the data (the paper's netserver) therefore never pays any
     per-page VM cost.

   - Anything else: map the shared zeroed dead page read-only, so the
     receiver of a corrupt integrated DAG sees an empty leaf, not a
     crash.

   A page the domain has mapped is left to the plain VM fault: it either
   resolves it or reports a real violation. *)
let dead_page_hook t (dom : Pd.t) ~vpn ~write =
  if write || (not (in_region t ~vpn)) || Vm_map.mapped dom.Pd.map ~vpn then
    false
  else begin
    (match covering ~vpn t.chunk_fbufs.(chunk_of t ~vpn) with
    | fb when fb.Fbuf.state = Fbuf.Active && Fbuf.ref_count fb dom > 0 -> (
        match Vm_map.frame_of (Fbuf.originator fb).Pd.map ~vpn with
        | -1 -> map_dead t dom ~vpn
        | frame -> lazy_map_frame t dom ~vpn frame)
    | _ | (exception Not_found) -> map_dead t dom ~vpn);
    true
  end

let create m ~kernel ?(config = default_config) () =
  if config.region_pages mod config.chunk_pages <> 0 then
    invalid_arg "Region.create: region_pages must be a multiple of chunk_pages";
  let dead_frame = Phys_mem.alloc m.Machine.pmem in
  Phys_mem.zero m.Machine.pmem dead_frame;
  let t =
    {
      m;
      kernel;
      config;
      nchunks = config.region_pages / config.chunk_pages;
      chunk_owner = Array.make (config.region_pages / config.chunk_pages) None;
      owned_count = Hashtbl.create 8;
      chunk_fbufs = Array.make (config.region_pages / config.chunk_pages) [];
      dead_frame;
      dead_reads = 0;
      cursor = 0;
      free_count = config.region_pages / config.chunk_pages;
    }
  in
  kernel.Pd.fault_hook <- Some (dead_page_hook t);
  t

let register_domain t (dom : Pd.t) =
  (* Reserving the range costs one map-level range operation; individual
     pages are mapped only as fbufs are transferred in. *)
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Map t.m
    t.m.cost.Cost_model.vm_range_op;
  dom.Pd.fault_hook <- Some (dead_page_hook t)

let owned t (dom : Pd.t) =
  match Hashtbl.find_opt t.owned_count dom.Pd.id with Some n -> n | None -> 0

let chunks_owned t dom = owned t dom

let alloc_chunks t (dom : Pd.t) ~nchunks =
  if nchunks <= 0 then invalid_arg "Region.alloc_chunks: nchunks must be > 0";
  if owned t dom + nchunks > t.config.max_chunks_per_allocator then
    raise
      (Chunk_limit_exceeded
         (Printf.sprintf "%s would own %d chunks (limit %d)" dom.Pd.name
            (owned t dom + nchunks)
            t.config.max_chunks_per_allocator));
  (* Chunk requests from user domains travel to the kernel over IPC; this
     is the slow path the two-level allocator amortizes away. *)
  if not (Pd.equal dom t.kernel) then begin
    Machine.charge ~kind:Machine.untyped ~comp:Comp.Ipc t.m
      t.m.cost.Cost_model.ipc_call;
    Machine.charge ~kind:Machine.untyped ~comp:Comp.Ipc t.m
      t.m.cost.Cost_model.ipc_reply;
    Stats.incr t.m.stats region_chunk_rpc
  end;
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Alloc t.m
    t.m.cost.Cost_model.vm_range_op;
  (* Next-fit search for a contiguous free run: resume from the rolling
     cursor and wrap around once, skipping past the blocking chunk on
     every failed probe. In the common append-mostly regime this is O(run
     length); the old first-fit rescan from chunk 0 was O(region). *)
  if nchunks > t.free_count then raise Region_exhausted;
  let limit = t.nchunks - nchunks in
  let rec scan start hi =
    if start > hi then None
    else
      let rec run i =
        if i = nchunks then -1
        else if t.chunk_owner.(start + i) = None then run (i + 1)
        else i
      in
      match run 0 with
      | -1 -> Some start
      | blocked -> scan (start + blocked + 1) hi
  in
  let start =
    match (if t.cursor > limit then None else scan t.cursor limit) with
    | Some s -> s
    | None -> (
        (* Wrapped pass covers runs that begin before the cursor. *)
        match scan 0 limit with
        | Some s -> s
        | None -> raise Region_exhausted)
  in
  for i = start to start + nchunks - 1 do
    t.chunk_owner.(i) <- Some dom.Pd.id
  done;
  t.cursor <- (if start + nchunks >= t.nchunks then 0 else start + nchunks);
  t.free_count <- t.free_count - nchunks;
  Hashtbl.replace t.owned_count dom.Pd.id (owned t dom + nchunks);
  Stats.add t.m.stats region_chunks_granted nchunks;
  t.config.base_vpn + (start * t.config.chunk_pages)

let free_chunks t (dom : Pd.t) ~vpn ~nchunks =
  let start = (vpn - t.config.base_vpn) / t.config.chunk_pages in
  if start < 0 || start + nchunks > t.nchunks then
    invalid_arg "Region.free_chunks: range outside region";
  for i = start to start + nchunks - 1 do
    (match t.chunk_owner.(i) with
    | Some id when id = dom.Pd.id -> ()
    | Some _ | None ->
        invalid_arg "Region.free_chunks: chunk not owned by domain");
    t.chunk_owner.(i) <- None
  done;
  t.free_count <- t.free_count + nchunks;
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Alloc t.m
    t.m.cost.Cost_model.vm_range_op;
  Hashtbl.replace t.owned_count dom.Pd.id (owned t dom - nchunks)

let last_chunk t (fb : Fbuf.t) =
  chunk_of t ~vpn:(fb.Fbuf.base_vpn + fb.Fbuf.npages - 1)

let register_fbuf t (fb : Fbuf.t) =
  for c = chunk_of t ~vpn:fb.Fbuf.base_vpn to last_chunk t fb do
    t.chunk_fbufs.(c) <- fb :: t.chunk_fbufs.(c)
  done

(* The chunk list without fbuf [id], in order. An fbuf is registered
   once per chunk, so the walk stops at the first match and shares the
   rest of the list. *)
let rec without id = function
  | [] -> []
  | (g : Fbuf.t) :: rest ->
      if g.Fbuf.id = id then rest else g :: without id rest

let unregister_fbuf t (fb : Fbuf.t) =
  for c = chunk_of t ~vpn:fb.Fbuf.base_vpn to last_chunk t fb do
    t.chunk_fbufs.(c) <- without fb.Fbuf.id t.chunk_fbufs.(c)
  done

let registered_fbufs t =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc fbs ->
      List.fold_left
        (fun acc (fb : Fbuf.t) ->
          if Hashtbl.mem seen fb.Fbuf.id then acc
          else begin
            Hashtbl.add seen fb.Fbuf.id ();
            fb :: acc
          end)
        acc fbs)
    [] t.chunk_fbufs

let dead_page_reads t = t.dead_reads

(* Read-only introspection for the Fbufs_check invariant auditor. *)
let nchunks t = t.nchunks
let free_chunk_count t = t.free_count
let dead_frame_id t = t.dead_frame
let chunk_index t ~vpn = chunk_of t ~vpn

let chunk_owner_id t ~chunk =
  if chunk < 0 || chunk >= t.nchunks then
    invalid_arg "Region.chunk_owner_id: chunk outside region";
  t.chunk_owner.(chunk)
