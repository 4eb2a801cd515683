open Fbufs_sim
open Fbufs_vm
open Fbufs

(* Structural invariant auditor.

   Unlike the differential driver, which compares against a parallel
   model, the audit is self-contained: it cross-checks the real
   allocators, region and per-domain page tables against each other, so
   it can run over any live system (the driver runs it after operations;
   tests run it over hand-built scenarios). Every check here is listed in
   DESIGN.md section 7; keep the two in sync. *)

type target = {
  region : Region.t;
  domains : Pd.t list;  (* every domain that may map fbuf pages *)
  allocators : Allocator.t list;  (* every allocator over [region] *)
}

let run t =
  let bad = ref [] in
  let violation fmt = Fmt.kstr (fun s -> bad := s :: !bad) fmt in
  let dead = Region.dead_frame_id t.region in
  let registered = Region.registered_fbufs t.region in

  (* 1. Free-list discipline: parked buffers are Cached_free with zero
     references, counted free lists match, and no buffer is parked twice
     (within or across allocators). *)
  let parked_seen = Hashtbl.create 64 in
  List.iteri
    (fun ai alloc ->
      let parked = Allocator.parked alloc in
      if List.length parked <> Allocator.free_list_length alloc then
        violation "allocator %d: free_list_length %d but %d parked buffers"
          ai
          (Allocator.free_list_length alloc)
          (List.length parked);
      List.iter
        (fun (fb : Fbuf.t) ->
          if fb.Fbuf.state <> Fbuf.Cached_free then
            violation "allocator %d: parked fbuf#%d not Cached_free" ai
              fb.Fbuf.id;
          if Fbuf.total_refs fb <> 0 then
            violation "allocator %d: parked fbuf#%d holds %d references" ai
              fb.Fbuf.id (Fbuf.total_refs fb);
          if Hashtbl.mem parked_seen fb.Fbuf.id then
            violation "fbuf#%d parked twice" fb.Fbuf.id
          else Hashtbl.add parked_seen fb.Fbuf.id ai;
          if not (List.exists (fun (g : Fbuf.t) -> g.Fbuf.id = fb.Fbuf.id)
                    registered)
          then violation "parked fbuf#%d not registered in the region"
                 fb.Fbuf.id)
        parked)
    t.allocators;

  (* 2. No two registered fbufs overlap in the region's address space. *)
  let by_base =
    List.sort
      (fun (x : Fbuf.t) (y : Fbuf.t) -> compare x.Fbuf.base_vpn y.Fbuf.base_vpn)
      registered
  in
  let rec overlap_scan = function
    | (x : Fbuf.t) :: (y : Fbuf.t) :: rest ->
        if x.Fbuf.base_vpn + x.Fbuf.npages > y.Fbuf.base_vpn then
          violation "fbuf#%d and fbuf#%d overlap" x.Fbuf.id y.Fbuf.id;
        overlap_scan (y :: rest)
    | _ -> ()
  in
  overlap_scan by_base;
  List.iter
    (fun (fb : Fbuf.t) ->
      if
        not
          (Region.in_region t.region ~vpn:fb.Fbuf.base_vpn
          && Region.in_region t.region
               ~vpn:(fb.Fbuf.base_vpn + fb.Fbuf.npages - 1))
      then violation "fbuf#%d extends outside the region" fb.Fbuf.id)
    registered;

  (* 3. Free extents: sorted, coalesced, inside chunks the allocator owns,
     and disjoint from every registered fbuf. *)
  List.iteri
    (fun ai alloc ->
      let owner = Allocator.owner alloc in
      let prev_base = ref 0 and prev_len = ref (-1) in
      Allocator.iter_extents alloc (fun ~base ~npages:n ->
          if !prev_len >= 0 && !prev_base + !prev_len >= base then
            violation
              "allocator %d: extents (%d,%d) and (%d,_) unsorted or \
               uncoalesced"
              ai !prev_base !prev_len base;
          prev_base := base;
          prev_len := n;
          if n <= 0 then violation "allocator %d: empty extent at %d" ai base;
          if
            not
              (Region.in_region t.region ~vpn:base
              && Region.in_region t.region ~vpn:(base + n - 1))
          then violation "allocator %d: extent (%d,%d) outside region" ai base n
          else
            for chunk = Region.chunk_index t.region ~vpn:base
                to Region.chunk_index t.region ~vpn:(base + n - 1) do
              if Region.chunk_owner_id t.region ~chunk <> Some owner.Pd.id then
                violation
                  "allocator %d: extent (%d,%d) in chunk %d not owned by %s" ai
                  base n chunk owner.Pd.name
            done;
          List.iter
            (fun (fb : Fbuf.t) ->
              if
                base < fb.Fbuf.base_vpn + fb.Fbuf.npages
                && fb.Fbuf.base_vpn < base + n
              then
                violation "allocator %d: extent (%d,%d) overlaps fbuf#%d" ai
                  base n fb.Fbuf.id)
            registered);
      (* Owned chunk grants really belong to the owner. *)
      List.iter
        (fun (base, nchunks) ->
          let c0 = Region.chunk_index t.region ~vpn:base in
          for chunk = c0 to c0 + nchunks - 1 do
            if Region.chunk_owner_id t.region ~chunk <> Some owner.Pd.id then
              violation "allocator %d: chunk %d granted but not owned" ai chunk
          done)
        (Allocator.owned_chunks alloc))
    t.allocators;

  (* 4. Region chunk accounting is self-consistent. *)
  let free_scan = ref 0 in
  for chunk = 0 to Region.nchunks t.region - 1 do
    if Region.chunk_owner_id t.region ~chunk = None then incr free_scan
  done;
  if !free_scan <> Region.free_chunk_count t.region then
    violation "region: free_chunk_count %d but %d chunks unowned"
      (Region.free_chunk_count t.region)
      !free_scan;

  (* 5. Page tables: at a registered fbuf's pages, a non-originator domain
     may map only the originator's frame or the dead page, and is never
     writable; the originator's protection agrees with the secured flag;
     frame reference counts equal the number of mappings. *)
  let m = Region.machine t.region in
  List.iter
    (fun (fb : Fbuf.t) ->
      let orig = Fbuf.originator fb in
      (if fb.Fbuf.state = Fbuf.Active || fb.Fbuf.state = Fbuf.Cached_free then
         let want_writable =
           orig.Pd.kernel
           || (not fb.Fbuf.secured)
           || fb.Fbuf.state = Fbuf.Cached_free
         in
         for i = 0 to fb.Fbuf.npages - 1 do
           let vpn = fb.Fbuf.base_vpn + i in
           if not (Vm_map.mapped orig.Pd.map ~vpn) then
             violation "fbuf#%d page %d: originator mapping lost" fb.Fbuf.id i
           else begin
             let p = Vm_map.prot_of orig.Pd.map ~vpn in
             if Prot.can_write p <> want_writable then
               violation
                 "fbuf#%d page %d: originator %swritable but secured=%b"
                 fb.Fbuf.id i
                 (if Prot.can_write p then "" else "not ")
                 fb.Fbuf.secured
           end;
           let orig_frame = Vm_map.frame_of orig.Pd.map ~vpn in
           let mappers = ref 0 in
           List.iter
             (fun (d : Pd.t) ->
               let f = Vm_map.frame_of d.Pd.map ~vpn in
               (* Non-originator rules. *)
               if not (Pd.equal d orig) then begin
                 if f <> -1 && f <> dead && f <> orig_frame then
                   violation
                     "fbuf#%d page %d: %s maps foreign frame %d" fb.Fbuf.id i
                     d.Pd.name f;
                 if Prot.can_write (Vm_map.prot_of d.Pd.map ~vpn) then
                   violation "fbuf#%d page %d: receiver %s is writable"
                     fb.Fbuf.id i d.Pd.name
               end;
               if f <> -1 && f = orig_frame then incr mappers)
             t.domains;
           match orig_frame with
           | f when f <> -1 && f <> dead ->
               let rc = Phys_mem.refcount m.Machine.pmem f in
               if rc <> !mappers then
                 violation
                   "fbuf#%d page %d: frame %d refcount %d but %d mappings"
                   fb.Fbuf.id i f rc !mappers
           | _ -> ()
         done);
      (* 6. mapped_in is a duplicate-free receiver list. *)
      let rec dup_scan = function
        | (d : Pd.t) :: rest ->
            if Pd.mem d rest then
              violation "fbuf#%d: %s appears twice in mapped_in" fb.Fbuf.id
                d.Pd.name;
            dup_scan rest
        | [] -> ()
      in
      dup_scan fb.Fbuf.mapped_in;
      if Pd.mem orig fb.Fbuf.mapped_in then
        violation "fbuf#%d: originator listed in mapped_in" fb.Fbuf.id)
    registered;
  List.rev !bad
