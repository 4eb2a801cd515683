(* Model-based property tests: random operation sequences against
   reference models and global invariants of the substrates. *)

open Fbufs_sim
open Fbufs
module Testbed = Fbufs_harness.Testbed

(* ------------------------------------------------------------------ *)
(* Physical memory: conservation and refcount sanity                   *)
(* ------------------------------------------------------------------ *)

let prop_pmem_conservation =
  QCheck.Test.make ~name:"phys_mem conserves frames under random ops"
    ~count:200
    QCheck.(list_of_size Gen.(5 -- 60) (int_bound 2))
    (fun ops ->
      let nframes = 16 in
      let p = Phys_mem.create ~page_size:256 ~nframes in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              (* alloc *)
              try live := Phys_mem.alloc p :: !live
              with Phys_mem.Out_of_memory -> ())
          | 1 -> (
              (* incref a random live frame *)
              match !live with
              | [] -> ()
              | f :: _ ->
                  Phys_mem.incref p f;
                  live := f :: !live)
          | _ -> (
              (* decref *)
              match !live with
              | [] -> ()
              | f :: rest ->
                  Phys_mem.decref p f;
                  live := rest))
        ops;
      (* Every live reference must point at a frame with that many refs;
         freed + distinct live = total. *)
      let distinct = List.sort_uniq compare !live in
      let refs_ok =
        List.for_all
          (fun f ->
            Phys_mem.refcount p f
            = List.length (List.filter (( = ) f) !live))
          distinct
      in
      refs_ok
      && Phys_mem.free_frames p + List.length distinct = nframes)

(* ------------------------------------------------------------------ *)
(* TLB against a reference model                                       *)
(* ------------------------------------------------------------------ *)

(* Eight asids by 64 vpns pour 512 tags into 1-16 entries, so probe runs
   in the tag index collide and wrap and most inserts evict. A miss is
   always legitimate (capacity evictions), so the converse check after
   every op is what catches a lost tag: every entry the TLB reports must
   probe as a hit, with the model's permission, and [valid_entries] must
   count exactly those entries. *)
let prop_tlb_never_lies =
  QCheck.Test.make
    ~name:"TLB hits always agree with the reference map (misses are free)"
    ~count:200
    QCheck.(
      pair (int_range 1 16)
        (list_of_size
           Gen.(5 -- 200)
           (triple (int_bound 2) (int_bound 7) (int_bound 63))))
    (fun (entries, ops) ->
      let tlb = Tlb.create ~entries (Rng.create 1) in
      let model : (int * int, bool) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let converse () =
        let n = ref 0 in
        Tlb.iter_live tlb (fun ~asid ~vpn ~writable ->
            incr n;
            if
              Tlb.probe tlb ~asid ~vpn ~write:false = Tlb.Miss
              || Hashtbl.find_opt model (asid, vpn) <> Some writable
            then ok := false);
        if !n <> Tlb.valid_entries tlb then ok := false
      in
      List.iter
        (fun (op, asid, vpn) ->
          (match op with
          | 0 | 1 ->
              Tlb.insert tlb ~asid ~vpn ~writable:(op = 1);
              Hashtbl.replace model (asid, vpn) (op = 1)
          | _ ->
              Tlb.invalidate tlb ~asid ~vpn;
              Hashtbl.remove model (asid, vpn));
          converse ())
        ops;
      (* Probe everything: a Hit must match the model exactly. *)
      for asid = 0 to 7 do
        for vpn = 0 to 63 do
          match Tlb.probe tlb ~asid ~vpn ~write:true with
          | Tlb.Hit ->
              if Hashtbl.find_opt model (asid, vpn) <> Some true then
                ok := false
          | Tlb.Hit_readonly ->
              if Hashtbl.find_opt model (asid, vpn) <> Some false then
                ok := false
          | Tlb.Miss -> ()
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Discrete events dispatch in timestamp order                         *)
(* ------------------------------------------------------------------ *)

let prop_des_ordering =
  QCheck.Test.make ~name:"DES dispatches in non-decreasing time order"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.0))
    (fun times ->
      let d = Des.create () in
      let dispatched = ref [] in
      List.iter
        (fun t -> Des.schedule d t (fun () -> dispatched := t :: !dispatched))
        times;
      Des.run d;
      let seq = List.rev !dispatched in
      List.length seq = List.length times
      && seq = List.sort compare times)

(* ------------------------------------------------------------------ *)
(* Allocator address-space invariants                                  *)
(* ------------------------------------------------------------------ *)

let overlaps (a_base, a_len) (b_base, b_len) =
  a_base < b_base + b_len && b_base < a_base + a_len

let prop_allocator_no_overlap =
  QCheck.Test.make
    ~name:"uncached alloc/free sequences never hand out overlapping ranges"
    ~count:100
    QCheck.(list_of_size Gen.(5 -- 40) (pair bool (int_range 1 6)))
    (fun ops ->
      let tb = Testbed.create () in
      let app = Testbed.user_domain tb "app" in
      let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun (do_alloc, npages) ->
          if do_alloc then begin
            let fb = Allocator.alloc alloc ~npages in
            let range = (fb.Fbuf.base_vpn, fb.Fbuf.npages) in
            if
              List.exists
                (fun (fb' : Fbuf.t) ->
                  overlaps range (fb'.Fbuf.base_vpn, fb'.Fbuf.npages))
                !live
            then ok := false;
            live := fb :: !live
          end
          else
            match !live with
            | [] -> ()
            | fb :: rest ->
                Transfer.free fb ~dom:app;
                live := rest)
        ops;
      List.iter (fun fb -> Transfer.free fb ~dom:app) !live;
      !ok)

let prop_allocator_frames_balance =
  QCheck.Test.make ~name:"allocator returns all frames when drained"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 5))
    (fun sizes ->
      let tb = Testbed.create () in
      let m = tb.Testbed.m in
      let app = Testbed.user_domain tb "app" in
      let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
      let free0 = Phys_mem.free_frames m.Machine.pmem in
      let fbs = List.map (fun n -> Allocator.alloc alloc ~npages:n) sizes in
      let in_use = List.fold_left (fun a n -> a + n) 0 sizes in
      let mid_ok = Phys_mem.free_frames m.Machine.pmem = free0 - in_use in
      List.iter (fun fb -> Transfer.free fb ~dom:app) fbs;
      mid_ok && Phys_mem.free_frames m.Machine.pmem = free0)

(* ------------------------------------------------------------------ *)
(* Region chunk ownership                                              *)
(* ------------------------------------------------------------------ *)

let prop_region_chunk_exclusivity =
  QCheck.Test.make
    ~name:"chunks are never owned by two allocators at once" ~count:60
    QCheck.(list_of_size Gen.(2 -- 20) (pair (int_bound 2) (int_range 1 32)))
    (fun ops ->
      let tb = Testbed.create () in
      let doms =
        Array.init 3 (fun i -> Testbed.user_domain tb (Printf.sprintf "d%d" i))
      in
      let allocs =
        Array.map
          (fun d -> Testbed.allocator tb ~domains:[ d ] Fbuf.volatile_only)
          doms
      in
      let live = Array.make 3 [] in
      (try
         List.iter
           (fun (who, npages) ->
             let fb = Allocator.alloc allocs.(who) ~npages in
             live.(who) <- fb :: live.(who))
           ops
       with Region.Chunk_limit_exceeded _ | Region.Region_exhausted -> ());
      (* No two live fbufs (across all domains) may overlap: chunk and
         extent management must keep domains disjoint. *)
      let all = Array.to_list live |> List.concat in
      let rec pairwise = function
        | [] -> true
        | (fb : Fbuf.t) :: rest ->
            List.for_all
              (fun (fb' : Fbuf.t) ->
                not
                  (overlaps
                     (fb.Fbuf.base_vpn, fb.Fbuf.npages)
                     (fb'.Fbuf.base_vpn, fb'.Fbuf.npages)))
              rest
            && pairwise rest
      in
      let ok = pairwise all in
      Array.iteri
        (fun i fbs ->
          List.iter (fun fb -> Transfer.free fb ~dom:doms.(i)) fbs)
        live;
      ok)

(* ------------------------------------------------------------------ *)
(* Transfer state machine under random interleavings                   *)
(* ------------------------------------------------------------------ *)

let prop_transfer_state_machine =
  QCheck.Test.make
    ~name:"random transfer op sequences preserve mechanism invariants"
    ~count:80
    QCheck.(list_of_size Gen.(3 -- 40) (int_bound 4))
    (fun ops ->
      let tb = Testbed.create () in
      let m = tb.Testbed.m in
      let a = Testbed.user_domain tb "a" in
      let b = Testbed.user_domain tb "b" in
      let c = Testbed.user_domain tb "c" in
      let alloc = Testbed.allocator tb ~domains:[ a; b; c ] Fbuf.cached_volatile in
      let free0 = Phys_mem.free_frames m.Machine.pmem in
      let fb = ref None in
      let step op =
        match (op, !fb) with
        | 0, None -> fb := Some (Allocator.alloc alloc ~npages:2)
        | 1, Some f when Fbuf.ref_count f a > 0 && Fbuf.ref_count f b = 0 ->
            Transfer.send f ~src:a ~dst:b
        | 2, Some f when Fbuf.ref_count f b > 0 && Fbuf.ref_count f c = 0 ->
            Transfer.send f ~src:b ~dst:c
        | 3, Some f -> Transfer.secure f
        | 4, Some f ->
            (* free one ref from some holder, if any *)
            let holder =
              List.find_opt (fun d -> Fbuf.ref_count f d > 0) [ c; b; a ]
            in
            (match holder with
            | Some d ->
                Transfer.free f ~dom:d;
                if Fbuf.total_refs f = 0 then fb := None
            | None -> ())
        | _ -> ()
      in
      List.iter step ops;
      (* Drain. *)
      (match !fb with
      | Some f ->
          List.iter
            (fun d ->
              for _ = 1 to Fbuf.ref_count f d do
                Transfer.free f ~dom:d
              done)
            [ a; b; c ]
      | None -> ());
      (* Invariants: the one cached buffer is parked; frames conserved
         (its 2 frames are parked with it). *)
      Allocator.free_list_length alloc <= 1
      && Phys_mem.free_frames m.Machine.pmem
         = free0 - (2 * Allocator.free_list_length alloc))

(* ------------------------------------------------------------------ *)
(* Rng statistical sanity                                              *)
(* ------------------------------------------------------------------ *)

let prop_rng_uniformish =
  QCheck.Test.make ~name:"rng int is roughly uniform over small ranges"
    ~count:20 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let buckets = Array.make 8 0 in
      let n = 4000 in
      for _ = 1 to n do
        let v = Rng.int r 8 in
        buckets.(v) <- buckets.(v) + 1
      done;
      (* Each bucket within 25% of the expected count. *)
      Array.for_all
        (fun c -> abs (c - (n / 8)) < n / 8 / 4)
        buckets)

let () =
  Alcotest.run "properties"
    [
      ( "models",
        [
          QCheck_alcotest.to_alcotest prop_pmem_conservation;
          QCheck_alcotest.to_alcotest prop_tlb_never_lies;
          QCheck_alcotest.to_alcotest prop_des_ordering;
          QCheck_alcotest.to_alcotest prop_allocator_no_overlap;
          QCheck_alcotest.to_alcotest prop_allocator_frames_balance;
          QCheck_alcotest.to_alcotest prop_region_chunk_exclusivity;
          QCheck_alcotest.to_alcotest prop_transfer_state_machine;
          QCheck_alcotest.to_alcotest prop_rng_uniformish;
        ] );
    ]
