(* Unit and property tests for the simulated-hardware substrate. *)

open Fbufs_sim

let check = Alcotest.check
let fl = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_starts_at_zero () =
  let c = Clock.create () in
  check fl "initial" 0.0 (Clock.now c)

let test_clock_advance_accumulates () =
  let c = Clock.create () in
  Clock.advance c 1.5;
  Clock.advance c 2.25;
  check fl "sum" 3.75 (Clock.now c)

let test_clock_advance_negative_rejected () =
  let c = Clock.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Clock.advance: negative increment") (fun () ->
      Clock.advance c (-1.0))

let test_clock_advance_to_forward_only () =
  let c = Clock.create () in
  Clock.advance c 10.0;
  Clock.advance_to c 5.0;
  check fl "no rewind" 10.0 (Clock.now c);
  Clock.advance_to c 12.0;
  check fl "forward" 12.0 (Clock.now c)

let test_clock_reset () =
  let c = Clock.create () in
  Clock.advance c 7.0;
  Clock.reset c;
  check fl "reset" 0.0 (Clock.now c)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let dec = Cost_model.decstation_5000_200

let test_cost_page_words () =
  check Alcotest.int "1024 words/page" 1024 (Cost_model.page_words dec)

let test_cost_effective_net_rate () =
  (* The three caps of the paper: 516 net link, 367 DMA, 285 contended.
     The effective rate must model the contended DMA-bound case. *)
  let r = Cost_model.effective_net_mbps dec in
  Alcotest.(check bool)
    (Printf.sprintf "effective rate %.1f in [270, 300]" r)
    true
    (r > 270.0 && r < 300.0)

let test_cost_dma_bound_without_contention () =
  let c = { dec with Cost_model.bus_contention = 0.0 } in
  let r = Cost_model.effective_net_mbps c in
  Alcotest.(check bool)
    (Printf.sprintf "DMA-bound rate %.1f in [350, 380]" r)
    true
    (r > 350.0 && r < 380.0)

let test_cost_wire_bound_with_fast_dma () =
  let c =
    { dec with Cost_model.bus_contention = 0.0; dma_startup = 0.0;
      dma_mbps = 100_000.0 }
  in
  let r = Cost_model.effective_net_mbps c in
  (* 622 * 48/53 = 563 Mb/s of payload when purely wire-limited. *)
  Alcotest.(check bool)
    (Printf.sprintf "wire-bound rate %.1f in [555, 570]" r)
    true
    (r > 555.0 && r < 570.0)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.next a = Rng.next b)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.next a = Rng.next b)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng floats stay in bounds" ~count:200
    QCheck.(pair small_int pos_float)
    (fun (seed, bound) ->
      QCheck.assume (bound > 1e-6 && bound < 1e9);
      let r = Rng.create seed in
      let v = Rng.float r bound in
      v >= 0.0 && v < bound)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_counters () =
  let s = Stats.create () in
  let x = Stats.counter "x" in
  check Alcotest.int "absent is zero" 0 (Stats.get s "x");
  Stats.incr s x;
  Stats.incr s x;
  Stats.add s x 3;
  check Alcotest.int "accumulated" 5 (Stats.get s "x")

let test_stats_reset () =
  let s = Stats.create () in
  Stats.incr s (Stats.counter "x");
  Stats.reset s;
  check Alcotest.int "cleared" 0 (Stats.get s "x")

let test_stats_to_list_sorted () =
  let s = Stats.create () in
  Stats.incr s (Stats.counter "b");
  Stats.incr s (Stats.counter "a");
  Stats.incr s (Stats.counter "c");
  check
    Alcotest.(list string)
    "sorted names" [ "a"; "b"; "c" ]
    (List.map fst (Stats.to_list s))

(* The string-keyed table [Stats] was before its counters got ids, kept
   as the model: one float cell per name, created on first bump. *)
module Model_stats = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let reset t = Hashtbl.reset t

  let add t name n =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r +. float_of_int n
    | None -> Hashtbl.add t name (ref (float_of_int n))

  let get_float t name =
    match Hashtbl.find_opt t name with Some r -> !r | None -> 0.0

  let get t name = int_of_float (get_float t name)

  let to_list t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* Differential test of [Stats] against [Model_stats] over three tables.
   Names 0-3 are declared before the tables exist; names 4 and 5 are
   fresh in every case and declared at their first use, after the tables
   were made, so a bump must widen a table without listing the other
   late name. [add _ 0] must still list its counter. Every read is
   compared; a snapshot taken at a [Snap] is compared through [since] at
   every later [Since]. *)
type stats_op =
  | Incr of int * int (* table, name *)
  | Add of int * int * int (* table, name, amount *)
  | Reset of int
  | Get of int * int
  | Snap of int
  | Since of int

let show_stats_op = function
  | Incr (t, n) -> Printf.sprintf "incr(%d,%d)" t n
  | Add (t, n, k) -> Printf.sprintf "add(%d,%d,%d)" t n k
  | Reset t -> Printf.sprintf "reset(%d)" t
  | Get (t, n) -> Printf.sprintf "get(%d,%d)" t n
  | Snap t -> Printf.sprintf "snap(%d)" t
  | Since t -> Printf.sprintf "since(%d)" t

let gen_stats_ops =
  let open QCheck.Gen in
  let table = int_bound 2 and name = int_bound 5 in
  list_size (int_range 0 120)
    (frequency
       [
         (8, map (fun (t, n) -> Incr (t, n)) (pair table name));
         ( 4,
           map
             (fun ((t, n), k) -> Add (t, n, k))
             (pair (pair table name) (int_range (-3) 5)) );
         (1, map (fun t -> Reset t) table);
         (4, map (fun (t, n) -> Get (t, n)) (pair table name));
         (1, map (fun t -> Snap t) table);
         (2, map (fun t -> Since t) table);
       ])

let arb_stats_ops =
  QCheck.make gen_stats_ops
    ~print:(fun ops -> String.concat " " (List.map show_stats_op ops))

let stats_cases = ref 0

let prop_stats_model ops =
  incr stats_cases;
  let names =
    Array.append
      (Array.init 4 (Printf.sprintf "qstats.n%d"))
      (Array.init 2 (Printf.sprintf "qstats.late%d.%d" !stats_cases))
  in
  let early = Array.init 4 (fun i -> Stats.counter names.(i)) in
  let real = Array.init 3 (fun _ -> Stats.create ()) in
  let model = Array.init 3 (fun _ -> Model_stats.create ()) in
  let snaps = Array.make 3 None in
  let counter n = if n < 4 then early.(n) else Stats.counter names.(n) in
  let agree t =
    let l = Stats.to_list real.(t) and ml = Model_stats.to_list model.(t) in
    if l <> ml then QCheck.Test.fail_reportf "table %d: to_list differs" t;
    if Stats.snapshot real.(t) <> ml then
      QCheck.Test.fail_reportf "table %d: snapshot differs" t
  in
  let step = function
    | Incr (t, n) ->
        Stats.incr real.(t) (counter n);
        Model_stats.add model.(t) names.(n) 1
    | Add (t, n, k) ->
        Stats.add real.(t) (counter n) k;
        Model_stats.add model.(t) names.(n) k
    | Reset t ->
        Stats.reset real.(t);
        Model_stats.reset model.(t)
    | Get (t, n) ->
        if Stats.get real.(t) names.(n) <> Model_stats.get model.(t) names.(n)
        then QCheck.Test.fail_reportf "table %d: get %s" t names.(n);
        if
          Stats.get_float real.(t) names.(n)
          <> Model_stats.get_float model.(t) names.(n)
        then QCheck.Test.fail_reportf "table %d: get_float %s" t names.(n)
    | Snap t -> snaps.(t) <- Some (Stats.snapshot real.(t))
    | Since t -> (
        match snaps.(t) with
        | None -> ()
        | Some before ->
            if
              Stats.since real.(t) before
              <> Stats.diff ~before ~after:(Model_stats.to_list model.(t))
            then QCheck.Test.fail_reportf "table %d: since differs" t)
  in
  List.iter
    (fun op ->
      step op;
      for t = 0 to 2 do
        agree t
      done)
    ops;
  true

let test_stats_model =
  QCheck.Test.make ~name:"stats match the string-keyed model" ~count:200
    arb_stats_ops prop_stats_model

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)
(* ------------------------------------------------------------------ *)

let pm () = Phys_mem.create ~page_size:4096 ~nframes:8

let test_pmem_alloc_free_roundtrip () =
  let p = pm () in
  check Alcotest.int "all free" 8 (Phys_mem.free_frames p);
  let f = Phys_mem.alloc p in
  check Alcotest.int "one gone" 7 (Phys_mem.free_frames p);
  check Alcotest.int "refcount 1" 1 (Phys_mem.refcount p f);
  Phys_mem.decref p f;
  check Alcotest.int "back" 8 (Phys_mem.free_frames p)

let test_pmem_refcount_sharing () =
  let p = pm () in
  let f = Phys_mem.alloc p in
  Phys_mem.incref p f;
  Phys_mem.decref p f;
  check Alcotest.int "still live" 1 (Phys_mem.refcount p f);
  check Alcotest.int "not freed" 7 (Phys_mem.free_frames p);
  Phys_mem.decref p f;
  check Alcotest.int "freed" 8 (Phys_mem.free_frames p)

let test_pmem_exhaustion () =
  let p = pm () in
  for _ = 1 to 8 do
    ignore (Phys_mem.alloc p)
  done;
  Alcotest.check_raises "oom" Phys_mem.Out_of_memory (fun () ->
      ignore (Phys_mem.alloc p))

let test_pmem_data_survives () =
  let p = pm () in
  let f = Phys_mem.alloc p in
  Phys_mem.poke p f 100 'Z';
  check Alcotest.char "read back" 'Z' (Bytes.get (Phys_mem.data p f) 100)

let test_pmem_no_implicit_zeroing () =
  (* Frames are recycled dirty unless explicitly zeroed: that is the
     security property whose cost the paper quantifies at 57 us/page. *)
  let p = pm () in
  let f = Phys_mem.alloc p in
  Phys_mem.poke p f 0 'S';
  Phys_mem.decref p f;
  let f' = Phys_mem.alloc p in
  check Alcotest.int "same frame recycled" f f';
  check Alcotest.char "old data leaks" 'S' (Bytes.get (Phys_mem.data p f') 0);
  Phys_mem.zero p f';
  check Alcotest.char "zeroed" '\000' (Bytes.get (Phys_mem.data p f') 0)

let test_pmem_copy_frame () =
  let p = pm () in
  let a = Phys_mem.alloc p and b = Phys_mem.alloc p in
  Phys_mem.fill p a 'q';
  Phys_mem.copy_frame p ~src:a ~dst:b;
  check Alcotest.char "copied" 'q' (Bytes.get (Phys_mem.data p b) 4095)

let test_pmem_free_frame_use_rejected () =
  let p = pm () in
  let f = Phys_mem.alloc p in
  Phys_mem.decref p f;
  Alcotest.check_raises "data on free frame"
    (Invalid_argument "Phys_mem.data: frame is free") (fun () ->
      ignore (Phys_mem.data p f))

(* ------------------------------------------------------------------ *)
(* Tlb                                                                 *)
(* ------------------------------------------------------------------ *)

let tlb () = Tlb.create ~entries:4 (Rng.create 9)

let check_probe msg expected actual =
  let s = function
    | Tlb.Hit -> "hit"
    | Tlb.Hit_readonly -> "hit-ro"
    | Tlb.Miss -> "miss"
  in
  Alcotest.(check string) msg (s expected) (s actual)

let test_tlb_miss_then_hit () =
  let t = tlb () in
  check_probe "cold" Tlb.Miss (Tlb.probe t ~asid:1 ~vpn:10 ~write:false)

let test_tlb_insert_and_hit () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:true;
  check_probe "hit" Tlb.Hit (Tlb.probe t ~asid:1 ~vpn:10 ~write:true)

let test_tlb_asid_isolation () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:true;
  check_probe "other asid misses" Tlb.Miss
    (Tlb.probe t ~asid:2 ~vpn:10 ~write:false)

let test_tlb_readonly_write_faults () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:false;
  check_probe "read ok" Tlb.Hit (Tlb.probe t ~asid:1 ~vpn:10 ~write:false);
  check_probe "write mod-fault" Tlb.Hit_readonly
    (Tlb.probe t ~asid:1 ~vpn:10 ~write:true)

let test_tlb_capacity_eviction () =
  let t = tlb () in
  for vpn = 0 to 5 do
    Tlb.insert t ~asid:1 ~vpn ~writable:false
  done;
  check Alcotest.int "bounded" 4 (Tlb.valid_entries t)

let test_tlb_invalidate () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:true;
  Tlb.invalidate t ~asid:1 ~vpn:10;
  check_probe "gone" Tlb.Miss (Tlb.probe t ~asid:1 ~vpn:10 ~write:false)

let test_tlb_reinsert_updates_permission () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:false;
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:true;
  check Alcotest.int "no duplicate" 1 (Tlb.valid_entries t);
  check_probe "writable now" Tlb.Hit (Tlb.probe t ~asid:1 ~vpn:10 ~write:true)

(* Queued words are opaque to the TLB; these read as Pmap translations
   of frames 5 and 6. *)
let test_tlb_defer_cancel_drain () =
  let t = tlb () in
  Tlb.insert t ~asid:1 ~vpn:10 ~writable:true;
  Tlb.insert t ~asid:1 ~vpn:11 ~writable:false;
  Tlb.defer t ~asid:1 ~vpn:10 ~pte:11;
  Tlb.defer t ~asid:1 ~vpn:11 ~pte:12;
  check Alcotest.int "two queued" 2 (Tlb.pending_count t);
  Alcotest.(check bool) "covered" true (Tlb.pending_covers t ~asid:1 ~vpn:10);
  check Alcotest.int "word recorded" 11 (Tlb.find_pending t ~asid:1 ~vpn:10);
  check Alcotest.int "absent tag reads -1" (-1)
    (Tlb.find_pending t ~asid:2 ~vpn:10);
  Tlb.cancel_pending t ~asid:1 ~vpn:10;
  check Alcotest.int "one left" 1 (Tlb.pending_count t);
  check Alcotest.int "drain counts the queued tag" 1 (Tlb.invalidate_pending t);
  check_probe "drained tag invalidated" Tlb.Miss
    (Tlb.probe t ~asid:1 ~vpn:11 ~write:false);
  check_probe "cancelled tag left live" Tlb.Hit
    (Tlb.probe t ~asid:1 ~vpn:10 ~write:false);
  check Alcotest.int "empty" 0 (Tlb.pending_count t);
  check Alcotest.int "empty drain" 0 (Tlb.invalidate_pending t)

(* Differential test of the deferred-shootdown queue against a Hashtbl
   model. Three asids and 64 vpns give 192 tags, so probe runs collide
   in the open-addressed table; a round has up to 200 steps, 70% of them
   defers, so long rounds queue more than 64 tags and grow the table
   past its first capacity, and the key list past its first 16. Every
   step compares the count, each tag's membership and each recorded
   word (read back as a Pmap translation) with the model, and the tags
   [iter_pending] visits with the model's; each round ends in a drain
   over a TLB holding every tag, which must invalidate exactly the
   queued ones and leave the queue empty. *)
type queue_op =
  | Defer of int * int * int * bool (* asid, vpn, frame, writable *)
  | Cancel of int * int
  | Find of int * int
  | Covers of int * int

let queue_asids = [ 1; 2; 3 ]
let queue_vpns = 64

let show_queue_op = function
  | Defer (a, v, f, w) -> Printf.sprintf "defer(%d,%d,%d,%b)" a v f w
  | Cancel (a, v) -> Printf.sprintf "cancel(%d,%d)" a v
  | Find (a, v) -> Printf.sprintf "find(%d,%d)" a v
  | Covers (a, v) -> Printf.sprintf "covers(%d,%d)" a v

(* A round draws its vpns from all 64 or from the first 4: the narrow
   rounds defer, cancel and defer the same 12 tags again and again, so
   a cancelled tag is queued again while its key is still listed. *)
let gen_queue_rounds =
  let open QCheck.Gen in
  let asid = oneofl queue_asids in
  let op vpn =
    frequency
      [
        ( 14,
          map
            (fun (((a, v), f), w) -> Defer (a, v, f, w))
            (pair (pair (pair asid vpn) (int_bound 4095)) bool) );
        (2, map (fun (a, v) -> Cancel (a, v)) (pair asid vpn));
        (2, map (fun (a, v) -> Find (a, v)) (pair asid vpn));
        (1, map (fun (a, v) -> Covers (a, v)) (pair asid vpn));
      ]
  in
  let round =
    oneofl [ queue_vpns; 4 ] >>= fun width ->
    list_size (int_range 0 200) (op (int_bound (width - 1)))
  in
  list_size (int_range 1 4) round

let arb_queue_rounds =
  QCheck.make gen_queue_rounds
    ~print:
      QCheck.Print.(
        list (fun ops -> String.concat " " (List.map show_queue_op ops)))

let prop_pending_queue rounds =
  let t = Tlb.create ~entries:256 (Rng.create 5) in
  let model = Hashtbl.create 64 in
  let key a v = (a, v) in
  let agree () =
    if Tlb.pending_count t <> Hashtbl.length model then
      QCheck.Test.fail_reportf "count %d, model %d" (Tlb.pending_count t)
        (Hashtbl.length model);
    (* The audit's walk visits each queued tag once, with its word. *)
    let walked = ref [] in
    Tlb.iter_pending t (fun ~asid ~vpn ~pte ->
        walked := (asid, vpn, pte) :: !walked);
    let queued =
      Hashtbl.fold
        (fun (a, v) (f, w) acc ->
          (a, v, Fbufs_vm.Pmap.encode ~frame:f ~writable:w) :: acc)
        model []
    in
    if List.sort compare !walked <> List.sort compare queued then
      QCheck.Test.fail_reportf "iter_pending walked %d tags, model has %d"
        (List.length !walked) (List.length queued);
    List.iter
      (fun a ->
        for v = 0 to queue_vpns - 1 do
          let got = Tlb.find_pending t ~asid:a ~vpn:v in
          match Hashtbl.find_opt model (key a v) with
          | None ->
              if got <> -1 || Tlb.pending_covers t ~asid:a ~vpn:v then
                QCheck.Test.fail_reportf "(%d,%d) queued, model has none" a v
          | Some (f, w) ->
              if
                (not (Tlb.pending_covers t ~asid:a ~vpn:v))
                || got = -1
                || Fbufs_vm.Pmap.frame got <> f
                || Fbufs_vm.Pmap.writable got <> w
              then QCheck.Test.fail_reportf "(%d,%d) lost or changed" a v
        done)
      queue_asids
  in
  let step = function
    | Defer (a, v, f, w) ->
        Tlb.defer t ~asid:a ~vpn:v
          ~pte:(Fbufs_vm.Pmap.encode ~frame:f ~writable:w);
        Hashtbl.replace model (key a v) (f, w)
    | Cancel (a, v) ->
        Tlb.cancel_pending t ~asid:a ~vpn:v;
        Hashtbl.remove model (key a v)
    | Find (a, v) ->
        let want =
          match Hashtbl.find_opt model (key a v) with
          | Some (f, w) -> Fbufs_vm.Pmap.encode ~frame:f ~writable:w
          | None -> -1
        in
        if Tlb.find_pending t ~asid:a ~vpn:v <> want then
          QCheck.Test.fail_reportf "find (%d,%d)" a v
    | Covers (a, v) ->
        if Tlb.pending_covers t ~asid:a ~vpn:v <> Hashtbl.mem model (key a v)
        then QCheck.Test.fail_reportf "covers (%d,%d)" a v
  in
  let drain () =
    List.iter
      (fun a ->
        for v = 0 to queue_vpns - 1 do
          Tlb.insert t ~asid:a ~vpn:v ~writable:false
        done)
      queue_asids;
    let n = Tlb.invalidate_pending t in
    if n <> Hashtbl.length model then
      QCheck.Test.fail_reportf "drain returned %d, model %d" n
        (Hashtbl.length model);
    List.iter
      (fun a ->
        for v = 0 to queue_vpns - 1 do
          let queued = Hashtbl.mem model (key a v) in
          let live = Tlb.probe t ~asid:a ~vpn:v ~write:false <> Tlb.Miss in
          if live = queued then
            QCheck.Test.fail_reportf "(%d,%d): queued %b, live after drain %b"
              a v queued live
        done)
      queue_asids;
    Hashtbl.reset model;
    agree ()
  in
  List.iter
    (fun ops ->
      List.iter
        (fun op ->
          step op;
          agree ())
        ops;
      drain ())
    rounds;
  true

let test_pending_queue_model =
  QCheck.Test.make ~name:"deferred-shootdown queue matches a Hashtbl model"
    ~count:100 arb_queue_rounds prop_pending_queue

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let test_machine_charge_advances_clock_and_busy () =
  let m = Machine.create ~nframes:16 () in
  Machine.charge ~kind:Machine.untyped m 5.0;
  check fl "clock" 5.0 (Machine.now m);
  check fl "busy" 5.0 (Machine.busy_us m);
  let twin = Machine.create ~nframes:16 () in
  Machine.charge ~kind:Machine.untyped twin 5.0;
  Machine.charge ~kind:Machine.untyped twin (float_of_int 3 *. 0.1);
  Machine.charge_n ~kind:Machine.untyped m 3 0.1;
  let exact = Alcotest.float 0.0 in
  check exact "charge_n: clock as charging the product" (Machine.now twin)
    (Machine.now m);
  check exact "charge_n: busy as charging the product" (Machine.busy_us twin)
    (Machine.busy_us m)

let test_machine_load_accounting () =
  let m = Machine.create ~nframes:16 () in
  let cp = Machine.checkpoint m in
  Machine.charge ~kind:Machine.untyped m 30.0;
  Machine.elapse_to ~kind:Machine.untyped m 100.0;
  let load = Machine.load_since m cp in
  check fl "30% busy" 0.3 load

let test_machine_fresh_ids_unique () =
  let m = Machine.create ~nframes:16 () in
  let a = Machine.fresh_id m and b = Machine.fresh_id m in
  Alcotest.(check bool) "distinct" true (a <> b)

(* Pay-for-play, measured in words: an unobserved charge is one pointer
   comparison and a clock advance, and [with_comp] is just the call. *)
let test_machine_unobserved_allocates_nothing () =
  let m = Machine.create ~nframes:16 () in
  let thunk () = () in
  let loop () =
    for _ = 1 to 10_000 do
      Machine.charge ~kind:Machine.untyped m 1.0;
      Machine.charge_n ~kind:Machine.untyped m 3 0.25;
      Machine.with_comp m Fbufs_metrics.Component.Copy thunk
    done
  in
  loop ();
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  check fl "minor words" 0.0 (w1 -. w0)

let test_machine_with_comp_restores_on_raise () =
  let module C = Fbufs_metrics.Component in
  let mx = Fbufs_metrics.Metrics.create () in
  let m = Machine.create ~nframes:16 () in
  Machine.set_obs m (Some { Machine.no_obs with metrics = Some mx });
  (try
     Machine.with_comp m C.Copy (fun () ->
         Machine.charge ~kind:Machine.untyped ~comp:C.Alloc m 1.0;
         raise Exit)
   with Exit -> ());
  Alcotest.(check bool) "context cleared" true (m.Machine.comp_ctx = None);
  Machine.charge ~kind:Machine.untyped ~comp:C.Alloc m 2.0;
  let by = Fbufs_metrics.Ledger.by_component (Fbufs_metrics.Metrics.ledger mx) in
  check fl "inside: the context's component" 1.0 (List.assoc C.Copy by);
  check fl "after: the call site's own tag" 2.0 (List.assoc C.Alloc by)

let traced () = { Machine.no_obs with trace = Some (Fbufs_trace.Trace.create ()) }

let test_machine_with_obs_scope () =
  let o = traced () in
  let inside = Machine.with_obs o (fun () -> Machine.create ~nframes:16 ()) in
  Alcotest.(check bool) "created inside: observed" true (Machine.tracing inside);
  Alcotest.(check bool) "created after: not observed" false
    (Machine.tracing (Machine.create ~nframes:16 ()));
  (try Machine.with_obs o (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "created after a raise: not observed" false
    (Machine.tracing (Machine.create ~nframes:16 ()))

let test_machine_with_obs_nests () =
  let outer = traced () and inner = traced () in
  let obs_of m = Option.get m.Machine.obs in
  Machine.with_obs outer (fun () ->
      let b = Machine.with_obs inner (fun () -> Machine.create ~nframes:16 ()) in
      let c = Machine.create ~nframes:16 () in
      Alcotest.(check bool) "nested scope: inner record" true (obs_of b == inner);
      Alcotest.(check bool) "after it: outer record" true (obs_of c == outer))

(* ------------------------------------------------------------------ *)
(* Des                                                                 *)
(* ------------------------------------------------------------------ *)

let test_des_orders_by_time () =
  let d = Des.create () in
  let log = ref [] in
  Des.schedule d 3.0 (fun () -> log := 3 :: !log);
  Des.schedule d 1.0 (fun () -> log := 1 :: !log);
  Des.schedule d 2.0 (fun () -> log := 2 :: !log);
  Des.run d;
  check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !log)

(* 200 events: more than the heap's initial 64 slots, so the order
   survives its growth. *)
let test_des_fifo_among_equal_times () =
  let d = Des.create () in
  let log = ref [] in
  for i = 1 to 200 do
    Des.schedule d 1.0 (fun () -> log := i :: !log)
  done;
  Des.run d;
  check Alcotest.(list int) "fifo" (List.init 200 succ) (List.rev !log)

let test_des_handler_schedules_more () =
  let d = Des.create () in
  let log = ref [] in
  Des.schedule d 1.0 (fun () ->
      log := 1 :: !log;
      Des.schedule d 2.0 (fun () -> log := 2 :: !log));
  Des.run d;
  check Alcotest.(list int) "chained" [ 1; 2 ] (List.rev !log)

let test_des_rejects_past () =
  let d = Des.create () in
  Des.schedule d 5.0 ignore;
  ignore (Des.step d);
  Alcotest.(check bool) "raises" true
    (try
       Des.schedule d 1.0 ignore;
       false
     with Invalid_argument _ -> true)

let test_des_now_tracks_dispatch () =
  let d = Des.create () in
  Des.schedule d 4.5 ignore;
  ignore (Des.step d);
  check fl "now" 4.5 (Des.now d)

let test_des_heap_many_events () =
  (* Exercise heap growth and ordering with hundreds of events. *)
  let d = Des.create () in
  let rng = Rng.create 11 in
  let last = ref (-1.0) in
  let count = ref 0 in
  for _ = 1 to 500 do
    let t = Rng.float rng 1000.0 in
    Des.schedule d t (fun () ->
        Alcotest.(check bool) "monotone" true (Des.now d >= !last);
        last := Des.now d;
        incr count)
  done;
  Des.run d;
  check Alcotest.int "all ran" 500 !count

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim"
    [
      ( "clock",
        [
          tc "starts at zero" `Quick test_clock_starts_at_zero;
          tc "advance accumulates" `Quick test_clock_advance_accumulates;
          tc "negative rejected" `Quick test_clock_advance_negative_rejected;
          tc "advance_to forward only" `Quick test_clock_advance_to_forward_only;
          tc "reset" `Quick test_clock_reset;
        ] );
      ( "cost-model",
        [
          tc "page words" `Quick test_cost_page_words;
          tc "effective net rate (contended)" `Quick
            test_cost_effective_net_rate;
          tc "DMA-bound without contention" `Quick
            test_cost_dma_bound_without_contention;
          tc "wire-bound with fast DMA" `Quick test_cost_wire_bound_with_fast_dma;
        ] );
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "seeds differ" `Quick test_rng_seeds_differ;
          tc "int bounds" `Quick test_rng_int_bounds;
          tc "split independent" `Quick test_rng_split_independent;
          QCheck_alcotest.to_alcotest prop_rng_float_bounds;
        ] );
      ( "stats",
        [
          tc "counters" `Quick test_stats_counters;
          tc "reset" `Quick test_stats_reset;
          tc "sorted listing" `Quick test_stats_to_list_sorted;
          QCheck_alcotest.to_alcotest test_stats_model;
        ] );
      ( "phys-mem",
        [
          tc "alloc/free roundtrip" `Quick test_pmem_alloc_free_roundtrip;
          tc "refcount sharing" `Quick test_pmem_refcount_sharing;
          tc "exhaustion" `Quick test_pmem_exhaustion;
          tc "data survives" `Quick test_pmem_data_survives;
          tc "no implicit zeroing" `Quick test_pmem_no_implicit_zeroing;
          tc "copy frame" `Quick test_pmem_copy_frame;
          tc "free frame use rejected" `Quick test_pmem_free_frame_use_rejected;
        ] );
      ( "tlb",
        [
          tc "miss then hit" `Quick test_tlb_miss_then_hit;
          tc "insert and hit" `Quick test_tlb_insert_and_hit;
          tc "asid isolation" `Quick test_tlb_asid_isolation;
          tc "readonly write faults" `Quick test_tlb_readonly_write_faults;
          tc "capacity eviction" `Quick test_tlb_capacity_eviction;
          tc "invalidate" `Quick test_tlb_invalidate;
          tc "reinsert updates permission" `Quick
            test_tlb_reinsert_updates_permission;
          tc "defer / cancel / drain" `Quick test_tlb_defer_cancel_drain;
          QCheck_alcotest.to_alcotest test_pending_queue_model;
        ] );
      ( "machine",
        [
          tc "charge advances clock and busy" `Quick
            test_machine_charge_advances_clock_and_busy;
          tc "load accounting" `Quick test_machine_load_accounting;
          tc "fresh ids unique" `Quick test_machine_fresh_ids_unique;
          tc "unobserved charge + with_comp allocate nothing" `Quick
            test_machine_unobserved_allocates_nothing;
          tc "with_comp restores context on raise" `Quick
            test_machine_with_comp_restores_on_raise;
          tc "with_obs scope" `Quick test_machine_with_obs_scope;
          tc "with_obs nests" `Quick test_machine_with_obs_nests;
        ] );
      ( "des",
        [
          tc "orders by time" `Quick test_des_orders_by_time;
          tc "fifo among equal times" `Quick test_des_fifo_among_equal_times;
          tc "handler schedules more" `Quick test_des_handler_schedules_more;
          tc "rejects past" `Quick test_des_rejects_past;
          tc "now tracks dispatch" `Quick test_des_now_tracks_dispatch;
          tc "heap many events" `Quick test_des_heap_many_events;
        ] );
    ]
