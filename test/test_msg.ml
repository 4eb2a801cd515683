(* Tests for the aggregate object (x-kernel message DAG) and its integrated
   (fbuf-resident) representation. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Integrated = Fbufs_msg.Integrated
module Testbed = Fbufs_harness.Testbed

let check = Alcotest.check

let setup () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  (tb, app, recv, alloc)

let msg_of_string alloc app s =
  let ps = 4096 in
  let npages = max 1 ((String.length s + ps - 1) / ps) in
  let fb = Allocator.alloc alloc ~npages in
  Fbuf_api.write fb ~as_:app ~off:0 s;
  Msg.of_fbuf fb ~off:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  check Alcotest.int "length" 0 (Msg.length Msg.empty);
  Alcotest.(check bool) "is_empty" true (Msg.is_empty Msg.empty);
  check Alcotest.int "no leaves" 0 (List.length (Msg.leaves Msg.empty))

let test_of_fbuf_window () =
  let _, app, _, alloc = setup () in
  let fb = Allocator.alloc alloc ~npages:2 in
  Fbuf_api.write fb ~as_:app ~off:100 "window";
  let m = Msg.of_fbuf fb ~off:100 ~len:6 in
  check Alcotest.int "length" 6 (Msg.length m);
  check Alcotest.string "contents" "window" (Msg.to_string m ~as_:app)

let test_of_fbuf_bounds_checked () =
  let _, _, _, alloc = setup () in
  let fb = Allocator.alloc alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (try
       let (_ : Msg.t) = Msg.of_fbuf fb ~off:4000 ~len:200 in
       false
     with Invalid_argument _ -> true)

let test_join_concatenates () =
  let _, app, _, alloc = setup () in
  let a = msg_of_string alloc app "hello " in
  let b = msg_of_string alloc app "world" in
  let m = Msg.join a b in
  check Alcotest.int "length" 11 (Msg.length m);
  check Alcotest.string "contents" "hello world" (Msg.to_string m ~as_:app)

let test_join_empty_identity () =
  let _, app, _, alloc = setup () in
  let a = msg_of_string alloc app "x" in
  check Alcotest.string "left" "x" (Msg.to_string (Msg.join Msg.empty a) ~as_:app);
  check Alcotest.string "right" "x" (Msg.to_string (Msg.join a Msg.empty) ~as_:app)

let test_split_shares_fbufs () =
  let _, app, _, alloc = setup () in
  let m = msg_of_string alloc app "abcdefgh" in
  let a, b = Msg.split m 3 in
  check Alcotest.string "head" "abc" (Msg.to_string a ~as_:app);
  check Alcotest.string "tail" "defgh" (Msg.to_string b ~as_:app);
  (* No copying: same underlying buffer. *)
  check Alcotest.int "one fbuf" 1
    (List.length (Msg.fbufs (Msg.join a b)))

let test_split_bounds () =
  let _, app, _, alloc = setup () in
  let m = msg_of_string alloc app "abc" in
  Alcotest.(check bool) "negative raises" true
    (try ignore (Msg.split m (-1)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "too large raises" true
    (try ignore (Msg.split m 4); false with Invalid_argument _ -> true);
  let a, b = Msg.split m 0 in
  check Alcotest.int "zero split" 0 (Msg.length a);
  check Alcotest.int "zero split rest" 3 (Msg.length b)

let test_clip_and_truncate () =
  let _, app, _, alloc = setup () in
  let m = msg_of_string alloc app "headerpayload" in
  check Alcotest.string "clip" "payload" (Msg.to_string (Msg.clip m 6) ~as_:app);
  check Alcotest.string "truncate" "header"
    (Msg.to_string (Msg.truncate m 6) ~as_:app)

let test_sub_bytes () =
  let _, app, _, alloc = setup () in
  let m =
    Msg.join (msg_of_string alloc app "abcd") (msg_of_string alloc app "efgh")
  in
  check Alcotest.string "across leaves" "cdef"
    (Bytes.to_string (Msg.sub_bytes m ~as_:app ~off:2 ~len:4))

let test_fbufs_dedup () =
  let _, app, _, alloc = setup () in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 "xy";
  let a = Msg.of_fbuf fb ~off:0 ~len:1 in
  let b = Msg.of_fbuf fb ~off:1 ~len:1 in
  check Alcotest.int "one distinct fbuf" 1
    (List.length (Msg.fbufs (Msg.join a b)));
  (* Leaves A, B, A, C: A's window split around B, then C. *)
  let fa = Allocator.alloc alloc ~npages:1 in
  let fb = Allocator.alloc alloc ~npages:1 in
  let fc = Allocator.alloc alloc ~npages:1 in
  let a1, a2 = Msg.split (Msg.of_fbuf fa ~off:0 ~len:64) 32 in
  let m =
    Msg.join
      (Msg.join a1 (Msg.of_fbuf fb ~off:0 ~len:16))
      (Msg.join a2 (Msg.of_fbuf fc ~off:0 ~len:16))
  in
  let ids = List.map (fun (f : Fbuf.t) -> f.Fbuf.id) in
  check
    Alcotest.(list int)
    "leaves repeat and interleave"
    (ids [ fa; fb; fa; fc ])
    (ids (List.map (fun (l : Msg.leaf) -> l.Msg.fbuf) (Msg.leaves m)));
  check Alcotest.(list int) "first occurrences" (ids [ fa; fb; fc ])
    (ids (Msg.fbufs m));
  check Alcotest.(list int) "the walk visits exactly fbufs's list"
    (ids (Msg.fbufs m))
    (ids (List.rev (Msg.fold_fbufs List.cons m [])));
  let count _ n = n + 1 in
  let w0 = Gc.minor_words () in
  let n = Msg.fold_fbufs count m 0 in
  let words = Float.to_int (Gc.minor_words () -. w0) in
  check Alcotest.int "three visited" 3 n;
  check Alcotest.int "the walk allocates nothing" 0 words;
  Alcotest.check_raises "a walk inside the callback is refused"
    (Invalid_argument "Msg.fold_fbufs: a walk inside the callback")
    (fun () -> Msg.fold_fbufs (fun _ () -> ignore (Msg.fbufs m)) m ())

let test_checksum_matches_flat () =
  let _, app, _, alloc = setup () in
  let whole = msg_of_string alloc app "the quick brown fox jumps" in
  (* Split at an odd offset: the cross-leaf byte pairing must still match
     the flat computation. *)
  let a, b = Msg.split whole 7 in
  let rejoined = Msg.join a b in
  check Alcotest.int "same checksum"
    (Msg.checksum whole ~as_:app)
    (Msg.checksum rejoined ~as_:app)

let test_touch_read_requires_access () =
  let _, app, recv, alloc = setup () in
  let m = msg_of_string alloc app "private" in
  (* recv never received the message: its touch must hit the dead page
     (reads as zeros), not the producer's data. *)
  Msg.touch_read m ~as_:recv;
  Alcotest.(check bool) "dead page served" true
    (Stats.get app.Pd.m.Machine.stats "region.dead_page_read" > 0)

let test_iter_units_exact () =
  let _, app, _, alloc = setup () in
  let m = msg_of_string alloc app "aaaabbbbccccdd" in
  let units = ref [] in
  Msg.iter_units m ~as_:app ~unit_size:4 (fun b ->
      units := Bytes.to_string b :: !units);
  check
    Alcotest.(list string)
    "units" [ "aaaa"; "bbbb"; "cccc"; "dd" ] (List.rev !units)

let test_iter_units_gather_only_on_boundary () =
  let tb, app, _, alloc = setup () in
  let m =
    Msg.join (msg_of_string alloc app "aaaa") (msg_of_string alloc app "bbbb")
  in
  let gathers0 = Stats.get tb.Testbed.m.Machine.stats "msg.unit_gather" in
  Msg.iter_units m ~as_:app ~unit_size:4 (fun _ -> ());
  check Alcotest.int "aligned units need no gather" gathers0
    (Stats.get tb.Testbed.m.Machine.stats "msg.unit_gather");
  Msg.iter_units m ~as_:app ~unit_size:3 (fun _ -> ());
  Alcotest.(check bool) "straddling unit gathers" true
    (Stats.get tb.Testbed.m.Machine.stats "msg.unit_gather" > gathers0)

(* ------------------------------------------------------------------ *)
(* Integrated representation                                           *)
(* ------------------------------------------------------------------ *)

let integrated_setup () =
  let tb, app, recv, alloc = setup () in
  let meta_alloc =
    Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
  in
  (tb, app, recv, alloc, meta_alloc)

let transfer_all msg ~src ~dst =
  List.iter (fun fb -> Transfer.send fb ~src ~dst) (Msg.fbufs msg)

let test_integrated_roundtrip () =
  let tb, app, recv, alloc, meta_alloc = integrated_setup () in
  let m =
    Msg.join
      (msg_of_string alloc app "first|")
      (Msg.join (msg_of_string alloc app "second|") (msg_of_string alloc app "third"))
  in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let root = Integrated.serialize m ~meta ~as_:app in
  transfer_all m ~src:app ~dst:recv;
  Transfer.send meta ~src:app ~dst:recv;
  let got = Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:root in
  check Alcotest.string "same bytes" "first|second|third"
    (Msg.to_string got ~as_:recv)

let test_integrated_node_count () =
  let _, app, _, alloc = setup () in
  let one = msg_of_string alloc app "x" in
  check Alcotest.int "single leaf" 1 (Integrated.node_count one);
  let three =
    Msg.join one (Msg.join (msg_of_string alloc app "y") (msg_of_string alloc app "z"))
  in
  check Alcotest.int "3 leaves -> 5 nodes" 5 (Integrated.node_count three)

let test_integrated_meta_too_small () =
  let _, app, _, alloc, meta_alloc =
    match integrated_setup () with a, b, c, d, e -> (a, b, c, d, e)
  in
  let parts = List.init 300 (fun _ -> msg_of_string alloc app "a") in
  let m = List.fold_left Msg.join Msg.empty parts in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Integrated.serialize m ~meta ~as_:app);
       false
     with Invalid_argument _ -> true)

let test_integrated_unmapped_root_is_empty () =
  let tb, _, recv, _, _ = integrated_setup () in
  let config = Region.config tb.Testbed.region in
  let root = (config.Region.base_vpn + 500) * 4096 in
  let got = Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:root in
  check Alcotest.int "absence of data" 0 (Msg.length got)

let test_integrated_root_outside_region_is_empty () =
  let tb, _, recv, _, _ = integrated_setup () in
  let got =
    Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:0x1000
  in
  check Alcotest.int "empty" 0 (Msg.length got);
  Alcotest.(check bool) "counted" true
    (Stats.get tb.Testbed.m.Machine.stats "integrated.bad_node" > 0)

let test_integrated_cycle_detected () =
  (* A malicious originator writes a cyclic DAG; the receiver must
     terminate and treat it as missing data. *)
  let tb, app, recv, _, meta_alloc = integrated_setup () in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let base = Fbuf.vaddr meta in
  (* node0: cat(node0, node0) — self cycle. *)
  Access.write_word app ~vaddr:base 2;
  Access.write_word app ~vaddr:(base + 4) base;
  Access.write_word app ~vaddr:(base + 8) base;
  Transfer.send meta ~src:app ~dst:recv;
  let got = Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:base in
  check Alcotest.int "cycle yields empty" 0 (Msg.length got);
  Alcotest.(check bool) "cycle counted" true
    (Stats.get tb.Testbed.m.Machine.stats "integrated.cycle" > 0)

let test_integrated_bad_data_pointer () =
  let tb, app, recv, _, meta_alloc = integrated_setup () in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let base = Fbuf.vaddr meta in
  (* leaf pointing outside the region *)
  Access.write_word app ~vaddr:base 1;
  Access.write_word app ~vaddr:(base + 4) 0x2000;
  Access.write_word app ~vaddr:(base + 8) 64;
  Transfer.send meta ~src:app ~dst:recv;
  let got = Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:base in
  check Alcotest.int "empty" 0 (Msg.length got);
  Alcotest.(check bool) "counted" true
    (Stats.get tb.Testbed.m.Machine.stats "integrated.bad_data_ref" > 0)

let test_integrated_oversized_leaf_rejected () =
  let tb, app, recv, alloc, meta_alloc = integrated_setup () in
  let fb = Allocator.alloc alloc ~npages:1 in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let base = Fbuf.vaddr meta in
  Access.write_word app ~vaddr:base 1;
  Access.write_word app ~vaddr:(base + 4) (Fbuf.vaddr fb);
  Access.write_word app ~vaddr:(base + 8) (Fbuf.size fb * 10);
  Transfer.send meta ~src:app ~dst:recv;
  Transfer.send fb ~src:app ~dst:recv;
  let got = Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:base in
  check Alcotest.int "clamped to empty" 0 (Msg.length got)

let test_integrated_reachable_fbufs () =
  let tb, app, _, alloc, meta_alloc = integrated_setup () in
  let m =
    Msg.join (msg_of_string alloc app "aa") (msg_of_string alloc app "bb")
  in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let root = Integrated.serialize m ~meta ~as_:app in
  let reachable =
    Integrated.reachable_fbufs tb.Testbed.region ~as_:app ~root_vaddr:root
  in
  (* meta + two data fbufs *)
  check Alcotest.int "three buffers" 3 (List.length reachable);
  Alcotest.(check bool) "meta included" true
    (List.exists (fun (f : Fbuf.t) -> f.Fbuf.id = meta.Fbuf.id) reachable)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random message trees built over small string leaves. *)
let msg_gen alloc app =
  let open QCheck.Gen in
  let leaf =
    map (fun s -> `S s) (string_size ~gen:printable (1 -- 40))
  in
  let rec tree n =
    if n <= 1 then leaf
    else
      frequency
        [ (1, leaf); (3, map2 (fun a b -> `J (a, b)) (tree (n / 2)) (tree (n / 2))) ]
  in
  map
    (fun t ->
      let rec build = function
        | `S s -> (msg_of_string alloc app s, s)
        | `J (a, b) ->
            let ma, sa = build a and mb, sb = build b in
            (Msg.join ma mb, sa ^ sb)
      in
      build t)
    (tree 8)

let with_setup f =
  let tb, app, recv, alloc = setup () in
  f tb app recv alloc

let prop_split_preserves_bytes =
  QCheck.Test.make ~name:"split k ++ rest = original" ~count:100
    QCheck.(pair (int_bound 500) (make (QCheck.Gen.return ())))
    (fun (k, ()) ->
      with_setup (fun _ app _ alloc ->
          let m, s = QCheck.Gen.generate1 (msg_gen alloc app) in
          let k = k mod (String.length s + 1) in
          let a, b = Msg.split m k in
          Msg.to_string a ~as_:app ^ Msg.to_string b ~as_:app = s
          && Msg.length a = k
          && Msg.length b = String.length s - k))

let prop_join_lengths =
  QCheck.Test.make ~name:"length (join a b) = length a + length b" ~count:100
    QCheck.unit
    (fun () ->
      with_setup (fun _ app _ alloc ->
          let a, sa = QCheck.Gen.generate1 (msg_gen alloc app) in
          let b, sb = QCheck.Gen.generate1 (msg_gen alloc app) in
          Msg.length (Msg.join a b) = String.length sa + String.length sb))

let prop_integrated_roundtrip =
  QCheck.Test.make ~name:"integrated serialize/deserialize roundtrip"
    ~count:60 QCheck.unit
    (fun () ->
      with_setup (fun tb app recv alloc ->
          let meta_alloc =
            Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
          in
          let m, s = QCheck.Gen.generate1 (msg_gen alloc app) in
          let npages =
            max 1 ((Integrated.node_count m * Integrated.node_size / 4096) + 1)
          in
          let meta = Allocator.alloc meta_alloc ~npages in
          let root = Integrated.serialize m ~meta ~as_:app in
          transfer_all m ~src:app ~dst:recv;
          Transfer.send meta ~src:app ~dst:recv;
          let got =
            Integrated.deserialize tb.Testbed.region ~as_:recv ~root_vaddr:root
          in
          Msg.to_string got ~as_:recv = s))

let prop_checksum_split_invariant =
  QCheck.Test.make ~name:"checksum invariant under split/join" ~count:60
    QCheck.(int_bound 1000)
    (fun k ->
      with_setup (fun _ app _ alloc ->
          let m, s = QCheck.Gen.generate1 (msg_gen alloc app) in
          QCheck.assume (String.length s > 0);
          let k = k mod String.length s in
          let a, b = Msg.split m k in
          Msg.checksum (Msg.join a b) ~as_:app = Msg.checksum m ~as_:app))

(* ------------------------------------------------------------------ *)
(* Cuts and range reads against a model of the leaf windows           *)
(* ------------------------------------------------------------------ *)

(* A message DAG over windows of three 2-page fbufs: windows at any
   offset (odd ones included), joins, and either side of a split. *)
type shape =
  | W of int * int * int (* fbuf, offset, length (clamped when built) *)
  | J of shape * shape
  | L of shape * int (* fst (split m (k mod (length m + 1))) *)
  | R of shape * int (* snd (split ...) *)

let rec show_shape = function
  | W (i, off, len) -> Printf.sprintf "W(%d,%d,%d)" i off len
  | J (a, b) -> Printf.sprintf "J(%s,%s)" (show_shape a) (show_shape b)
  | L (a, k) -> Printf.sprintf "L(%s,%d)" (show_shape a) k
  | R (a, k) -> Printf.sprintf "R(%s,%d)" (show_shape a) k

let fbuf_bytes = 8192

let shape_gen =
  let open QCheck.Gen in
  let window =
    map3
      (fun i off len -> W (i, off, len))
      (int_bound 2) (int_bound (fbuf_bytes - 1)) (int_range 1 fbuf_bytes)
  in
  sized_size (int_bound 12)
    (fix (fun self n ->
         if n = 0 then window
         else
           frequency
             [
               (1, window);
               (3, map2 (fun a b -> J (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a k -> L (a, k)) (self (n - 1)) nat);
               (1, map2 (fun a k -> R (a, k)) (self (n - 1)) nat);
             ]))

(* A fresh world holding three patterned fbufs: two calls build
   identical worlds, so the same reads cost the same in each. *)
let dag_world () =
  let tb, app, _, alloc = setup () in
  let fbs =
    Array.init 3 (fun i ->
        let fb = Allocator.alloc alloc ~npages:2 in
        Fbuf_api.write fb ~as_:app ~off:0
          (String.init fbuf_bytes (fun j ->
               Char.chr (((j * 7) + (i * 31)) land 0xFF)));
        fb)
  in
  (tb, app, fbs)

let rec build fbs = function
  | W (i, off, len) ->
      Msg.of_fbuf fbs.(i) ~off ~len:(max 1 (min len (fbuf_bytes - off)))
  | J (a, b) -> Msg.join (build fbs a) (build fbs b)
  | L (a, k) ->
      let m = build fbs a in
      fst (Msg.split m (k mod (Msg.length m + 1)))
  | R (a, k) ->
      let m = build fbs a in
      snd (Msg.split m (k mod (Msg.length m + 1)))

(* The model of a cut: the windows of [leaves m] that overlap [lo, hi),
   trimmed to it, found from the leaves' offsets alone. *)
let model_windows m lo hi =
  let rec go base = function
    | [] -> []
    | (l : Msg.leaf) :: rest ->
        let s = max lo base and e = min hi (base + l.Msg.len) in
        let tl = go (base + l.Msg.len) rest in
        if s < e then (l.Msg.fbuf, l.Msg.off + (s - base), e - s) :: tl
        else tl
  in
  go 0 (Msg.leaves m)

let ids = List.map (fun ((fb : Fbuf.t), off, len) -> (fb.Fbuf.id, off, len))

let windows m =
  List.map
    (fun (l : Msg.leaf) -> (l.Msg.fbuf.Fbuf.id, l.Msg.off, l.Msg.len))
    (Msg.leaves m)

let shape_arb = QCheck.make ~print:show_shape shape_gen

let prop_cuts_match_model =
  QCheck.Test.make ~name:"clip/truncate/split keep the windows on their side"
    ~count:300
    QCheck.(pair shape_arb small_nat)
    (fun (shape, k) ->
      let _, _, fbs = dag_world () in
      let m = build fbs shape in
      let n = Msg.length m in
      let k = k mod (n + 1) in
      (* A cut rebuilds only the path to byte [k]: never deeper. *)
      let cut part lo hi =
        windows part = ids (model_windows m lo hi)
        && Msg.length part = hi - lo
        && Msg.depth part <= Msg.depth m
      in
      let head, rest = Msg.split m k in
      cut (Msg.truncate m k) 0 k
      && cut (Msg.clip m k) k n
      && cut head 0 k && cut rest k n)

(* The reference read: the model's windows, each read with
   [Access.read_bytes], concatenated. *)
let reference_sub_bytes m ~as_ ~off ~len =
  Bytes.concat Bytes.empty
    (List.map
       (fun ((fb : Fbuf.t), o, l) ->
         Access.read_bytes as_ ~vaddr:(Fbuf.vaddr fb + o) ~len:l)
       (model_windows m off (off + len)))

let observe (tb : Testbed.t) =
  let m = tb.Testbed.m in
  ( Machine.now m,
    Stats.get m.Machine.stats "mem.bytes_read",
    Stats.get m.Machine.stats "tlb.miss" )

let prop_sub_bytes_matches_reference =
  QCheck.Test.make ~name:"sub_bytes reads the model's windows"
    ~count:200
    QCheck.(triple shape_arb small_nat small_nat)
    (fun (shape, off, len) ->
      let tb_ref, app_ref, fbs_ref = dag_world () in
      let tb, app, fbs = dag_world () in
      let m_ref = build fbs_ref shape and m = build fbs shape in
      let n = Msg.length m in
      let off = off * 37 mod (n + 1) in
      let len = len * 53 mod (n - off + 1) in
      let same_start = observe tb_ref = observe tb in
      let want = reference_sub_bytes m_ref ~as_:app_ref ~off ~len in
      let got = Msg.sub_bytes m ~as_:app ~off ~len in
      same_start && Bytes.equal want got && observe tb_ref = observe tb)

let prop_mem_fbuf_matches_fbufs =
  QCheck.Test.make ~name:"mem_fbuf agrees with a search of fbufs" ~count:200
    shape_arb
    (fun shape ->
      let _, _, fbs = dag_world () in
      let m = build fbs shape in
      let listed = Msg.fbufs m in
      Array.for_all
        (fun (fb : Fbuf.t) ->
          Msg.mem_fbuf fb m
          = List.exists (fun (f : Fbuf.t) -> f.Fbuf.id = fb.Fbuf.id) listed)
        fbs)

let test_range_checks () =
  let tb, app, _, alloc = setup () in
  let m =
    Msg.join (msg_of_string alloc app "abcd") (msg_of_string alloc app "efgh")
  in
  let raises name f =
    let before = observe tb in
    Alcotest.(check bool)
      (name ^ " raises Invalid_argument")
      true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true);
    Alcotest.(check bool) (name ^ " reads nothing") true (observe tb = before)
  in
  raises "sub_bytes off -1" (fun () ->
      Msg.sub_bytes m ~as_:app ~off:(-1) ~len:1);
  raises "sub_bytes len -1" (fun () ->
      Msg.sub_bytes m ~as_:app ~off:0 ~len:(-1));
  raises "sub_bytes past the end" (fun () ->
      Msg.sub_bytes m ~as_:app ~off:5 ~len:4);
  raises "sub_bytes off past the end" (fun () ->
      Msg.sub_bytes m ~as_:app ~off:9 ~len:0);
  raises "clip -1" (fun () -> Msg.clip m (-1));
  raises "clip past the end" (fun () -> Msg.clip m 9);
  raises "truncate -1" (fun () -> Msg.truncate m (-1));
  raises "truncate past the end" (fun () -> Msg.truncate m 9);
  check Alcotest.int "an empty range at the end is fine" 0
    (Bytes.length (Msg.sub_bytes m ~as_:app ~off:8 ~len:0));
  check Alcotest.string "the whole range" "abcdefgh"
    (Bytes.to_string (Msg.sub_bytes m ~as_:app ~off:0 ~len:8))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "msg"
    [
      ( "structure",
        [
          tc "empty" `Quick test_empty;
          tc "of_fbuf window" `Quick test_of_fbuf_window;
          tc "of_fbuf bounds" `Quick test_of_fbuf_bounds_checked;
          tc "join concatenates" `Quick test_join_concatenates;
          tc "join empty identity" `Quick test_join_empty_identity;
          tc "split shares fbufs" `Quick test_split_shares_fbufs;
          tc "split bounds" `Quick test_split_bounds;
          tc "clip and truncate" `Quick test_clip_and_truncate;
          tc "sub_bytes across leaves" `Quick test_sub_bytes;
          tc "fbufs dedup" `Quick test_fbufs_dedup;
          tc "checksum matches flat" `Quick test_checksum_matches_flat;
          tc "touch without access hits dead page" `Quick
            test_touch_read_requires_access;
          tc "iter_units exact" `Quick test_iter_units_exact;
          tc "iter_units gathers only on boundary" `Quick
            test_iter_units_gather_only_on_boundary;
          tc "range checks" `Quick test_range_checks;
        ] );
      ( "integrated",
        [
          tc "roundtrip" `Quick test_integrated_roundtrip;
          tc "node count" `Quick test_integrated_node_count;
          tc "meta too small" `Quick test_integrated_meta_too_small;
          tc "unmapped root reads empty" `Quick
            test_integrated_unmapped_root_is_empty;
          tc "root outside region" `Quick
            test_integrated_root_outside_region_is_empty;
          tc "cycle detected" `Quick test_integrated_cycle_detected;
          tc "bad data pointer" `Quick test_integrated_bad_data_pointer;
          tc "oversized leaf rejected" `Quick
            test_integrated_oversized_leaf_rejected;
          tc "reachable fbufs" `Quick test_integrated_reachable_fbufs;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_split_preserves_bytes;
          QCheck_alcotest.to_alcotest prop_join_lengths;
          QCheck_alcotest.to_alcotest prop_integrated_roundtrip;
          QCheck_alcotest.to_alcotest prop_checksum_split_invariant;
          QCheck_alcotest.to_alcotest prop_cuts_match_model;
          QCheck_alcotest.to_alcotest prop_sub_bytes_matches_reference;
          QCheck_alcotest.to_alcotest prop_mem_fbuf_matches_fbufs;
        ] );
    ]
