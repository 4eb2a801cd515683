(* rpc-cached / rpc-uncached: one synchronous Ipc.call round trip per op,
   app -> recv on one host, Rebuild mode over Mach-style RPC — the
   Table 1 roundtrip with seeded message sizes and a verified payload.

   The sender writes a seeded word into every page, the receiver reads
   each one back and checks it before releasing its references through
   the deferred-deallocation path; the sender then frees its own. *)

open Harness
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Testbed = Fbufs_harness.Testbed

(* Pages per message and how many of every 100 messages have that size.
   p50 falls inside the 4-page class and p90 inside the 32-page class,
   never on a class boundary; the 32- and 64-page messages overflow the
   64-entry TLB. *)
let sizes = [ (1, 25); (2, 20); (4, 15); (8, 15); (16, 12); (32, 8); (64, 5) ]

type world = {
  mutable msg : int;  (** messages sent so far, the tag's message index *)
  mutable npages : int;  (** size of the message in flight *)
  mutable base : int;  (** its virtual address *)
}

let make variant ctx (tr : Span.t) =
  let tb = Testbed.create () in
  let m = tb.Testbed.m in
  let ps = Testbed.page_size tb in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
  let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
  let deck = Deck.create (Gen.create ~seed:ctx.seed ~stream:1) sizes in
  let w = { msg = 0; npages = 0; base = 0 } in
  let handler received =
    Span.enter tr Span.vm_read;
    for p = 0 to w.npages - 1 do
      let got = Fbufs_vm.Access.read_word recv ~vaddr:(w.base + (p * ps)) in
      if got <> tag ~seed:ctx.seed ~msg:w.msg ~page:p lxor ctx.plant then
        error ctx (Printf.sprintf "message %d page %d: wrong word" w.msg p)
    done;
    Span.leave tr;
    Span.enter tr Span.ipc_free_deferred;
    Ipc.free_deferred conn received;
    Span.leave tr
  in
  let step _ =
    let npages = Deck.next deck in
    Span.enter tr Span.core_alloc;
    let fb = Allocator.alloc alloc ~npages in
    Span.leave tr;
    let base = Fbuf.vaddr fb in
    w.npages <- npages;
    w.base <- base;
    Span.enter tr Span.vm_write;
    for p = 0 to npages - 1 do
      Fbufs_vm.Access.write_word app ~vaddr:(base + (p * ps))
        (tag ~seed:ctx.seed ~msg:w.msg ~page:p)
    done;
    Span.leave tr;
    let msg = Msg.of_fbuf fb ~off:0 ~len:(npages * ps) in
    Span.enter tr Span.ipc_call;
    Ipc.call conn msg ~handler;
    Span.leave tr;
    Span.enter tr Span.core_free;
    Msg.free_all msg ~dom:app;
    Span.leave tr;
    w.msg <- w.msg + 1
  in
  let finish () =
    if Allocator.live_fbufs alloc <> 0 then
      error ctx
        (Printf.sprintf "%d fbufs still live after the last round trip"
           (Allocator.live_fbufs alloc))
  in
  let counters () =
    let s name = (name, stat [| m |] name) in
    [
      s "tlb.miss"; s "pmap.enter"; s "pmap.remove"; s "pmap.protect";
      s "tlb.shootdown"; s "vm.fault"; s "fbuf.alloc_cached_hit";
      s "fbuf.alloc_fresh";
    ]
  in
  { step; finish; counters; machines = [| m |]; child_gc = None }

(* The model's error against the paper's Table 1 row for this variant,
   from a fresh Table 1 run (seed-independent). *)
let paper_err_pct row =
  match
    List.find_opt
      (fun r -> r.Fbufs_harness.Exp_table1.mechanism = row)
      (Fbufs_harness.Exp_table1.run ())
  with
  | Some { per_page_us; paper_us = Some paper; _ } ->
      Some (100.0 *. Float.abs (per_page_us -. paper) /. paper)
  | Some _ | None -> None

let cached =
  {
    name = "rpc-cached";
    why =
      "the fast path: allocator cache hit, IPC, TLB refill and charge \
       overhead, no VM map/unmap after warm-up";
    warmup = 2000;
    det_ops = 200_000;
    paper_row = Some "fbufs, cached/volatile";
    make = make Fbuf.cached_volatile;
  }

let uncached =
  {
    name = "rpc-uncached";
    why =
      "same calls with uncached fbufs: every transfer maps, unmaps, shoots \
       down and takes fresh region space";
    warmup = 2000;
    det_ops = 100_000;
    paper_row = Some "fbufs, volatile";
    make = make Fbuf.volatile_only;
  }
