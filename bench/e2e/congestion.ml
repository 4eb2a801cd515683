(* congestion: twelve senders — 8 bulk, 3 latency, 1 control — share one
   small host and converge on a sink domain under the FB-style dynamic
   buffer-sharing policy (alpha 0.5). One op is one send attempt by a
   seeded sender: allocate, write, Transfer.send, secure, read back. The
   policy may refuse the allocation; that is a correct outcome, counted
   apart from errors. Each sender keeps its delivered buffers in flight
   until it has a seeded window of them, then the sink and the sender
   free them; a pageout daemon ordered by the policy runs every 64
   attempts. *)

open Harness
open Fbufs_sim
open Fbufs
module Policy = Fbufs_policy.Policy
module Testbed = Fbufs_harness.Testbed

(* Physical frames of the shared host, and the daemon's low-water mark at
   a quarter of them: about 11% of attempts are refused at every seed.
   The outcome is sharply bimodal in both — a few frames less and the
   bulk class starves outright, a few more and nothing is refused. *)
let nframes = 304
let tick_every = 64
let max_window = 8

exception Refused

type endpoint = {
  alloc : Allocator.t;
  sender : Fbufs_vm.Pd.t;
  npages : int;
  mutable live : Fbuf.t array;  (** in flight; sized on first use *)
  mutable nlive : int;
  mutable window : int;
}

let make ctx (tr : Span.t) =
  let tb = Testbed.create ~name:"congestion" ~nframes () in
  let m = tb.Testbed.m in
  let ps = Testbed.page_size tb in
  let pol =
    Policy.create tb.Testbed.region (Policy.Fb_dynamic { alpha = 0.5 })
  in
  let daemon =
    Pageout.create tb.Testbed.region
      ~low_water_frames:(nframes / 4)
      ~order:(Policy.pageout_order pol) ()
  in
  let sink = Testbed.user_domain tb "sink" in
  let gen = Gen.create ~seed:ctx.seed ~stream:3 in
  let windows = Deck.create gen (List.init max_window (fun i -> (i + 1, 1))) in
  let endpoint i klass npages =
    let sender = Testbed.user_domain tb (Printf.sprintf "sender%02d" i) in
    let alloc =
      Testbed.allocator tb ~domains:[ sender; sink ] Fbuf.cached_volatile
    in
    Policy.register pol alloc ~klass;
    Pageout.register daemon alloc;
    {
      alloc;
      sender;
      npages;
      live = [||];
      nlive = 0;
      window = Deck.next windows;
    }
  in
  let eps =
    Array.init 12 (fun i ->
        if i < 8 then endpoint i Policy.Bulk 4
        else if i < 11 then endpoint i Policy.Latency 2
        else endpoint i Policy.Control 1)
  in
  let senders = Deck.create gen (List.init 12 (fun i -> (i, 1))) in
  let attempts = ref 0 and delivered = ref 0 and refused = ref 0 in
  let msg = ref 0 in
  let reclaimed = ref 0 and ticks = ref 0 in
  let drain ep =
    Span.enter tr Span.core_free;
    for k = 0 to ep.nlive - 1 do
      Transfer.free ep.live.(k) ~dom:sink;
      Transfer.free ep.live.(k) ~dom:ep.sender
    done;
    Span.leave tr;
    ep.nlive <- 0;
    ep.window <- Deck.next windows
  in
  let deliver ep fb =
    let base = Fbuf.vaddr fb in
    let id = !msg in
    msg := id + 1;
    Span.enter tr Span.vm_write;
    for p = 0 to ep.npages - 1 do
      Fbufs_vm.Access.write_word ep.sender ~vaddr:(base + (p * ps))
        (tag ~seed:ctx.seed ~msg:id ~page:p)
    done;
    Span.leave tr;
    Span.enter tr Span.core_send;
    Transfer.send fb ~src:ep.sender ~dst:sink;
    Span.leave tr;
    Span.enter tr Span.core_secure;
    Transfer.secure fb;
    Span.leave tr;
    Span.enter tr Span.vm_read;
    for p = 0 to ep.npages - 1 do
      let got = Fbufs_vm.Access.read_word sink ~vaddr:(base + (p * ps)) in
      if got <> tag ~seed:ctx.seed ~msg:id ~page:p lxor ctx.plant then
        error ctx (Printf.sprintf "message %d page %d: wrong word" id p)
    done;
    Span.leave tr;
    incr delivered;
    if Array.length ep.live = 0 then ep.live <- Array.make max_window fb;
    ep.live.(ep.nlive) <- fb;
    ep.nlive <- ep.nlive + 1;
    if ep.nlive >= ep.window then drain ep
  in
  let step _ =
    let ep = eps.(Deck.next senders) in
    incr attempts;
    Span.enter tr Span.core_alloc;
    (* The kernel's frame reservation refuses an allocation that would
       need fresh frames when none are free, as in the policy scenarios. *)
    (match
       if
         Allocator.needs_frames ep.alloc ~npages:ep.npages
         && Phys_mem.free_frames m.Machine.pmem < ep.npages
       then raise_notrace Refused
       else Allocator.alloc ep.alloc ~npages:ep.npages
     with
    | fb ->
        Span.leave tr;
        deliver ep fb
    | exception (Refused | Policy.Dropped _) ->
        Span.leave tr;
        incr refused);
    if !attempts mod tick_every = 0 then begin
      Span.enter tr Span.core_pageout;
      reclaimed := !reclaimed + Pageout.balance daemon;
      incr ticks;
      Span.leave tr
    end
  in
  let finish () =
    Array.iter (fun ep -> if ep.nlive > 0 then drain ep) eps;
    if !delivered + !refused <> !attempts then
      error ctx
        (Printf.sprintf "%d attempts: %d delivered, %d refused" !attempts
           !delivered !refused);
    Array.iter
      (fun ep ->
        if Allocator.live_fbufs ep.alloc <> 0 then
          error ctx "fbufs still live after the senders drained")
      eps
  in
  let counters () =
    let _, _, evicted = Policy.totals pol in
    let s name = (name, stat [| m |] name) in
    [
      s "tlb.miss"; s "pmap.enter"; s "pmap.remove"; s "pmap.protect";
      s "tlb.shootdown"; s "vm.fault"; s "fbuf.alloc_cached_hit";
      s "fbuf.alloc_fresh";
      ("evictions", float_of_int evicted);
      ("refused", float_of_int !refused);
      ("pageout_reclaimed", float_of_int !reclaimed);
      ("pageout_ticks", float_of_int !ticks);
    ]
  in
  { step; finish; counters; machines = [| m |]; child_gc = None }

let workload =
  {
    name = "congestion";
    why =
      "the only workload where policy admission, eviction, pageout and \
       refaults do the work; elsewhere they cost one comparison";
    warmup = 2000;
    det_ops = 300_000;
    paper_row = None;
    make;
  }
