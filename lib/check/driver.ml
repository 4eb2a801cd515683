open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Integrated = Fbufs_msg.Integrated
module Ipc = Fbufs_ipc.Ipc
module Testbed = Fbufs_harness.Testbed
module Policy = Fbufs_policy.Policy

(* The differential driver.

   One deterministic world per replay: a machine seeded with the checker
   seed, three user domains, four allocators covering the variant cross
   product (cached_volatile on path a->b->c, cached_only on a->b, an
   uncached volatile default allocator owned by a, and plain on b->c),
   two a->b connections (Rebuild and Integrated), and a pageout daemon
   watching the cached allocators. Physical memory is kept small (2048
   frames) so memory pressure and pageout are ordinary events rather than
   staged ones.

   Three of the four allocators run under a dynamic buffer-sharing policy
   (latency on the cached_volatile path, bulk on cached_only, control on
   the uncached default), with a deliberately tight alpha so thresholds
   bind during ordinary replays; the fourth stays unmanaged to keep the
   hook-free paths (and the region's own quota refusals) covered. The
   policy records every admission decision, and [verify_policy] re-derives
   each one — held pages, threshold, victim choice, verdict — from the
   model's independent restatement of the arithmetic.

   Each step resolves the op against the model, computes the expected
   outcome (success, a documented refusal, zeros, or a protection fault),
   runs the real operation, applies the model transition, and then diffs
   every tracked buffer's observable state plus the allocator counters;
   the full structural audit runs every [audit_every] steps and at the
   end. All skips are deterministic functions of (seed, prefix), which is
   what makes shrinking sound. *)

exception Check_failed of string

let fail fmt = Fmt.kstr (fun s -> raise (Check_failed s)) fmt

type report = {
  total : int;
  executed : int;
  skipped : int;
  failure : (int * Op.t * string) option;
}

type state = {
  m : Machine.t;
  region : Region.t;
  kernel : Pd.t;
  doms : Pd.t array;  (* [| a; b; c |] *)
  allocs : Allocator.t array;
  conns : Ipc.conn array;
  daemon : Pageout.t;
  pol : Policy.t;
  managed : Policy.klass option array;  (* per allocator index *)
  model : Model.t;
  reals : (int, Fbuf.t) Hashtbl.t;  (* model key -> real fbuf *)
  ps : int;
  mutable next_eph : int;
  mutable ephs : Pd.t list;
      (* every Crash-spawned domain, kept so the TLB audit can resolve
         their ASIDs and pmaps after termination *)
  mutable step : int;
  on_refusal : string -> unit;
      (* observability tap: called with the op description whenever a
         documented refusal fires, see [expect_refusal] *)
  (* Expected metric counts, per allocator index, derived from the
     model's own allocation decisions. When the replay runs metered,
     [verify_metrics] diffs the registry against these. *)
  exp_hit : int array;
  exp_fresh : int array;
  exp_reclaimed : int array;
  exp_admitted : int array;
  exp_dropped : int array;
  exp_evicted : int array;  (* indexed by the *victim's* allocator *)
  exp_thr : int option array;  (* last admission-check threshold per path *)
}

let nframes = 2048
let audit_every = 25

(* Tight enough that thresholds bind under the replay's ordinary pressure
   (at 2048 free frames: bulk 8 pages, latency 24, control 65), loose
   enough that single-digit page requests usually admit on a drained
   pool. *)
let policy_alpha = 0.004

let make_state ~seed ~on_refusal =
  let tb = Testbed.create ~name:"fbufs-check" ~nframes ~seed () in
  (* Replays always record causal spans: the span sink is one more
     observable to diff (see [verify_spans]), and recording is passive —
     it never feeds back into the simulation. *)
  let m = tb.Testbed.m in
  Machine.set_obs m
    (Some
       { (Option.value m.Machine.obs ~default:Machine.no_obs) with
         spans = Some (Fbufs_span.Span.create ()) });
  let a = Testbed.user_domain tb "dom_a" in
  let b = Testbed.user_domain tb "dom_b" in
  let c = Testbed.user_domain tb "dom_c" in
  let allocs =
    [|
      Testbed.allocator tb ~domains:[ a; b; c ] Fbuf.cached_volatile;
      Testbed.allocator tb ~domains:[ a; b ] Fbuf.cached_only;
      Testbed.allocator tb ~domains:[ a ] Fbuf.volatile_only;
      Testbed.allocator tb ~domains:[ b; c ] Fbuf.plain;
    |]
  in
  let conns =
    [|
      Ipc.connect tb.Testbed.region ~src:a ~dst:b ();
      Ipc.connect tb.Testbed.region ~src:a ~dst:b ~mode:Ipc.Integrated ();
    |]
  in
  let pol =
    Policy.create tb.Testbed.region (Policy.Fb_dynamic { alpha = policy_alpha })
  in
  Policy.set_recording pol true;
  let managed =
    [| Some Policy.Latency; Some Policy.Bulk; Some Policy.Control; None |]
  in
  Array.iteri
    (fun i k ->
      match k with None -> () | Some klass -> Policy.register pol allocs.(i) ~klass)
    managed;
  (* The daemon sweeps in the policy's order (over-threshold paths first),
     so [run_balance] can demand the reclaimed set be a prefix of the
     model's own ordering rather than merely a legal victim set. *)
  let daemon =
    Pageout.create tb.Testbed.region ~order:(Policy.pageout_order pol) ()
  in
  Pageout.register daemon allocs.(0);
  Pageout.register daemon allocs.(1);
  let spec i cached volatile path policy =
    {
      Model.a_idx = i;
      a_cached = cached;
      a_volatile = volatile;
      a_path = path;
      a_policy = policy;
    }
  in
  (* The model's (rank, weight) tables are written out as literals — they
     restate, not reference, the policy's own class tables. *)
  let model =
    Model.create ~page_size:(Testbed.page_size tb) ~alpha:policy_alpha
      [|
        spec 0 true true [ a.Pd.id; b.Pd.id; c.Pd.id ] (Some (1, 3.0));
        spec 1 true false [ a.Pd.id; b.Pd.id ] (Some (0, 1.0));
        spec 2 false true [ a.Pd.id ] (Some (2, 8.0));
        spec 3 false false [ b.Pd.id; c.Pd.id ] None;
      |]
  in
  {
    m = tb.Testbed.m;
    region = tb.Testbed.region;
    kernel = tb.Testbed.kernel;
    doms = [| a; b; c |];
    allocs;
    conns;
    daemon;
    pol;
    managed;
    model;
    reals = Hashtbl.create 64;
    ps = Testbed.page_size tb;
    next_eph = 0;
    ephs = [];
    step = 0;
    on_refusal;
    exp_hit = Array.make (Array.length allocs) 0;
    exp_fresh = Array.make (Array.length allocs) 0;
    exp_reclaimed = Array.make (Array.length allocs) 0;
    exp_admitted = Array.make (Array.length allocs) 0;
    exp_dropped = Array.make (Array.length allocs) 0;
    exp_evicted = Array.make (Array.length allocs) 0;
    exp_thr = Array.make (Array.length allocs) None;
  }

(* -- small helpers ----------------------------------------------------- *)

let real st (mf : Model.fbuf) = Hashtbl.find st.reals mf.Model.key
let mfs st p = List.filter p (Model.all st.model)

(* Record in the model that this buffer's pages saw a teardown which may
   legally defer its TLB shootdowns. Called at every event that unmaps or
   invalidates translations (free, pageout, COW-invalidating send); the
   TLB audit then rejects any queued shootdown on a page outside this
   sanctioned set. *)
let sanction st (mf : Model.fbuf) =
  let fb = real st mf in
  for i = 0 to fb.Fbuf.npages - 1 do
    Model.window_open st.model ~vpn:(fb.Fbuf.base_vpn + i)
  done

let resolve l i =
  match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

let first_diff x y =
  let n = min (Bytes.length x) (Bytes.length y) in
  let rec go i =
    if i >= n then n else if Bytes.get x i <> Bytes.get y i then i else go (i + 1)
  in
  go 0

let phase_name = function
  | Model.Active -> "Active"
  | Model.Parked -> "Parked"
  | Model.Dead -> "Dead"

let state_name = function
  | Fbuf.Active -> "Active"
  | Fbuf.Cached_free -> "Cached_free"
  | Fbuf.Dead -> "Dead"

let free_frames st = Phys_mem.free_frames st.m.Machine.pmem

(* One daemon sweep, diffed against the model's own victim ordering. The
   daemon fixes its candidate order at sweep start (here, the dynamic
   policy's: over-threshold paths first) and reclaims in that order until
   pressure clears, so the reclaimed set must be exactly a prefix of the
   order the model computes from the same pre-sweep state — the daemon's
   TLB drain and scan charge free no frames, so the model's [free] sample
   taken before the call is the one the sweep ordered by. *)
let run_balance st =
  let free0 = free_frames st in
  let order = Model.balance_order st.model ~allocs:[ 0; 1 ] ~free:free0 in
  let n = Pageout.balance st.daemon in
  if n > List.length order then
    fail "balance: daemon reclaimed %d but the model has only %d candidates" n
      (List.length order);
  List.iteri
    (fun i mf ->
      let fb = real st mf in
      let resident =
        Vm_map.frame_of (Fbuf.originator fb).Pd.map ~vpn:fb.Fbuf.base_vpn
        <> -1
      in
      if i < n then begin
        if resident then
          fail "balance: victim %d of %d (fbuf#%d) kept its frames" i n
            fb.Fbuf.id;
        st.exp_reclaimed.(mf.Model.alloc) <-
          st.exp_reclaimed.(mf.Model.alloc) + 1;
        sanction st mf;
        Model.apply_reclaim st.model mf
      end
      else if not resident then
        fail "balance: fbuf#%d lost residency outside the model's %d-victim \
              prefix"
          fb.Fbuf.id n)
    order

let ensure_frames st need =
  if free_frames st < need + 16 then run_balance st;
  free_frames st >= need

(* Whole-range read by [dom], checked against the model's view. Returns
   false when the read had to be skipped for lack of frames (originator
   touch of a paged-out buffer under extreme pressure). *)
let try_checked_read st (mf : Model.fbuf) (dom : Pd.t) =
  if
    dom.Pd.id = mf.Model.originator
    && (not mf.Model.resident)
    && not (ensure_frames st mf.Model.npages)
  then false
  else begin
    let view = Model.read_view mf ~dom:dom.Pd.id in
    let want = Model.expected_bytes st.model mf view in
    let fb = real st mf in
    let got = Access.read_bytes dom ~vaddr:(Fbuf.vaddr fb) ~len:(Fbuf.size fb) in
    if not (Bytes.equal got want) then
      fail "fbuf#%d read by %s diverges at byte %d (expected %s view)"
        fb.Fbuf.id dom.Pd.name (first_diff got want)
        (match view with Model.Content -> "content" | Model.Zeros -> "zeros");
    true
  end

(* -- policy decision differential -------------------------------------- *)

(* Re-derive one recorded admission decision from the model. The policy
   logs a decision as zero or more Evicts followed by exactly one Admit or
   Drop, each event snapshotting the free-frame level it was decided at;
   the model recomputes the requester's held pages and threshold and
   selects its own victim at every step, and the chained [free] snapshots
   must advance by exactly each victim's page count. [free0] is the level
   observed immediately before the real allocation call; [dropped] says
   whether that call raised [Policy.Dropped]. Model state (victim
   reclaims) is applied as the events are validated, so callers must
   verify before committing the allocation itself to the model. *)
let verify_policy st ~alloc:ai ~npages ~growth ~free0 ~dropped =
  let evs = Policy.drain_events st.pol in
  match st.managed.(ai) with
  | None ->
      if evs <> [] then
        fail "policy: unmanaged allocator %d produced %d decision events" ai
          (List.length evs);
      if dropped then fail "policy: unmanaged allocator %d saw a drop" ai
  | Some _ ->
      let my_path = (Allocator.path st.allocs.(ai)).Path.id in
      let alloc_path i = (Allocator.path st.allocs.(i)).Path.id in
      let check_free what got want =
        if got <> want then
          fail "policy: %s decided at %d free frames, expected %d" what got
            want
      in
      let requester_state free =
        ( Model.held st.model ~alloc:ai,
          Model.policy_threshold st.model ~alloc:ai ~free )
      in
      let rec go evs free_now =
        match evs with
        | [] ->
            fail "policy: decision on path %d ended without a verdict" my_path
        | [ Policy.Admit
              { path; npages = en; growth = eg; held; free; threshold } ] ->
            if dropped then
              fail "policy: Dropped surfaced but the final event is an Admit";
            check_free "admit" free free_now;
            if path <> my_path then
              fail "policy: admit recorded path %d, allocation was on %d" path
                my_path;
            if en <> npages || eg <> growth then
              fail
                "policy: admit recorded %d pages growth %d, allocation was \
                 %d pages growth %d"
                en eg npages growth;
            let mheld, mthr = requester_state free_now in
            if held <> mheld then
              fail
                "policy: admit on path %d recorded %d held pages, model \
                 holds %d"
                my_path held mheld;
            if threshold <> mthr then
              fail "policy: admit threshold %d, model computes %d" threshold
                mthr;
            if not (growth = 0 || mheld + growth <= mthr) then
              fail
                "policy: path %d admitted %d new pages at %d held over \
                 threshold %d (the admission check was skipped)"
                my_path growth mheld mthr;
            st.exp_admitted.(ai) <- st.exp_admitted.(ai) + 1;
            st.exp_thr.(ai) <- Some threshold
        | [ Policy.Drop { path; npages = en; held; free; threshold } ] ->
            if not dropped then
              fail
                "policy: a Drop was recorded but no Dropped exception \
                 surfaced";
            check_free "drop" free free_now;
            if path <> my_path then
              fail "policy: drop recorded path %d, allocation was on %d" path
                my_path;
            if en <> npages then
              fail "policy: drop recorded %d pages, allocation asked %d" en
                npages;
            let mheld, mthr = requester_state free_now in
            if held <> mheld then
              fail
                "policy: drop on path %d recorded %d held pages, model \
                 holds %d"
                my_path held mheld;
            if threshold <> mthr then
              fail "policy: drop threshold %d, model computes %d" threshold
                mthr;
            if growth = 0 || mheld + growth <= mthr then
              fail
                "policy: path %d dropped %d new pages at %d held under \
                 threshold %d"
                my_path growth mheld mthr;
            (match Model.next_victim st.model ~requester:ai ~free:free_now with
            | Some mf ->
                fail
                  "policy: path %d dropped while the model still finds \
                   victim fbuf#%d"
                  my_path mf.Model.real_id
            | None -> ());
            st.exp_dropped.(ai) <- st.exp_dropped.(ai) + 1;
            st.exp_thr.(ai) <- Some threshold
        | Policy.Evict { victim_path; fbuf = vid; npages = vn; free } :: rest
          ->
            check_free "evict" free free_now;
            let mheld, mthr = requester_state free_now in
            if growth = 0 || mheld + growth <= mthr then
              fail
                "policy: eviction on behalf of path %d while it is under \
                 threshold (%d held + %d <= %d)"
                my_path mheld growth mthr;
            (match Model.next_victim st.model ~requester:ai ~free:free_now with
            | None ->
                fail
                  "policy: evicted fbuf#%d but the model finds no eligible \
                   victim"
                  vid
            | Some mf ->
                if
                  mf.Model.real_id <> vid
                  || alloc_path mf.Model.alloc <> victim_path
                  || mf.Model.npages <> vn
                then
                  fail
                    "policy: evicted fbuf#%d (path %d, %d pages) but the \
                     model selects fbuf#%d (path %d, %d pages)"
                    vid victim_path vn mf.Model.real_id
                    (alloc_path mf.Model.alloc) mf.Model.npages;
                st.exp_reclaimed.(mf.Model.alloc) <-
                  st.exp_reclaimed.(mf.Model.alloc) + 1;
                st.exp_evicted.(mf.Model.alloc) <-
                  st.exp_evicted.(mf.Model.alloc) + 1;
                sanction st mf;
                Model.apply_reclaim st.model mf;
                go rest (free_now + vn))
        | (Policy.Admit _ | Policy.Drop _) :: _ :: _ ->
            fail "policy: a verdict event arrived before the decision's end"
      in
      go evs free0

(* -- per-step observable diff ------------------------------------------ *)

let diff_fbuf st (mf : Model.fbuf) =
  let fb = real st mf in
  (match (mf.Model.phase, fb.Fbuf.state) with
  | Model.Active, Fbuf.Active
  | Model.Parked, Fbuf.Cached_free
  | Model.Dead, Fbuf.Dead ->
      ()
  | p, s ->
      fail "fbuf#%d: model phase %s but real state %s" fb.Fbuf.id
        (phase_name p) (state_name s));
  if mf.Model.phase <> Model.Dead then begin
    if fb.Fbuf.secured <> mf.Model.secured then
      fail "fbuf#%d: secured flag %b, model says %b" fb.Fbuf.id fb.Fbuf.secured
        mf.Model.secured;
    Array.iter
      (fun (d : Pd.t) ->
        let rr = Fbuf.ref_count fb d and mr = Model.ref_count mf d.Pd.id in
        if rr <> mr then
          fail "fbuf#%d: %s holds %d refs, model says %d" fb.Fbuf.id d.Pd.name
            rr mr)
      st.doms;
    if mf.Model.phase = Model.Parked && Fbuf.total_refs fb <> 0 then
      fail "fbuf#%d: parked with %d refs" fb.Fbuf.id (Fbuf.total_refs fb);
    (* The protection invariant: the originator is writable exactly when
       the model says writing is allowed; receivers are never writable. *)
    let orig = Fbuf.originator fb in
    let vaddr = Fbuf.vaddr fb in
    let real_w = Access.can_access orig ~vaddr ~write:true in
    if real_w <> Model.may_write mf then
      fail "fbuf#%d: originator %s %s write but model %s it" fb.Fbuf.id
        orig.Pd.name
        (if real_w then "can" else "cannot")
        (if Model.may_write mf then "allows" else "forbids");
    Array.iter
      (fun (d : Pd.t) ->
        if d.Pd.id <> mf.Model.originator
           && Access.can_access d ~vaddr ~write:true
        then fail "fbuf#%d: receiver %s has write access" fb.Fbuf.id d.Pd.name)
      st.doms
  end

let diff_allocators st =
  Array.iteri
    (fun i ra ->
      let ma = Model.allocator st.model i in
      if Allocator.free_list_length ra <> Model.parked_len ma then
        fail "allocator %d: free list %d, model says %d" i
          (Allocator.free_list_length ra)
          (Model.parked_len ma);
      if Allocator.live_fbufs ra <> Model.live_count ma then
        fail "allocator %d: %d live, model says %d" i (Allocator.live_fbufs ra)
          (Model.live_count ma))
    st.allocs

let audit_target st =
  {
    Audit.region = st.region;
    domains = st.kernel :: Array.to_list st.doms;
    allocators =
      Array.to_list st.allocs
      @ List.filter_map Ipc.meta_allocator (Array.to_list st.conns);
  }

let run_audit st =
  match Audit.run (audit_target st) with
  | [] -> ()
  | v :: _ as all ->
      fail "audit: %d violation(s); first: %s" (List.length all) v

(* -- TLB discipline audit ---------------------------------------------- *)

(* IPC meta buffers (headers, serialized DAGs) are not modeled fbufs, but
   their deferred frees queue shootdowns too; sanction the meta
   allocator's whole owned address range around each call. *)
let sanction_meta st cn =
  match Ipc.meta_allocator cn with
  | None -> ()
  | Some a ->
      let cp = (Region.config st.region).Region.chunk_pages in
      List.iter
        (fun (base, nchunks) ->
          for vpn = base to base + (nchunks * cp) - 1 do
            Model.window_open st.model ~vpn
          done)
        (Allocator.owned_chunks a)

(* The domain holding [asid], searched in the order kernel, [doms],
   ephemeral domains. The audit asks once per live TLB entry at every
   step, so the walk builds no list and captures nothing. *)
let rec eph_of_asid asid = function
  | [] -> None
  | (d : Pd.t) :: rest ->
      if Pd.asid d = asid then Some d else eph_of_asid asid rest

let rec dom_of_asid st asid i =
  if i = Array.length st.doms then eph_of_asid asid st.ephs
  else if Pd.asid st.doms.(i) = asid then Some st.doms.(i)
  else dom_of_asid st asid (i + 1)

let domain_of_asid st asid =
  if Pd.asid st.kernel = asid then Some st.kernel else dom_of_asid st asid 0

(* Runs after every step. Two invariants of the deferred-shootdown
   discipline, checked against the real TLB's introspection surface:

   - a live entry must agree with the pmap: if the translation is gone,
     a shootdown for it must be queued (the legal deferral window); and
     a writable entry over a read-only translation is a violation even
     when a shootdown is queued — protection downgrades must shoot down
     immediately, never defer (this is what catches
     [Pmap.chaos_defer_downgrade]);
   - a queued shootdown must be on a page the model saw torn down, and
     its translation must actually be gone (only removals may defer). *)
let tlb_audit st =
  let tlb = st.m.Machine.tlb in
  Tlb.iter_live tlb (fun ~asid ~vpn ~writable ->
      match domain_of_asid st asid with
      | None ->
          (* ASID 0 is not a domain: the kernel IPC path's synthetic
             pressure entries (Machine.domain_crossing_tlb_pressure). *)
          if asid <> 0 then
            fail "tlb audit: live entry for unknown asid %d (vpn %#x)" asid vpn
      | Some d -> (
          match Pmap.word (Vm_map.pmap d.Pd.map) ~vpn with
          | -1 ->
              if not (Tlb.pending_covers tlb ~asid ~vpn) then
                fail
                  "tlb audit: %s vpn %#x: live TLB entry with no \
                   translation and no queued shootdown"
                  d.Pd.name vpn
          | w ->
              if writable && not (Pmap.writable w) then
                fail
                  "tlb audit: %s vpn %#x: writable TLB entry over a \
                   read-only translation (a downgrade shootdown was \
                   deferred or elided)"
                  d.Pd.name vpn));
  Tlb.iter_pending tlb (fun ~asid ~vpn ~pte:_ ->
      if not (Model.window_sanctions st.model ~vpn) then
        fail "tlb audit: queued shootdown on never-torn-down vpn %#x" vpn;
      match domain_of_asid st asid with
      | None -> fail "tlb audit: queued shootdown for unknown asid %d" asid
      | Some d ->
          if Pmap.word (Vm_map.pmap d.Pd.map) ~vpn <> -1 then
            fail
              "tlb audit: %s vpn %#x: shootdown deferred while the \
               translation is still installed (only removals may defer)"
              d.Pd.name vpn)

(* -- expected refusals -------------------------------------------------- *)

let refusal_matches r (e : exn) =
  match (r, e) with
  | Model.R_dead, Transfer.Dead_fbuf _ -> true
  | Model.R_invalid, Invalid_argument _ -> true
  | _ -> false

let refusal_name = function
  | Model.R_dead -> "Dead_fbuf"
  | Model.R_invalid -> "Invalid_argument"

let expect_refusal st what r f =
  match f () with
  | () -> fail "%s: expected %s, but it succeeded" what (refusal_name r)
  | exception e when refusal_matches r e -> st.on_refusal what
  | exception (Check_failed _ as e) ->
      st.on_refusal what;
      raise e
  | exception e ->
      fail "%s: expected %s, got %s" what (refusal_name r)
        (Printexc.to_string e)

(* -- operations --------------------------------------------------------- *)

let pattern st (mf : Model.fbuf) =
  let len = Model.size_bytes st.model mf in
  let k = (st.step * 131) + (mf.Model.key * 17) + 1 in
  Bytes.init len (fun i -> Char.chr ((k + i) land 0xff))

(* One fully checked allocation of [n] pages from allocator [ai]: the
   model predicts reuse-vs-fresh before the call, the policy decision is
   re-derived from its event log after it ([verify_policy] runs before the
   model commits, so the held/threshold snapshots are diffed against
   pre-allocation state), and a policy Drop counts as an executed step —
   the refusal, with its possible reclaim-before-drop evictions, is the
   behavior under test. *)
let checked_alloc st ~ai ~n =
  let ra = st.allocs.(ai) in
  match Model.predict_alloc st.model ~alloc:ai ~npages:n with
  | Some top -> (
      let growth = if top.Model.charged then 0 else n in
      let free0 = free_frames st in
      match Allocator.alloc ra ~npages:n with
      | fb ->
          verify_policy st ~alloc:ai ~npages:n ~growth ~free0 ~dropped:false;
          st.exp_hit.(ai) <- st.exp_hit.(ai) + 1;
          if fb.Fbuf.id <> top.Model.real_id then
            fail "alloc %d: cache reuse order: got fbuf#%d, model expected #%d"
              ai fb.Fbuf.id top.Model.real_id;
          Model.commit_hit st.model top ~now:fb.Fbuf.last_alloc.us;
          (* Reused contents must be exactly what was parked — or zeros
             after a pageout. A stale-mapping or stale-content bug surfaces
             here. *)
          ignore (try_checked_read st top (Fbuf.originator fb));
          true
      | exception Policy.Dropped _ ->
          verify_policy st ~alloc:ai ~npages:n ~growth ~free0 ~dropped:true;
          true)
  | None -> (
      if not (ensure_frames st n) then false
      else
        let free0 = free_frames st in
        match Allocator.alloc ra ~npages:n with
        | fb ->
            verify_policy st ~alloc:ai ~npages:n ~growth:n ~free0
              ~dropped:false;
            let orig = Fbuf.originator fb in
            (* Fresh frames are not cleared (the paper's Table 1 excludes
               zeroing); whatever is there now is the baseline content. *)
            let contents =
              Access.read_bytes orig ~vaddr:(Fbuf.vaddr fb)
                ~len:(Fbuf.size fb)
            in
            let mf =
              Model.commit_fresh st.model ~alloc:ai ~npages:n
                ~real_id:fb.Fbuf.id ~contents ~now:fb.Fbuf.last_alloc.us
            in
            st.exp_fresh.(ai) <- st.exp_fresh.(ai) + 1;
            Hashtbl.replace st.reals mf.Model.key fb;
            true
        | exception Policy.Dropped _ ->
            verify_policy st ~alloc:ai ~npages:n ~growth:n ~free0
              ~dropped:true;
            true
        | exception (Region.Chunk_limit_exceeded _ | Region.Region_exhausted)
          ->
            (* A legal refusal under quota pressure. The admission hook ran
               (and admitted) before the region refused, so its events
               still verify; the allocator counters must be untouched,
               which the post-step diff verifies. *)
            verify_policy st ~alloc:ai ~npages:n ~growth:n ~free0
              ~dropped:false;
            false)

let do_alloc st ~alloc ~npages =
  let ai = alloc mod Array.length st.allocs in
  let n = 1 + (npages mod 4) in
  checked_alloc st ~ai ~n

let do_ipc st ~conn ~fbuf ~len =
  let ci = conn mod Array.length st.conns in
  let cn = st.conns.(ci) in
  let s = Ipc.src cn and d = Ipc.dst cn in
  let cands =
    mfs st (fun f ->
        f.Model.phase = Model.Active
        && Model.ref_count f s.Pd.id > 0
        && ((not f.Model.cached) || List.mem d.Pd.id f.Model.path))
  in
  match resolve cands fbuf with
  | None -> false
  | Some mf ->
      if not (ensure_frames st (mf.Model.npages + 4)) then false
      else begin
        let fb = real st mf in
        let wlen = 1 + (len mod Fbuf.size fb) in
        let msg = Msg.of_fbuf fb ~off:0 ~len:wlen in
        (* Ipc.call transfers before the handler runs; model it first. *)
        (match Model.send_check mf ~src:s.Pd.id ~dst:d.Pd.id with
        | Ok () -> ()
        | Error _ -> fail "ipc: candidate unexpectedly unsendable");
        Model.apply_send mf ~dst:d.Pd.id;
        sanction st mf;
        let view = Model.read_view mf ~dom:d.Pd.id in
        let want_all = Model.expected_bytes st.model mf view in
        let want = Bytes.sub want_all 0 wlen in
        let received = ref None in
        Ipc.call cn msg ~handler:(fun rm ->
            received := Some rm;
            let got = Msg.to_bytes rm ~as_:d in
            if Bytes.length got <> wlen then
              fail "ipc: delivered %d bytes, sent %d" (Bytes.length got) wlen;
            if not (Bytes.equal got want) then
              fail "ipc: delivered bytes diverge at %d" (first_diff got want);
            (* Touch the whole range so the receiver's mapping state stays
               binary (see the Model comment on partial touches). *)
            let whole =
              Access.read_bytes d ~vaddr:(Fbuf.vaddr fb) ~len:(Fbuf.size fb)
            in
            if not (Bytes.equal whole want_all) then
              fail "ipc: receiver range read diverges at %d"
                (first_diff whole want_all));
        (match !received with
        | None -> fail "ipc: handler never ran"
        | Some rm -> Ipc.free_deferred cn rm);
        sanction_meta st cn;
        Ipc.flush_deallocs cn;
        Model.apply_free st.model mf ~dom:d.Pd.id;
        true
      end

let do_bad_dag st ~kind =
  let k = kind mod 5 in
  if not (ensure_frames st 2) then false
  else
    let a = st.doms.(0) and b = st.doms.(1) in
    let free0 = free_frames st in
    match Allocator.alloc st.allocs.(2) ~npages:1 with
    | exception (Region.Chunk_limit_exceeded _ | Region.Region_exhausted) ->
        verify_policy st ~alloc:2 ~npages:1 ~growth:1 ~free0 ~dropped:false;
        false
    | exception Policy.Dropped _ ->
        verify_policy st ~alloc:2 ~npages:1 ~growth:1 ~free0 ~dropped:true;
        false
    | fb -> (
        verify_policy st ~alloc:2 ~npages:1 ~growth:1 ~free0 ~dropped:false;
        let contents =
          Access.read_bytes a ~vaddr:(Fbuf.vaddr fb) ~len:(Fbuf.size fb)
        in
        let mf =
          Model.commit_fresh st.model ~alloc:2 ~npages:1 ~real_id:fb.Fbuf.id
            ~contents ~now:fb.Fbuf.last_alloc.us
        in
        st.exp_fresh.(2) <- st.exp_fresh.(2) + 1;
        Hashtbl.replace st.reals mf.Model.key fb;
        let base = Fbuf.vaddr fb in
        let node tag w1 w2 =
          let bts = Bytes.create Integrated.node_size in
          Bytes.set_int32_le bts 0 (Int32.of_int tag);
          Bytes.set_int32_le bts 4 (Int32.of_int w1);
          Bytes.set_int32_le bts 8 (Int32.of_int w2);
          Bytes.set_int32_le bts 12 0l;
          bts
        in
        let cfg = Region.config st.region in
        let region_end = (cfg.Region.base_vpn + cfg.Region.region_pages) * st.ps in
        let root =
          match k with
          | 0 -> (cfg.Region.base_vpn * st.ps) - st.ps (* fully outside *)
          | 1 -> region_end - 8 (* node record straddles the region end *)
          | 2 ->
              Access.write_bytes a ~vaddr:base (node 9 0 0);
              base (* garbage tag *)
          | 3 ->
              Access.write_bytes a ~vaddr:base (node 2 base base);
              base (* self-referential cat: a cycle *)
          | _ ->
              Access.write_bytes a ~vaddr:base (node 1 base 0x1000000);
              base (* leaf whose length overruns its fbuf *)
        in
        mf.Model.expected <-
          Access.read_bytes a ~vaddr:base ~len:(Fbuf.size fb);
        Transfer.send fb ~src:a ~dst:b;
        Model.apply_send mf ~dst:b.Pd.id;
        if k >= 2 then
          (* Deserialization reads the node page as the receiver. *)
          ignore (Model.read_view mf ~dom:b.Pd.id);
        let anomalies () =
          let s = st.m.Machine.stats in
          Stats.get s "integrated.bad_node"
          + Stats.get s "integrated.cycle"
          + Stats.get s "integrated.bad_data_ref"
          + Stats.get s "integrated.budget_exhausted"
        in
        let before = anomalies () in
        (match Integrated.deserialize st.region ~as_:b ~root_vaddr:root with
        | msg ->
            if not (Msg.is_empty msg) then
              fail "bad DAG (kind %d) produced data" k;
            if anomalies () <= before then
              fail "bad DAG (kind %d) not counted as an anomaly" k
        | exception e ->
            fail "bad DAG (kind %d) escaped as exception: %s" k
              (Printexc.to_string e));
        Transfer.free fb ~dom:b;
        Model.apply_free st.model mf ~dom:b.Pd.id;
        Transfer.free fb ~dom:a;
        sanction st mf;
        Model.apply_free st.model mf ~dom:a.Pd.id;
        true)

let exec st (op : Op.t) =
  match op with
  | Op.Alloc { alloc; npages } -> do_alloc st ~alloc ~npages
  | Op.Write { fbuf } -> (
      match resolve (mfs st Model.may_write) fbuf with
      | None -> false
      | Some mf ->
          if (not mf.Model.resident) && not (ensure_frames st mf.Model.npages)
          then false
          else begin
            let fb = real st mf in
            let data = pattern st mf in
            Access.write_bytes (Fbuf.originator fb) ~vaddr:(Fbuf.vaddr fb) data;
            mf.Model.expected <- data;
            mf.Model.resident <- true;
            true
          end)
  | Op.Read { fbuf; dom } -> (
      match resolve (mfs st (fun f -> f.Model.phase <> Model.Dead)) fbuf with
      | None -> false
      | Some mf -> (
          let readers =
            List.filter
              (fun (d : Pd.t) ->
                d.Pd.id = mf.Model.originator
                || Model.ref_count mf d.Pd.id > 0
                || List.mem d.Pd.id mf.Model.mapped_in)
              (Array.to_list st.doms)
          in
          match resolve readers dom with
          | None -> false
          | Some d -> try_checked_read st mf d))
  | Op.Send { fbuf; src; dst } -> (
      match resolve (Model.all st.model) fbuf with
      | None -> false
      | Some mf -> (
          let s = st.doms.(src mod Array.length st.doms) in
          let d = st.doms.(dst mod Array.length st.doms) in
          let fb = real st mf in
          match Model.send_check mf ~src:s.Pd.id ~dst:d.Pd.id with
          | Ok () ->
              Transfer.send fb ~src:s ~dst:d;
              Model.apply_send mf ~dst:d.Pd.id;
              (* A send may invalidate translations (COW, stale-mapping
                 clears), so its pages may defer shootdowns. *)
              sanction st mf;
              true
          | Error r ->
              expect_refusal st "send" r (fun () ->
                  Transfer.send fb ~src:s ~dst:d);
              true))
  | Op.Secure { fbuf } -> (
      match resolve (Model.all st.model) fbuf with
      | None -> false
      | Some mf -> (
          let fb = real st mf in
          match Model.secure_check mf with
          | Ok () ->
              Transfer.secure fb;
              Model.apply_secure mf;
              true
          | Error r ->
              expect_refusal st "secure" r (fun () -> Transfer.secure fb);
              true))
  | Op.Free { fbuf; dom } -> (
      match resolve (Model.all st.model) fbuf with
      | None -> false
      | Some mf -> (
          let d = st.doms.(dom mod Array.length st.doms) in
          let fb = real st mf in
          match Model.free_check mf ~dom:d.Pd.id with
          | Ok () ->
              Transfer.free fb ~dom:d;
              sanction st mf;
              Model.apply_free st.model mf ~dom:d.Pd.id;
              true
          | Error r ->
              expect_refusal st "free" r (fun () -> Transfer.free fb ~dom:d);
              true))
  | Op.Reclaim { alloc; max_fbufs } ->
      let ai = alloc mod Array.length st.allocs in
      let maxf = 1 + (max_fbufs mod 3) in
      let victims = Model.reclaim_victims st.model ~alloc:ai ~max_fbufs:maxf in
      let n = Allocator.reclaim st.allocs.(ai) ~max_fbufs:maxf () in
      if n <> List.length victims then
        fail "reclaim: %d buffers reclaimed, model predicted %d" n
          (List.length victims);
      List.iter
        (fun mf ->
          let fb = real st mf in
          if
            Vm_map.frame_of (Fbuf.originator fb).Pd.map ~vpn:fb.Fbuf.base_vpn
            <> -1
          then fail "reclaim: victim fbuf#%d kept its frames" fb.Fbuf.id;
          st.exp_reclaimed.(mf.Model.alloc) <-
            st.exp_reclaimed.(mf.Model.alloc) + 1;
          sanction st mf;
          Model.apply_reclaim st.model mf)
        victims;
      true
  | Op.Balance ->
      run_balance st;
      true
  | Op.Ipc { conn; fbuf; len } -> do_ipc st ~conn ~fbuf ~len
  | Op.Read_unref { fbuf; dom } -> (
      match resolve (mfs st (fun f -> f.Model.phase <> Model.Dead)) fbuf with
      | None -> false
      | Some mf -> (
          let outsiders =
            List.filter
              (fun (d : Pd.t) ->
                d.Pd.id <> mf.Model.originator
                && Model.ref_count mf d.Pd.id = 0
                && not (List.mem d.Pd.id mf.Model.mapped_in))
              (Array.to_list st.doms)
          in
          match resolve outsiders dom with
          | None -> false
          | Some d -> (
              match Model.read_view mf ~dom:d.Pd.id with
              | Model.Content -> fail "read_unref: model grants content"
              | Model.Zeros ->
                  let fb = real st mf in
                  let got =
                    Access.read_bytes d ~vaddr:(Fbuf.vaddr fb)
                      ~len:(Fbuf.size fb)
                  in
                  if not (Bytes.equal got (Bytes.make (Fbuf.size fb) '\000'))
                  then
                    fail
                      "fbuf#%d: unauthorized read by %s leaked data at byte %d"
                      fb.Fbuf.id d.Pd.name
                      (first_diff got (Bytes.make (Fbuf.size fb) '\000'));
                  true)))
  | Op.Write_foreign { fbuf; dom } -> (
      match resolve (mfs st (fun f -> f.Model.phase <> Model.Dead)) fbuf with
      | None -> false
      | Some mf -> (
          let others =
            List.filter
              (fun (d : Pd.t) -> d.Pd.id <> mf.Model.originator)
              (Array.to_list st.doms)
          in
          match resolve others dom with
          | None -> false
          | Some d ->
              let fb = real st mf in
              (match
                 Access.write_bytes d ~vaddr:(Fbuf.vaddr fb)
                   (Bytes.make 4 'X')
               with
              | () ->
                  fail "fbuf#%d: foreign write by %s succeeded" fb.Fbuf.id
                    d.Pd.name
              | exception Vm_map.Protection_violation _ -> ());
              true))
  | Op.Use_after_free { fbuf; write } -> (
      let live_ranges =
        List.filter_map
          (fun f ->
            if f.Model.phase = Model.Dead then None
            else
              let fb = real st f in
              Some (fb.Fbuf.base_vpn, fb.Fbuf.npages))
          (Model.all st.model)
      in
      let cands =
        mfs st (fun f ->
            f.Model.phase = Model.Dead
            &&
            let fb = real st f in
            not
              (List.exists
                 (fun (b, n) ->
                   b < fb.Fbuf.base_vpn + fb.Fbuf.npages
                   && fb.Fbuf.base_vpn < b + n)
                 live_ranges))
      in
      match resolve cands fbuf with
      | None -> false
      | Some mf ->
          let fb = real st mf in
          let orig = Fbuf.originator fb in
          if write then (
            match
              Access.write_bytes orig ~vaddr:(Fbuf.vaddr fb) (Bytes.make 4 'X')
            with
            | () -> fail "fbuf#%d: use-after-free write succeeded" fb.Fbuf.id
            | exception Vm_map.Protection_violation _ -> ())
          else begin
            let got =
              Access.read_bytes orig ~vaddr:(Fbuf.vaddr fb) ~len:(Fbuf.size fb)
            in
            if not (Bytes.equal got (Bytes.make (Fbuf.size fb) '\000')) then
              fail "fbuf#%d: use-after-free read leaked stale bytes" fb.Fbuf.id
          end;
          true)
  | Op.Crash { fbuf } -> (
      let cands =
        mfs st (fun f ->
            f.Model.phase = Model.Active
            && (not f.Model.cached)
            && List.exists
                 (fun (d : Pd.t) -> Model.ref_count f d.Pd.id > 0)
                 (Array.to_list st.doms))
      in
      match resolve cands fbuf with
      | None -> false
      | Some mf ->
          let fb = real st mf in
          let holder =
            List.find
              (fun (d : Pd.t) -> Model.ref_count mf d.Pd.id > 0)
              (Array.to_list st.doms)
          in
          let eph = Pd.create st.m (Printf.sprintf "eph%d" st.next_eph) in
          st.next_eph <- st.next_eph + 1;
          st.ephs <- eph :: st.ephs;
          Region.register_domain st.region eph;
          Transfer.send fb ~src:holder ~dst:eph;
          Model.apply_send mf ~dst:eph.Pd.id;
          sanction st mf;
          Lifecycle.terminate_domain st.region eph ~allocators:[];
          Model.apply_free st.model mf ~dom:eph.Pd.id;
          if Lifecycle.orphaned_references st.region eph <> 0 then
            fail "crash: terminated domain still holds references";
          if eph.Pd.live then fail "crash: domain still marked live";
          true)
  | Op.Bad_dag { kind } -> do_bad_dag st ~kind
  | Op.Exhaust { alloc } -> (
      let ai = alloc mod Array.length st.allocs in
      let free0 = free_frames st in
      match Allocator.alloc st.allocs.(ai) ~npages:2048 with
      | _ -> fail "exhaust: oversized allocation was granted"
      | exception Policy.Dropped _ ->
          (* On a managed path the admission policy refuses first — after
             evicting every eligible lower-class victim, since a 2048-page
             request can never fit under a threshold; each eviction and
             the final Drop verdict are model-checked. *)
          verify_policy st ~alloc:ai ~npages:2048 ~growth:2048 ~free0
            ~dropped:true;
          true
      | exception Region.Chunk_limit_exceeded _ ->
          verify_policy st ~alloc:ai ~npages:2048 ~growth:2048 ~free0
            ~dropped:false;
          true
      | exception Region.Region_exhausted ->
          verify_policy st ~alloc:ai ~npages:2048 ~growth:2048 ~free0
            ~dropped:false;
          true)
  | Op.Tlb_stale { fbuf; write } -> (
      (* The deferral window, attacked head-on: load the buffer's
         translations into the TLB, free it (the uncached teardown defers
         every shootdown), and touch the old addresses in the same step —
         before any drain point. The stale entries are still live; they
         must not let the touch reach the freed frames. *)
      let cands =
        mfs st (fun f ->
            f.Model.phase = Model.Active
            && (not f.Model.cached)
            && f.Model.resident && Model.total_refs f = 1
            && Model.ref_count f f.Model.originator = 1)
      in
      match resolve cands fbuf with
      | None -> false
      | Some mf ->
          let fb = real st mf in
          let orig = Fbuf.originator fb in
          let asid = Pd.asid orig in
          ignore (try_checked_read st mf orig);
          Transfer.free fb ~dom:orig;
          sanction st mf;
          Model.apply_free st.model mf ~dom:orig.Pd.id;
          (* The read above cached every page, so the teardown must have
             queued (not skipped) a shootdown for each translation that is
             still in the TLB. *)
          for i = 0 to fb.Fbuf.npages - 1 do
            let vpn = fb.Fbuf.base_vpn + i in
            if
              Tlb.probe st.m.Machine.tlb ~asid ~vpn ~write:false <> Tlb.Miss
              && not (Tlb.pending_covers st.m.Machine.tlb ~asid ~vpn)
            then
              fail "tlb_stale: freed page %#x cached with no queued shootdown"
                vpn
          done;
          if write then (
            match
              Access.write_bytes orig ~vaddr:(Fbuf.vaddr fb) (Bytes.make 4 'X')
            with
            | () ->
                fail "fbuf#%d: write through a stale TLB entry succeeded"
                  fb.Fbuf.id
            | exception Vm_map.Protection_violation _ -> ())
          else begin
            let got =
              Access.read_bytes orig ~vaddr:(Fbuf.vaddr fb) ~len:(Fbuf.size fb)
            in
            if not (Bytes.equal got (Bytes.make (Fbuf.size fb) '\000')) then
              fail "fbuf#%d: stale TLB entry leaked freed bytes at %d"
                fb.Fbuf.id
                (first_diff got (Bytes.make (Fbuf.size fb) '\000'))
          end;
          true)
  | Op.Policy_relief { alloc } ->
      (* Clear contention everywhere — page out every parked buffer, so
         every path's held account falls to its Active pages while the
         free pool (and with it every threshold) grows — then allocate one
         page on a managed path. A starved path making progress once
         contention clears is exactly the model agreeing the verdict must
         now be Admit; a lingering refusal the model does not re-derive
         fails the replay. *)
      Array.iteri
        (fun i ra ->
          let victims =
            Model.reclaim_victims st.model ~alloc:i ~max_fbufs:nframes
          in
          let n = Allocator.reclaim ra ~max_fbufs:nframes () in
          if n <> List.length victims then
            fail "policy_relief: allocator %d reclaimed %d, model predicted %d"
              i n (List.length victims);
          List.iter
            (fun mf ->
              st.exp_reclaimed.(i) <- st.exp_reclaimed.(i) + 1;
              sanction st mf;
              Model.apply_reclaim st.model mf)
            victims)
        st.allocs;
      checked_alloc st ~ai:(alloc mod 3) ~n:1
  | Op.Drop_probe { alloc; npages } ->
      (* An oversized request on a low-class path: the likeliest way to
         draw a Drop verdict under ordinary pressure. Whatever the verdict,
         it is event-verified by [checked_alloc]; when it was a drop, the
         full structural audit runs immediately — a refused allocation
         must leave no trace in refcounts, free lists, or extents. *)
      let ai = alloc mod 2 in
      let n = 5 + (npages mod 4) in
      let drops0 = st.exp_dropped.(ai) in
      let ran = checked_alloc st ~ai ~n in
      if st.exp_dropped.(ai) > drops0 then run_audit st;
      ran

(* -- metrics differential ----------------------------------------------- *)

(* When the replay runs metered (an instance installed through
   [Machine.with_obs]), the registry is one more observable to
   diff: allocation fast/slow-path counters against the model's own
   predictions, the free-list and liveness gauges against the model
   allocators, reclaim counts, and the ledger against the machine's busy
   time. The ledger accumulates charges per machine in arrival order with
   plain addition — exactly how [Machine.charge] grows [busy_us] — so on
   this single-machine world the two floats must be bitwise equal, not
   merely close. *)
let verify_metrics st =
  match Machine.metrics st.m with
  | None -> ()
  | Some mx ->
      let module Mx = Fbufs_metrics.Metrics in
      let module Ledger = Fbufs_metrics.Ledger in
      let mach = st.m.Machine.name in
      let count name labels =
        match Mx.value_by_name mx ~name ~labels with
        | None -> 0
        | Some v -> int_of_float v
      in
      Array.iteri
        (fun i ra ->
          let path = string_of_int (Allocator.path ra).Path.id in
          let check what got want =
            if got <> want then
              fail "metrics: allocator %d: %s is %d, model expected %d" i what
                got want
          in
          check "fbufs_alloc_total{result=hit}"
            (count "fbufs_alloc_total" [ mach; path; "hit" ])
            st.exp_hit.(i);
          check "fbufs_alloc_total{result=fresh}"
            (count "fbufs_alloc_total" [ mach; path; "fresh" ])
            st.exp_fresh.(i);
          check "fbufs_reclaimed_fbufs_total"
            (count "fbufs_reclaimed_fbufs_total" [ mach; path ])
            st.exp_reclaimed.(i);
          let ma = Model.allocator st.model i in
          check "fbufs_free_list_depth"
            (count "fbufs_free_list_depth" [ mach; path ])
            (Model.parked_len ma);
          check "fbufs_live_fbufs"
            (count "fbufs_live_fbufs" [ mach; path ])
            (Model.live_count ma))
        st.allocs;
      (* Policy decision counters against the event-derived expectations,
         and the held/threshold gauges against the model's own account. *)
      Array.iteri
        (fun i k ->
          match k with
          | None -> ()
          | Some klass ->
              let path = string_of_int (Allocator.path st.allocs.(i)).Path.id in
              let check what got want =
                if got <> want then
                  fail "metrics: allocator %d: %s is %d, expected %d" i what
                    got want
              in
              let l3 = [ mach; path; Policy.klass_label klass ] in
              check "fbufs_policy_admitted_total"
                (count "fbufs_policy_admitted_total" l3)
                st.exp_admitted.(i);
              check "fbufs_policy_dropped_total"
                (count "fbufs_policy_dropped_total" l3)
                st.exp_dropped.(i);
              check "fbufs_policy_evictions_total"
                (count "fbufs_policy_evictions_total" l3)
                st.exp_evicted.(i);
              check "fbufs_policy_held_pages"
                (count "fbufs_policy_held_pages" [ mach; path ])
                (Model.held st.model ~alloc:i);
              match st.exp_thr.(i) with
              | None -> ()
              | Some thr ->
                  check "fbufs_policy_threshold_pages"
                    (count "fbufs_policy_threshold_pages" [ mach; path ])
                    thr)
        st.managed;
      let charged = Ledger.charged_us (Mx.ledger mx) ~machine:mach in
      let busy = Machine.busy_us st.m in
      if charged <> busy then
        fail "metrics: ledger charged %.17g us but machine busy %.17g us"
          charged busy

(* -- span differential -------------------------------------------------- *)

let op_label (op : Op.t) =
  match op with
  | Op.Alloc _ -> "alloc"
  | Op.Write _ -> "write"
  | Op.Read _ -> "read"
  | Op.Send _ -> "send"
  | Op.Secure _ -> "secure"
  | Op.Free _ -> "free"
  | Op.Reclaim _ -> "reclaim"
  | Op.Balance -> "balance"
  | Op.Ipc _ -> "ipc"
  | Op.Read_unref _ -> "read_unref"
  | Op.Write_foreign _ -> "write_foreign"
  | Op.Use_after_free _ -> "use_after_free"
  | Op.Crash _ -> "crash"
  | Op.Bad_dag _ -> "bad_dag"
  | Op.Exhaust _ -> "exhaust"
  | Op.Tlb_stale _ -> "tlb_stale"
  | Op.Policy_relief _ -> "policy_relief"
  | Op.Drop_probe _ -> "drop_probe"

(* Every replay records spans (one transfer per executed op), so the span
   sink's own invariants run under the checker's adversarial streams:
   every span finished, one causal root per transfer, child intervals
   inside their parents, and per-component span charges summing exactly
   to each transfer's ledger cells. On top of the sink's internal check,
   diff its arrival total against the machine's busy time: each charge
   was rounded to integer nanoseconds once, so the two can differ by at
   most half a nanosecond per charge (plus one for the final float
   comparison). *)
let verify_spans st =
  match Machine.spans st.m with
  | None -> ()
  | Some sink ->
      let module Span = Fbufs_span.Span in
      (match Span.check sink with
      | [] -> ()
      | v :: _ as all ->
          fail "spans: %d violation(s); first: %s" (List.length all) v);
      let mach = st.m.Machine.name in
      let charged = float_of_int (Span.charged_ns sink ~machine:mach) in
      let busy_ns = Machine.busy_us st.m *. 1000.0 in
      let bound =
        (float_of_int (Span.charge_count sink ~machine:mach) /. 2.0) +. 1.0
      in
      if Float.abs (charged -. busy_ns) > bound then
        fail
          "spans: %.1f ns charged to the sink but machine busy %.1f ns \
           (rounding bound %.1f)"
          charged busy_ns bound

(* -- the replay loop ---------------------------------------------------- *)

let replay ?(on_refusal = ignore) ~seed ops =
  let st = make_state ~seed ~on_refusal in
  let total = List.length ops in
  let executed = ref 0 and skipped = ref 0 in
  let failure = ref None in
  (try
     List.iteri
       (fun i op ->
         st.step <- i;
         let ran =
           try Machine.with_transfer st.m (op_label op) (fun () -> exec st op)
           with
           | Check_failed _ as e -> raise e
           | e -> fail "unexpected exception: %s" (Printexc.to_string e)
         in
         if ran then incr executed else incr skipped;
         diff_allocators st;
         List.iter (diff_fbuf st) (Model.all st.model);
         tlb_audit st;
         if i mod audit_every = audit_every - 1 then run_audit st)
       ops;
     run_audit st;
     verify_metrics st;
     verify_spans st
   with Check_failed msg ->
     failure := Some (st.step, List.nth ops st.step, msg));
  { total; executed = !executed; skipped = !skipped; failure = !failure }

let gen_ops ~seed ~n ~adversary =
  (* The op stream is forked off the seed so it is independent of every
     other consumer of randomness (the machine's TLB draws in particular):
     replaying a shrunk subsequence regenerates nothing. *)
  let rng = Rng.fork (Rng.create seed) 1 in
  Op.gen_list rng ~adversary ~n

let run ?on_refusal ~seed ~ops ~adversary () =
  let l = gen_ops ~seed ~n:ops ~adversary in
  (replay ?on_refusal ~seed l, l)

let failed r = r.failure <> None

let pp_report ppf r =
  match r.failure with
  | None ->
      Fmt.pf ppf "ok: %d ops (%d executed, %d skipped)" r.total r.executed
        r.skipped
  | Some (step, op, msg) ->
      Fmt.pf ppf "FAIL at step %d on %a:@ %s" step Op.pp op msg
