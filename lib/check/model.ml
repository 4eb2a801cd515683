(* The pure reference model of fbuf semantics.

   This module never touches the real stack: it is an executable
   restatement of the paper's rules (and of this implementation's
   documented refinements of them) against which the driver diffs the real
   Allocator/Region/Vm_map/Transfer state after every operation. Keeping
   it allocation-level simple — assoc lists, no hashtables shared with the
   subject — is deliberate: a bug would have to be implemented twice, in
   two very different shapes, to go unnoticed.

   Content visibility is the subtle part. Receivers are granted *rights*,
   not mappings; mappings materialize on first touch. The model therefore
   tracks, per buffer and per non-originator domain, which of three
   mapping states the domain is in:

   - [materialized]: it touched the buffer while the originator's frames
     were resident, so it holds real-frame mappings and sees live bytes
     (including later originator scribbles on volatile buffers);
   - [stale_zero]: it touched the range when it had no resolvable claim
     (no rights, a parked buffer it never materialized, or a buffer whose
     frames were paged out), so the dead page is mapped over the range and
     it reads zeros until those mappings are cleared (by a grant, a
     pageout, an uncached free, or teardown);
   - neither: no mappings; the next touch classifies it. *)

type phase = Active | Parked | Dead

type fbuf = {
  key : int;  (* stable driver handle, independent of real fbuf ids *)
  alloc : int;
  npages : int;
  cached : bool;
  volatile : bool;
  originator : int;  (* Pd ids throughout *)
  path : int list;
  mutable real_id : int;
  mutable phase : phase;
  mutable secured : bool;
  mutable refs : (int * int) list;  (* dom -> count; entries > 0 only *)
  mutable mapped_in : int list;  (* granted receivers, no duplicates *)
  mutable materialized : int list;
  mutable stale_zero : int list;
  mutable expected : bytes;  (* contents every live-byte reader must see *)
  mutable resident : bool;  (* originator frames present *)
  mutable charged : bool;
      (* mirror of Fbuf.accounted: counted in the path's held account.
         Set on (re)allocation, cleared on park-without-frames, pageout
         and death — never by the faults that can restore [resident] *)
  mutable last_alloc_us : float;
}

type alloc_spec = {
  a_idx : int;
  a_cached : bool;
  a_volatile : bool;
  a_path : int list;  (* originator first *)
  a_policy : (int * float) option;
      (* buffer-sharing (rank, weight) when the path is policy-managed *)
}

type allocator = {
  spec : alloc_spec;
  mutable classes : (int * fbuf list) list;  (* npages -> LIFO stack *)
  mutable parked_len : int;
  mutable live : int;
}

type t = {
  page_size : int;
  alpha : float;  (* buffer-sharing threshold scale, see the policy mirror *)
  allocs : allocator array;
  mutable rev_fbufs : fbuf list;
  mutable next_key : int;
  (* TLB discipline mirror, see the window section below. *)
  windows : (int, unit) Hashtbl.t;
}

let create ~page_size ?(alpha = 0.0) specs =
  {
    page_size;
    alpha;
    allocs =
      Array.map
        (fun spec -> { spec; classes = []; parked_len = 0; live = 0 })
        specs;
    rev_fbufs = [];
    next_key = 0;
    windows = Hashtbl.create 256;
  }

let all t = List.rev t.rev_fbufs
let allocator t i = t.allocs.(i)
let size_bytes t fb = fb.npages * t.page_size

let ref_count fb dom =
  match List.assoc_opt dom fb.refs with Some n -> n | None -> 0

let total_refs fb = List.fold_left (fun acc (_, n) -> acc + n) 0 fb.refs

let add_ref fb dom =
  fb.refs <- (dom, ref_count fb dom + 1) :: List.remove_assoc dom fb.refs

let drop_ref fb dom =
  let n = ref_count fb dom in
  fb.refs <- List.remove_assoc dom fb.refs;
  if n > 1 then fb.refs <- (dom, n - 1) :: fb.refs

let remove l x = List.filter (fun y -> y <> x) l

(* -- free-list mirror ------------------------------------------------- *)

let park_stack a npages =
  match List.assoc_opt npages a.classes with Some s -> s | None -> []

let push_parked a fb =
  a.classes <- (fb.npages, fb :: park_stack a fb.npages)
                :: List.remove_assoc fb.npages a.classes;
  a.parked_len <- a.parked_len + 1

let peek_parked a npages =
  match park_stack a npages with [] -> None | fb :: _ -> Some fb

let pop_parked a npages =
  match park_stack a npages with
  | [] -> None
  | fb :: rest ->
      a.classes <- (npages, rest) :: List.remove_assoc npages a.classes;
      a.parked_len <- a.parked_len - 1;
      Some fb

let parked_of a = List.concat_map snd a.classes
let parked_len (a : allocator) = a.parked_len
let live_count a = a.live

(* -- allocation ------------------------------------------------------- *)

(* [Some fb]: the real allocator must reuse exactly this parked buffer
   (LIFO within the size class); [None]: it must take the fresh path. *)
let predict_alloc t ~alloc ~npages =
  let a = t.allocs.(alloc) in
  if a.spec.a_cached then peek_parked a npages else None

let commit_hit t fb ~now =
  let a = t.allocs.(fb.alloc) in
  (match pop_parked a fb.npages with
  | Some top when top == fb -> ()
  | _ -> invalid_arg "Model.commit_hit: not the predicted buffer");
  fb.phase <- Active;
  fb.refs <- [ (List.hd a.spec.a_path, 1) ];
  fb.charged <- true;
  fb.last_alloc_us <- now;
  a.live <- a.live + 1;
  ignore t

let commit_fresh t ~alloc ~npages ~real_id ~contents ~now =
  let a = t.allocs.(alloc) in
  let fb =
    {
      key = t.next_key;
      alloc;
      npages;
      cached = a.spec.a_cached;
      volatile = a.spec.a_volatile;
      originator = List.hd a.spec.a_path;
      path = a.spec.a_path;
      real_id;
      phase = Active;
      secured = false;
      refs = [ (List.hd a.spec.a_path, 1) ];
      mapped_in = [];
      materialized = [];
      stale_zero = [];
      expected = contents;
      resident = true;
      charged = true;
      last_alloc_us = now;
    }
  in
  t.next_key <- t.next_key + 1;
  t.rev_fbufs <- fb :: t.rev_fbufs;
  a.live <- a.live + 1;
  fb

(* -- rights and visibility -------------------------------------------- *)

(* Originator write permission: never after securing, never on a dead
   buffer; parked buffers are writable (parking restores write access). *)
let may_write fb = fb.phase <> Dead && not fb.secured

type view = Content | Zeros

(* What a read by [dom] must return, and the mapping-state transition the
   touch causes. Callers must read the whole range (partial touches would
   make per-domain mapping state non-binary). *)
let read_view fb ~dom =
  if dom = fb.originator then begin
    fb.resident <- true;
    Content (* [expected] is zeroed on pageout, so Content covers it *)
  end
  else if List.mem dom fb.stale_zero then Zeros
  else if List.mem dom fb.materialized then Content
  else if fb.phase = Active && ref_count fb dom > 0 && fb.resident then begin
    fb.materialized <- dom :: fb.materialized;
    Content
  end
  else begin
    (* No resolvable claim: the fault maps the dead page over the range. *)
    fb.stale_zero <- dom :: fb.stale_zero;
    Zeros
  end

let expected_bytes t fb = function
  | Content -> fb.expected
  | Zeros -> Bytes.make (size_bytes t fb) '\000'

(* -- transfer --------------------------------------------------------- *)

type refusal = R_dead | R_invalid

let send_check fb ~src ~dst =
  if fb.phase <> Active then Error R_dead
  else if ref_count fb src = 0 then Error R_invalid
  else if src = dst then Error R_invalid
  else if fb.cached && not (List.mem dst fb.path) then Error R_invalid
  else Ok ()

let apply_send fb ~dst =
  if (not fb.volatile) && not fb.secured then fb.secured <- true;
  if dst <> fb.originator && not (List.mem dst fb.mapped_in) then begin
    (* The grant clears any stale mappings left from an earlier life of
       these addresses, so the receiver faults afresh. *)
    fb.mapped_in <- dst :: fb.mapped_in;
    fb.stale_zero <- remove fb.stale_zero dst
  end;
  add_ref fb dst

let secure_check fb = if fb.phase <> Active then Error R_dead else Ok ()
let apply_secure fb = fb.secured <- true

let free_check fb ~dom =
  if fb.phase <> Active then Error R_dead
  else if ref_count fb dom = 0 then Error R_invalid
  else Ok ()

let apply_free t fb ~dom =
  drop_ref fb dom;
  if (not fb.cached) && dom <> fb.originator && ref_count fb dom = 0 then begin
    (* Uncached receivers lose their mappings with their last reference
       (an earlier free with references outstanding keeps the mapping, as
       the subject does). *)
    fb.mapped_in <- remove fb.mapped_in dom;
    fb.materialized <- remove fb.materialized dom;
    fb.stale_zero <- remove fb.stale_zero dom
  end;
  if total_refs fb = 0 then begin
    let a = t.allocs.(fb.alloc) in
    a.live <- a.live - 1;
    if fb.cached then begin
      fb.phase <- Parked;
      fb.secured <- false;
      if not fb.resident then fb.charged <- false;
      push_parked a fb
    end
    else begin
      fb.phase <- Dead;
      fb.mapped_in <- [];
      fb.materialized <- [];
      fb.stale_zero <- [];
      fb.resident <- false;
      fb.charged <- false;
      fb.expected <- Bytes.make (size_bytes t fb) '\000'
    end
  end

(* -- pageout ---------------------------------------------------------- *)

(* Victims of [Allocator.reclaim ~max_fbufs]: resident parked buffers,
   least recently allocated first, ties on allocation order. *)
let reclaim_victims t ~alloc ~max_fbufs =
  let resident =
    List.filter (fun fb -> fb.resident) (parked_of t.allocs.(alloc))
  in
  let by_age =
    List.sort
      (fun x y ->
        match compare x.last_alloc_us y.last_alloc_us with
        | 0 -> compare x.real_id y.real_id
        | c -> c)
      resident
  in
  List.filteri (fun i _ -> i < max 0 max_fbufs) by_age

(* -- buffer-sharing policy mirror ------------------------------------- *)

(* The model's restatement of Fbufs_policy. The real policy maintains a
   path's held-page account event-wise, through allocator grow/shrink
   hooks; the model recomputes it from per-buffer state every time it is
   asked — the pages of the path's Active fbufs plus its parked fbufs
   still carrying their charge bit. The two agreeing after every step is
   what makes the policy checking differential: an accounting leak on
   either side (a missed hook, a double shrink) shows up as a held-page
   divergence at the next admission decision. Thresholds use the same
   arithmetic shape as the subject ([weight *. alpha *. free], truncated)
   so agreement is exact, not within-epsilon. *)

let held t ~alloc =
  List.fold_left
    (fun acc fb ->
      if
        fb.alloc = alloc
        && (fb.phase = Active || (fb.phase = Parked && fb.charged))
      then acc + fb.npages
      else acc)
    0 (all t)

let policy_threshold t ~alloc ~free =
  match t.allocs.(alloc).spec.a_policy with
  | None -> max_int
  | Some (_, w) -> int_of_float (w *. t.alpha *. float_of_int free)

let over_threshold t ~alloc ~free =
  held t ~alloc > policy_threshold t ~alloc ~free

(* Reclaim-before-drop victim selection: the coldest parked still-resident
   buffer of a strictly-lower-rank path that is over its own threshold at
   the given free level — lowest rank first, then least recently
   allocated, then fbuf id (total, ids are unique). *)
let next_victim t ~requester ~free =
  match t.allocs.(requester).spec.a_policy with
  | None -> None
  | Some (rrank, _) ->
      let eligible fb =
        fb.phase = Parked && fb.resident
        &&
        match t.allocs.(fb.alloc).spec.a_policy with
        | None -> false
        | Some (vrank, _) -> vrank < rrank && over_threshold t ~alloc:fb.alloc ~free
      in
      let key fb =
        let r =
          match t.allocs.(fb.alloc).spec.a_policy with
          | Some (r, _) -> r
          | None -> max_int
        in
        (r, fb.last_alloc_us, fb.real_id)
      in
      List.fold_left
        (fun best fb ->
          if not (eligible fb) then best
          else
            match best with
            | Some b when key b < key fb -> best
            | _ -> Some fb)
        None (all t)

(* The order a policy-driven pageout sweep must reclaim in: every parked
   still-resident buffer of the daemon's registered allocators, buffers of
   over-threshold paths first (judged once, at the sweep-start free
   level), then rank, then LRU, then id. The daemon reclaims a prefix of
   this list. *)
let balance_order t ~allocs ~free =
  let cands =
    List.filter
      (fun fb -> List.mem fb.alloc allocs && fb.phase = Parked && fb.resident)
      (all t)
  in
  let key fb =
    match t.allocs.(fb.alloc).spec.a_policy with
    | None -> (1, max_int, fb.last_alloc_us, fb.real_id)
    | Some (r, _) ->
        ( (if over_threshold t ~alloc:fb.alloc ~free then 0 else 1),
          r,
          fb.last_alloc_us,
          fb.real_id )
  in
  List.sort (fun a b -> compare (key a) (key b)) cands

(* -- TLB shootdown windows --------------------------------------------- *)

(* Mirror of the deferred-shootdown discipline (Pmap/Tlb). The model
   cannot predict which pages are TLB-resident — replacement is random in
   the subject — so instead of the exact pending set it tracks the
   sanctioned superset: a page enters the window set when a teardown
   event that is allowed to defer its shootdown touches it (a free, a
   pageout, an IPC deferred-free, a COW invalidation on send). The driver
   checks after every step that every shootdown actually queued in the
   real TLB falls on a windowed page — a pending on a page that never
   saw a sanctioned teardown means a shootdown was deferred on the wrong
   path. Windows only accumulate; precision comes from the companion
   per-entry audit in the driver, not from closing them. The windows
   hashtable is private to the model (nothing here is shared with the
   subject). *)

let window_open t ~vpn = Hashtbl.replace t.windows vpn ()
let window_sanctions t ~vpn = Hashtbl.mem t.windows vpn

let apply_reclaim t fb =
  fb.resident <- false;
  fb.charged <- false;
  fb.expected <- Bytes.make (size_bytes t fb) '\000';
  (* reclaim_memory unmaps (and forgets) the granted receivers; dead-page
     mappings held by domains that were never granted survive it. *)
  fb.stale_zero <-
    List.filter (fun d -> not (List.mem d fb.mapped_in)) fb.stale_zero;
  fb.mapped_in <- [];
  fb.materialized <- []
