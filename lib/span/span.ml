module Comp = Fbufs_metrics.Component

(* Causal span sink.

   One transfer = one end-to-end movement of application data (a message
   pushed into the stack, its PDUs, their delivery, the acknowledgement).
   Spans nest within a machine (parent/child) and link across machines
   and asynchrony boundaries (follows-from). Every simulated-microsecond
   charge lands in the innermost open span of the charging machine, so
   span charges partition the transfer's cost by construction.

   Accounting is integer nanoseconds: each charge is rounded once
   ([ns_of_us]) and the same integer is added to the span cell, the
   transfer cell and the machine arrival counter. Integer addition is
   associative, so the exactness invariants the checker and the report
   rely on — span charges sum to the transfer total, transfer totals plus
   untracked charges sum to the machine total — hold with zero tolerance
   while remaining real checks of the bookkeeping, not float luck. *)

let ncomp = List.length Comp.all
let ns_of_us us = int_of_float (Float.round (us *. 1000.0))
let us_of_ns ns = float_of_int ns /. 1000.0

(* Pseudo-machine name charged with wire occupancy ({!flight} spans):
   serialization and propagation consume link time, not any CPU. *)
let wire = "wire"

type span = {
  id : int;
  transfer : int;
  parent : int;  (* 0 = none (root or adopted) *)
  follows : int;  (* 0 = none; may cross transfers at a root *)
  kind : string;
  machine : string;
  domain : string;
  path_id : int;
  start_us : float;
  mutable end_us : float;  (* nan while open *)
  charges_ns : int array;
}

type transfer = {
  tid : int;
  label : string;
  root : int;
  t_start_us : float;
  cells_ns : int array;
  mutable spans : span list;  (* newest first; [spans_of] reverses *)
}

(* Per-machine dynamic state: the open-span stack and the current
   transfer context. Each stack entry remembers the context to restore
   when it pops, which makes nesting transfers and adopting foreign
   contexts the same save/restore motion. *)
type mctx = {
  mutable stack : (span * int) list;
  mutable ctx : int;  (* current transfer id; 0 = none *)
  untracked_ns : int array;
  mutable charged_ns : int;
  mutable ncharges : int;
}

type t = {
  mutable next_id : int;
  transfers : (int, transfer) Hashtbl.t;
  mutable torder : int list;  (* newest first *)
  by_id : (int, span) Hashtbl.t;
  machines : (string, mctx) Hashtbl.t;
  mutable morder : string list;  (* newest first *)
  mutable violations : string list;  (* discipline breaches seen online *)
  mutable tap : (transfer -> unit) option;
  forgotten : (int, unit) Hashtbl.t;  (* tids evicted by {!forget} *)
  (* one-entry context cache: charges arrive machine-by-machine in long
     runs, and [Machine.t] passes the same name string every time, so a
     physical-equality hit skips the hashtable on the per-charge path.
     A miss stores the context itself, so switching machines allocates
     nothing; [no_name] matches no caller's string. *)
  mutable cached_name : string;
  mutable cached_mc : mctx;
}

let new_mctx () =
  {
    stack = [];
    ctx = 0;
    untracked_ns = Array.make ncomp 0;
    charged_ns = 0;
    ncharges = 0;
  }

let no_name = Bytes.to_string (Bytes.create 0)

let create () =
  {
    next_id = 1;
    transfers = Hashtbl.create 64;
    torder = [];
    by_id = Hashtbl.create 256;
    machines = Hashtbl.create 8;
    morder = [];
    violations = [];
    tap = None;
    forgotten = Hashtbl.create 64;
    cached_name = no_name;
    cached_mc = new_mctx ();
  }

let set_tap t f = t.tap <- f

let fresh t =
  let i = t.next_id in
  t.next_id <- i + 1;
  i

let mctx_slow t machine =
  let mc =
    match Hashtbl.find t.machines machine with
    | mc -> mc
    | exception Not_found ->
        let mc = new_mctx () in
        Hashtbl.add t.machines machine mc;
        t.morder <- machine :: t.morder;
        mc
  in
  t.cached_name <- machine;
  t.cached_mc <- mc;
  mc

let mctx t machine =
  if t.cached_name == machine then t.cached_mc else mctx_slow t machine

let violate t fmt = Printf.ksprintf (fun s -> t.violations <- s :: t.violations) fmt

let add_span t tr sp =
  Hashtbl.add t.by_id sp.id sp;
  tr.spans <- sp :: tr.spans

let push t mc tr sp =
  add_span t tr sp;
  mc.stack <- (sp, mc.ctx) :: mc.stack;
  mc.ctx <- sp.transfer

let transfer_begin t ~machine ~ts_us ?(domain = "") ?(path_id = 0) label =
  let mc = mctx t machine in
  let tid = fresh t in
  let rid = fresh t in
  (* A transfer opened while another span is on CPU (the ack handler
     pumping the next message) is caused by it: record a follows edge at
     the new root so cross-transfer causality survives extraction. *)
  let follows = match mc.stack with (top, _) :: _ -> top.id | [] -> 0 in
  let root =
    {
      id = rid;
      transfer = tid;
      parent = 0;
      follows;
      kind = label;
      machine;
      domain;
      path_id;
      start_us = ts_us;
      end_us = Float.nan;
      charges_ns = Array.make ncomp 0;
    }
  in
  let tr =
    {
      tid;
      label;
      root = rid;
      t_start_us = ts_us;
      cells_ns = Array.make ncomp 0;
      spans = [];
    }
  in
  Hashtbl.add t.transfers tid tr;
  t.torder <- tid :: t.torder;
  push t mc tr root;
  tid

let pop_one mc ~ts_us =
  match mc.stack with
  | [] -> None
  | (sp, restore) :: rest ->
      sp.end_us <- ts_us;
      mc.stack <- rest;
      mc.ctx <- restore;
      Some sp

let transfer_end t ~machine ~ts_us tid =
  if tid <> 0 then begin
    let mc = mctx t machine in
    match Hashtbl.find_opt t.transfers tid with
    | None ->
        if not (Hashtbl.mem t.forgotten tid) then
          violate t "transfer_end: unknown transfer #%d" tid
    | Some tr ->
        if
          not
            (List.exists (fun ((sp : span), _) -> sp.id = tr.root) mc.stack)
        then
          violate t "transfer_end: root span of transfer #%d not open on %s"
            tid machine
        else begin
          let rec drain () =
            match pop_one mc ~ts_us with
            | None -> ()
            | Some sp ->
                if sp.id <> tr.root then begin
                  violate t
                    "transfer_end: span #%d (%s) still open inside transfer \
                     #%d"
                    sp.id sp.kind tid;
                  drain ()
                end
          in
          drain ();
          match t.tap with Some f -> f tr | None -> ()
        end
  end

let enter t ~machine ~ts_us ?(domain = "") ?(path_id = 0) kind =
  let mc = mctx t machine in
  if mc.ctx = 0 then 0
  else begin
    let parent = match mc.stack with (top, _) :: _ -> top.id | [] -> 0 in
    let sp =
      {
        id = fresh t;
        transfer = mc.ctx;
        parent;
        follows = 0;
        kind;
        machine;
        domain;
        path_id;
        start_us = ts_us;
        end_us = Float.nan;
        charges_ns = Array.make ncomp 0;
      }
    in
    let tr = Hashtbl.find t.transfers mc.ctx in
    push t mc tr sp;
    sp.id
  end

let finish t ~machine ~ts_us id =
  if id <> 0 then begin
    let mc = mctx t machine in
    if not (List.exists (fun ((sp : span), _) -> sp.id = id) mc.stack) then
      violate t "finish: span #%d is not open on %s" id machine
    else
      let rec drain () =
        match pop_one mc ~ts_us with
        | None -> ()
        | Some sp ->
            if sp.id <> id then begin
              violate t "finish: span #%d closed while #%d (%s) still open"
                id sp.id sp.kind;
              drain ()
            end
      in
      drain ()
  end

let adopt t ~machine ~ts_us ~transfer ?(follows = 0) ?(domain = "")
    ?(path_id = 0) kind =
  if transfer = 0 then 0
  else
    match Hashtbl.find_opt t.transfers transfer with
    | None ->
        if not (Hashtbl.mem t.forgotten transfer) then
          violate t "adopt: unknown transfer #%d" transfer;
        0
    | Some tr ->
        let mc = mctx t machine in
        let follows = if follows <> 0 then follows else tr.root in
        let sp =
          {
            id = fresh t;
            transfer;
            parent = 0;
            follows;
            kind;
            machine;
            domain;
            path_id;
            start_us = ts_us;
            end_us = Float.nan;
            charges_ns = Array.make ncomp 0;
          }
        in
        push t mc tr sp;
        sp.id

let flight t ~transfer ~follows ~start_us ~end_us ?(path_id = 0) kind =
  if transfer = 0 then 0
  else
    match Hashtbl.find_opt t.transfers transfer with
    | None ->
        if not (Hashtbl.mem t.forgotten transfer) then
          violate t "flight: unknown transfer #%d" transfer;
        0
    | Some tr ->
        let sp =
          {
            id = fresh t;
            transfer;
            parent = 0;
            follows = (if follows <> 0 then follows else tr.root);
            kind;
            machine = wire;
            domain = "";
            path_id;
            start_us;
            end_us;
            charges_ns = Array.make ncomp 0;
          }
        in
        let ns = ns_of_us (end_us -. start_us) in
        let i = Comp.index Comp.Net in
        sp.charges_ns.(i) <- ns;
        tr.cells_ns.(i) <- tr.cells_ns.(i) + ns;
        let mc = mctx t wire in
        mc.charged_ns <- mc.charged_ns + ns;
        mc.ncharges <- mc.ncharges + 1;
        add_span t tr sp;
        sp.id

let on_charge t ~machine ~comp us =
  let mc = mctx t machine in
  let ns = ns_of_us us in
  mc.charged_ns <- mc.charged_ns + ns;
  mc.ncharges <- mc.ncharges + 1;
  let i = Comp.index comp in
  match mc.stack with
  | (sp, _) :: _ ->
      sp.charges_ns.(i) <- sp.charges_ns.(i) + ns;
      let tr = Hashtbl.find t.transfers sp.transfer in
      tr.cells_ns.(i) <- tr.cells_ns.(i) + ns
  | [] -> mc.untracked_ns.(i) <- mc.untracked_ns.(i) + ns

let forget t tid =
  match Hashtbl.find_opt t.transfers tid with
  | None -> ()
  | Some tr ->
      List.iter (fun (sp : span) -> Hashtbl.remove t.by_id sp.id) tr.spans;
      Hashtbl.remove t.transfers tid;
      t.torder <- List.filter (fun i -> i <> tid) t.torder;
      Hashtbl.replace t.forgotten tid ()

(* Read per allocation and before every span is opened: allocates
   nothing, and registers no machine. *)
let current t ~machine =
  if t.cached_name == machine then t.cached_mc.ctx
  else
    match Hashtbl.find t.machines machine with
    | mc -> mc.ctx
    | exception Not_found -> 0

(* -- queries ----------------------------------------------------------- *)

let transfers t =
  List.rev_map (fun tid -> Hashtbl.find t.transfers tid) t.torder

let find_transfer t tid = Hashtbl.find_opt t.transfers tid
let find_span t id = Hashtbl.find_opt t.by_id id
let spans_of tr = List.rev tr.spans
let machines t = List.rev t.morder

let untracked_ns t ~machine =
  match Hashtbl.find_opt t.machines machine with
  | None -> Array.make ncomp 0
  | Some mc -> Array.copy mc.untracked_ns

let charged_ns t ~machine =
  match Hashtbl.find_opt t.machines machine with
  | None -> 0
  | Some mc -> mc.charged_ns

let charge_count t ~machine =
  match Hashtbl.find_opt t.machines machine with
  | None -> 0
  | Some mc -> mc.ncharges

let total_ns tr = Array.fold_left ( + ) 0 tr.cells_ns
let span_total_ns sp = Array.fold_left ( + ) 0 sp.charges_ns
let violations t = List.rev t.violations

(* -- well-formedness ---------------------------------------------------- *)

let is_closed sp = not (Float.is_nan sp.end_us)

let check t =
  let bad = ref (violations t) in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  Hashtbl.iter
    (fun name (mc : mctx) ->
      List.iter
        (fun ((sp : span), _) ->
          err "machine %s: span #%d (%s) never finished" name sp.id sp.kind)
        mc.stack)
    t.machines;
  List.iter
    (fun tr ->
      let spans = spans_of tr in
      (* Exactly one causal root: the transfer's own root span. Other
         parentless spans must carry a same-transfer follows edge (adopt,
         flight); the root itself may follow a span of another transfer. *)
      List.iter
        (fun sp ->
          if not (is_closed sp) then
            err "transfer #%d: span #%d (%s) unfinished" tr.tid sp.id sp.kind;
          if sp.parent = 0 && sp.id <> tr.root then begin
            match find_span t sp.follows with
            | Some f when f.transfer = tr.tid -> ()
            | Some _ | None ->
                err
                  "transfer #%d: span #%d (%s) is an orphan (no parent, no \
                   same-transfer follows)"
                  tr.tid sp.id sp.kind
          end;
          (if sp.follows <> 0 && find_span t sp.follows = None then
             err "transfer #%d: span #%d follows unknown span #%d" tr.tid
               sp.id sp.follows);
          match if sp.parent = 0 then None else find_span t sp.parent with
          | None ->
              if sp.parent <> 0 then
                err "transfer #%d: span #%d has unknown parent #%d" tr.tid
                  sp.id sp.parent
          | Some p ->
              if p.transfer <> tr.tid then
                err "transfer #%d: span #%d's parent lives in transfer #%d"
                  tr.tid sp.id p.transfer;
              if is_closed sp && is_closed p then
                if sp.start_us < p.start_us || sp.end_us > p.end_us then
                  err
                    "transfer #%d: span #%d [%.3f,%.3f] outside parent #%d \
                     [%.3f,%.3f]"
                    tr.tid sp.id sp.start_us sp.end_us p.id p.start_us
                    p.end_us)
        spans;
      (* The exactness contract: per component, span charges partition the
         transfer's cells — integer equality, zero tolerance. *)
      List.iteri
        (fun i comp ->
          let sum =
            List.fold_left (fun acc sp -> acc + sp.charges_ns.(i)) 0 spans
          in
          if sum <> tr.cells_ns.(i) then
            err "transfer #%d: %s spans sum to %d ns but cells say %d ns"
              tr.tid (Comp.label comp) sum tr.cells_ns.(i))
        Comp.all)
    (transfers t);
  (* Per machine: span charges plus untracked charges account for every
     nanosecond that arrived — nothing lost, nothing double-counted. *)
  Hashtbl.iter
    (fun name (mc : mctx) ->
      let spanned = ref 0 in
      Hashtbl.iter
        (fun _ (sp : span) ->
          if sp.machine = name then spanned := !spanned + span_total_ns sp)
        t.by_id;
      let untracked = Array.fold_left ( + ) 0 mc.untracked_ns in
      if !spanned + untracked <> mc.charged_ns then
        err
          "machine %s: spans (%d ns) + untracked (%d ns) <> charged (%d ns)"
          name !spanned untracked mc.charged_ns)
    t.machines;
  List.rev !bad
