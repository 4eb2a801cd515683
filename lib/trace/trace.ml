type arg = Str of string | Int of int | Float of float

type phase =
  | Instant
  | Complete of float
  | Span_begin
  | Span_end
  | Async_begin
  | Async_end

type event = {
  ts_us : float;
  machine : string;
  domain : string;
  path_id : int;
  kind : string;
  phase : phase;
  span : int;
  args : (string * arg) list;
}

type open_span = {
  o_ts : float;
  o_machine : string;
  o_domain : string;
  o_path : int;
  o_kind : string;
}

(* Every trace stores its events struct-of-arrays rather than as an
   array of event records: an always-armed flight recorder keeps its
   window live across every minor GC, and a window of boxed records
   turns each collection into a promotion of the whole window. Columns
   of unboxed floats and ints hold no minor-heap pointers at all, and the
   string columns almost always point at shared literals (kinds) or
   interned machine names, so the retained window costs the GC nothing.
   The common single [("comp", Str _)] argument is split into its own
   string column; only the rare richer argument lists are retained
   boxed. *)
type cols = {
  c_ts : float array;
  c_dur : float array; (* Complete duration; 0.0 for other phases *)
  c_machine : string array;
  c_domain : string array;
  c_kind : string array;
  c_path : int array;
  c_phase : int array;
  c_span : int array;
  c_comp : string array; (* "" = no comp arg *)
  c_extra : (string * arg) list array; (* args other than a lone comp *)
}

type sampler = {
  skip : float array;
      (* weight budget until the next acceptance; decremented inline
         per event (unboxed float-array cell, so the common case is a
         subtract and a compare with no call and no allocation) *)
  accept : event -> float -> float; (* event -> weight -> next budget *)
}

type t = {
  mutable cols : cols; (* grown geometrically up to [cap] *)
  mutable len : int; (* retained events *)
  mutable start : int; (* oldest retained event; moves once a ring is full *)
  cap : int; (* retention bound; max_int when unbounded *)
  ring : bool;
  latency : bool; (* maintain per-(kind, path) histograms *)
  mutable dropped : int;
  mutable next_span : int;
  mutable sampler : sampler option;
  last : float array; (* newest timestamp seen; float array so the
                         per-event update is an unboxed store *)
  spans : (int, open_span) Hashtbl.t;
  asyncs : (string * int, float * int) Hashtbl.t; (* start ts, path_id *)
  hist : (string * int, Histogram.t) Hashtbl.t;
}

(* Column codes of [phase]; a Complete's duration lives in [c_dur]. A
   charge slice ({!complete_comp}) is a Complete stored by ids: its kind
   and component names go in the [c_span] and [c_path] slots, which such
   a slice leaves at 0 and -1, and its string columns are not written,
   so the hottest emission site stores no pointer (no write barrier). *)
let ph_instant = 0
let ph_complete = 1
let ph_span_begin = 2
let ph_span_end = 3
let ph_async_begin = 4
let ph_async_end = 5
let ph_charge = 6

let phase_of_code code dur =
  match code with
  | 0 -> Instant
  | 1 | 6 -> Complete dur
  | 2 -> Span_begin
  | 3 -> Span_end
  | 4 -> Async_begin
  | _ -> Async_end

let make_event ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span ~comp ~extra
    =
  {
    ts_us = ts;
    machine;
    domain;
    path_id = path;
    kind;
    phase = phase_of_code phase dur;
    span;
    args =
      (match extra with
      | [] -> if comp = "" then [] else [ ("comp", Str comp) ]
      | l -> l);
  }

let event_of_cols c i =
  if c.c_phase.(i) = ph_charge then
    make_event ~ts:c.c_ts.(i) ~dur:c.c_dur.(i) ~machine:c.c_machine.(i)
      ~domain:"" ~path:(-1)
      ~kind:(Name.name c.c_span.(i))
      ~phase:ph_complete ~span:0
      ~comp:(Name.name c.c_path.(i))
      ~extra:[]
  else
    make_event ~ts:c.c_ts.(i) ~dur:c.c_dur.(i) ~machine:c.c_machine.(i)
      ~domain:c.c_domain.(i) ~path:c.c_path.(i) ~kind:c.c_kind.(i)
      ~phase:c.c_phase.(i) ~span:c.c_span.(i) ~comp:c.c_comp.(i)
      ~extra:c.c_extra.(i)

let make_cols n =
  {
    c_ts = Array.make n 0.0;
    c_dur = Array.make n 0.0;
    c_machine = Array.make n "";
    c_domain = Array.make n "";
    c_kind = Array.make n "";
    c_path = Array.make n 0;
    c_phase = Array.make n 0;
    c_span = Array.make n 0;
    c_comp = Array.make n "";
    c_extra = Array.make n [];
  }

let initial_cols = 1024

let create ?(ring = false) ?(latency = true) ?capacity () =
  let cap =
    match capacity with
    | Some c when c <= 0 ->
        invalid_arg "Trace.create: capacity must be positive"
    | Some c -> c
    | None when ring -> invalid_arg "Trace.create: ring requires a capacity"
    | None -> max_int
  in
  {
    cols = make_cols (min cap initial_cols);
    len = 0;
    start = 0;
    cap;
    ring;
    latency;
    dropped = 0;
    next_span = 1;
    sampler = None;
    last = [| 0.0 |];
    spans = Hashtbl.create 16;
    asyncs = Hashtbl.create 64;
    hist = Hashtbl.create 64;
  }

let set_sampler t s = t.sampler <- s
let last_ts t = t.last.(0)
let event_count t = t.len
let dropped t = t.dropped

let iter_from t first f =
  let c = t.cols in
  let n = Array.length c.c_ts in
  for i = first to t.len - 1 do
    let j = t.start + i in
    f (event_of_cols c (if j >= n then j - n else j))
  done

let iter t f = iter_from t 0 f

let events ?last t =
  let first = match last with Some k -> max 0 (t.len - k) | None -> 0 in
  let acc = ref [] in
  iter_from t first (fun ev -> acc := ev :: !acc);
  List.rev !acc

(* Double the columns, up to [cap]. Only called before the window first
   fills, so the retained events are exactly [0, len). *)
let grow t =
  let c = t.cols in
  let n = Array.length c.c_ts in
  let extra = (if n > t.cap / 2 then t.cap else 2 * n) - n in
  let ext a fill = Array.append a (Array.make extra fill) in
  t.cols <-
    {
      c_ts = ext c.c_ts 0.0;
      c_dur = ext c.c_dur 0.0;
      c_machine = ext c.c_machine "";
      c_domain = ext c.c_domain "";
      c_kind = ext c.c_kind "";
      c_path = ext c.c_path 0;
      c_phase = ext c.c_phase 0;
      c_span = ext c.c_span 0;
      c_comp = ext c.c_comp "";
      c_extra = ext c.c_extra [];
    }

(* Claim the slot the next event lands in, or -1 when a full bounded
   trace drops it. A full ring overwrites its oldest event instead
   (counted as dropped); [start < cap], so a compare-and-subtract
   replaces the integer division a [mod] would cost on every event. *)
let slot t =
  if t.len < t.cap then begin
    if t.len = Array.length t.cols.c_ts then grow t;
    let i = t.len in
    t.len <- i + 1;
    i
  end
  else begin
    t.dropped <- t.dropped + 1;
    if t.ring then begin
      let i = t.start in
      let s = i + 1 in
      t.start <- (if s >= t.cap then 0 else s);
      i
    end
    else -1
  end

(* The one write path. Fields go straight into the columns — stores of
   the same shared string a slot already holds are skipped, so rewriting
   a ring slot costs no write barrier — and the sampler's budget is
   decremented inline; an event record is only materialized when the
   sampler accepts one. The sampler sees every event, including those a
   full bounded trace drops. *)
let write t ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span ~comp ~extra =
  if ts > t.last.(0) then t.last.(0) <- ts;
  let i = slot t in
  if i >= 0 then begin
    let c = t.cols in
    c.c_ts.(i) <- ts;
    c.c_dur.(i) <- dur;
    if c.c_machine.(i) != machine then c.c_machine.(i) <- machine;
    if c.c_domain.(i) != domain then c.c_domain.(i) <- domain;
    if c.c_kind.(i) != kind then c.c_kind.(i) <- kind;
    c.c_path.(i) <- path;
    c.c_phase.(i) <- phase;
    c.c_span.(i) <- span;
    if c.c_comp.(i) != comp then c.c_comp.(i) <- comp;
    if c.c_extra.(i) != extra then c.c_extra.(i) <- extra
  end;
  match t.sampler with
  | None -> ()
  | Some s ->
      let w = if phase = ph_complete then Float.max dur 1e-9 else 1.0 in
      let sk = s.skip.(0) -. w in
      if sk > 0.0 then s.skip.(0) <- sk
      else
        let ev =
          if i >= 0 then event_of_cols t.cols i
          else
            make_event ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span
              ~comp ~extra
        in
        s.skip.(0) <- s.accept ev w

let write_args t ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span args =
  match args with
  | [ ("comp", Str comp) ] ->
      write t ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span ~comp
        ~extra:[]
  | extra ->
      write t ~ts ~dur ~machine ~domain ~path ~kind ~phase ~span ~comp:""
        ~extra

let record_latency t ~kind ~path_id dur =
  if t.latency then begin
    let key = (kind, path_id) in
    let h =
      match Hashtbl.find_opt t.hist key with
      | Some h -> h
      | None ->
          let h = Histogram.create () in
          Hashtbl.add t.hist key h;
          h
    in
    Histogram.add h dur
  end

let instant t ~ts_us ~machine ?(domain = "") ?(path_id = -1) ?(args = []) kind
    =
  write_args t ~ts:ts_us ~dur:0.0 ~machine ~domain ~path:path_id ~kind
    ~phase:ph_instant ~span:0 args

let complete t ~ts_us ~dur_us ~machine ?(domain = "") ?(path_id = -1)
    ?(args = []) kind =
  write_args t ~ts:ts_us ~dur:dur_us ~machine ~domain ~path:path_id ~kind
    ~phase:ph_complete ~span:0 args;
  record_latency t ~kind ~path_id dur_us

(* The per-charge slice is by far the hottest emission site (tens of
   thousands per run), so it has its own write: no optional arguments,
   no args list, the kind and component stored as ids ([ph_charge]), and
   the start time read from the caller's cell [at] in place, since a
   float argument would be boxed per charge. [comp] is the id of [""]
   for no component tag. *)
let complete_comp t ~at ~dur_us ~machine ~(comp : Name.t) (kind : Name.t) =
  let ts = at.(0) in
  if ts > t.last.(0) then t.last.(0) <- ts;
  let i = slot t in
  if i >= 0 then begin
    let c = t.cols in
    c.c_ts.(i) <- ts;
    c.c_dur.(i) <- dur_us;
    if c.c_machine.(i) != machine then c.c_machine.(i) <- machine;
    c.c_phase.(i) <- ph_charge;
    c.c_span.(i) <- (kind :> int);
    c.c_path.(i) <- (comp :> int)
  end;
  (match t.sampler with
  | None -> ()
  | Some s ->
      (* [Float.max dur_us 1e-9] without its sign and NaN tests: a charge
         is never NaN. *)
      let w = if dur_us > 1e-9 then dur_us else 1e-9 in
      let sk = s.skip.(0) -. w in
      if sk > 0.0 then s.skip.(0) <- sk
      else
        let ev =
          if i >= 0 then event_of_cols t.cols i
          else
            make_event ~ts ~dur:dur_us ~machine ~domain:"" ~path:(-1)
              ~kind:(Name.name (kind :> int))
              ~phase:ph_complete ~span:0
              ~comp:(Name.name (comp :> int))
              ~extra:[]
        in
        s.skip.(0) <- s.accept ev w);
  if t.latency then
    record_latency t ~kind:(Name.name (kind :> int)) ~path_id:(-1) dur_us

let begin_span t ~ts_us ~machine ?(domain = "") ?(path_id = -1) ?(args = [])
    kind =
  let id = t.next_span in
  t.next_span <- id + 1;
  Hashtbl.replace t.spans id
    {
      o_ts = ts_us;
      o_machine = machine;
      o_domain = domain;
      o_path = path_id;
      o_kind = kind;
    };
  write_args t ~ts:ts_us ~dur:0.0 ~machine ~domain ~path:path_id ~kind
    ~phase:ph_span_begin ~span:id args;
  id

let end_span t ~ts_us ?(args = []) id =
  match Hashtbl.find_opt t.spans id with
  | None -> ()
  | Some o ->
      Hashtbl.remove t.spans id;
      write_args t ~ts:ts_us ~dur:0.0 ~machine:o.o_machine ~domain:o.o_domain
        ~path:o.o_path ~kind:o.o_kind ~phase:ph_span_end ~span:id args;
      record_latency t ~kind:o.o_kind ~path_id:o.o_path (ts_us -. o.o_ts)

let async_begin t ~ts_us ~machine ?(domain = "") ?(path_id = -1) ?(args = [])
    ~id kind =
  Hashtbl.replace t.asyncs (kind, id) (ts_us, path_id);
  write_args t ~ts:ts_us ~dur:0.0 ~machine ~domain ~path:path_id ~kind
    ~phase:ph_async_begin ~span:id args

let async_end t ~ts_us ~machine ?(domain = "") ?(path_id = -1) ?(args = [])
    ~id kind =
  let path_id =
    match Hashtbl.find_opt t.asyncs (kind, id) with
    | Some (start, begin_path) ->
        Hashtbl.remove t.asyncs (kind, id);
        record_latency t ~kind ~path_id:begin_path (ts_us -. start);
        begin_path
    | None -> path_id
  in
  write_args t ~ts:ts_us ~dur:0.0 ~machine ~domain ~path:path_id ~kind
    ~phase:ph_async_end ~span:id args

let summary t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.hist []
  |> List.sort (fun ((ka, pa), _) ((kb, pb), _) ->
         match String.compare ka kb with 0 -> compare pa pb | c -> c)
