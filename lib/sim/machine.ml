module Trace = Fbufs_trace.Trace
module Component = Fbufs_metrics.Component
module Ledger = Fbufs_metrics.Ledger
module Name = Fbufs_trace.Name

type kind = Name.t

let kind = Name.intern
let untyped = kind ""

(* All-float record: mutated in place on every charge, no boxing. *)
type busy = { mutable busy_us : float }

type obs = {
  trace : Trace.t option;
  metrics : Fbufs_metrics.Metrics.t option;
  spans : Fbufs_span.Span.t option;
  seq_hook : (t -> string -> unit) option;
  on_tick : (float -> unit) option;
}

and t = {
  name : string;
  clock : Clock.t;
  cost : Cost_model.t;
  pmem : Phys_mem.t;
  tlb : Tlb.t;
  stats : Stats.t;
  rng : Rng.t;
  busy : busy;
  stamp : float array;
  word_us : float;
  mutable next_asid : int;
  mutable next_id : int;
  mutable obs : obs option;
  mutable comp_ctx : Component.t option;
  mutable lrows : Ledger.machine option;
}

let no_obs =
  { trace = None; metrics = None; spans = None; seq_hook = None; on_tick = None }

(* The record [create] attaches; only [with_obs] sets it, and it always
   restores the previous one. *)
let ambient : obs option ref = ref None

let with_obs o f =
  let saved = !ambient in
  ambient := Some o;
  Fun.protect ~finally:(fun () -> ambient := saved) f

let create ?(name = "host") ?(cost = Cost_model.decstation_5000_200)
    ?(nframes = 4096) ?(tlb_entries = 64) ?(seed = 42) () =
  let rng = Rng.create seed in
  {
    name;
    clock = Clock.create ();
    cost;
    pmem = Phys_mem.create ~page_size:cost.Cost_model.page_size ~nframes;
    tlb = Tlb.create ~entries:tlb_entries (Rng.split rng);
    stats = Stats.create ();
    rng;
    busy = { busy_us = 0.0 };
    stamp = [| 0.0 |];
    word_us = cost.Cost_model.word_touch +. cost.Cost_model.cache_miss;
    next_asid = 1;
    next_id = 1;
    obs = !ambient;
    comp_ctx = None;
    lrows = None;
  }

let set_obs m o = m.obs <- o
let trace m = match m.obs with Some o -> o.trace | None -> None
let tracing m = match m.obs with Some { trace = Some _; _ } -> true | _ -> false
let metrics m = match m.obs with Some o -> o.metrics | None -> None
let spans m = match m.obs with Some o -> o.spans | None -> None
let spanning m = match m.obs with Some { spans = Some _; _ } -> true | _ -> false

(* Sequence point: a place where the system's invariants are expected to
   hold (an IPC reply delivered, a transfer secured, a pageout sweep
   done). The online monitors hang off this; unobserved, the cost is one
   pointer compare. *)
let seq_point m site =
  match m.obs with Some { seq_hook = Some f; _ } -> f m site | _ -> ()

(* Unobserved, the context is never read, so there is nothing to set:
   no closure, no [Some c]. *)
let with_comp m c f =
  match m.obs with
  | None -> f ()
  | Some _ -> (
      let saved = m.comp_ctx in
      m.comp_ctx <- Some c;
      match f () with
      | v ->
          m.comp_ctx <- saved;
          v
      | exception e ->
          m.comp_ctx <- saved;
          raise e)

let[@inline] advance m us =
  Clock.advance m.clock us;
  m.busy.busy_us <- m.busy.busy_us +. us

(* The machine's rows in the ledger it charges, looked up on the first
   charge into that ledger and kept. *)
let rows m ledger =
  match m.lrows with
  | Some r when Ledger.owner r == ledger -> r
  | Some _ | None ->
      let r = Ledger.machine ledger m.name in
      m.lrows <- Some r;
      r

let charge ~kind ?comp m us =
  match m.obs with
  | None -> advance m us
  | Some o -> (
      (* A surrounding [with_comp] context wins over the call site's tag:
         e.g. the page allocation inside aggregate-object deserialization
         is DAG-support cost, not allocator cost. *)
      let eff = match m.comp_ctx with Some _ as c -> c | None -> comp in
      let c = match eff with Some c -> c | None -> Component.Other in
      (match o.trace with
      | Some tr when kind != untyped ->
          (* The name [""] stands for no component tag. *)
          let comp =
            match eff with Some c -> Component.name c | None -> untyped
          in
          m.stamp.(0) <- m.clock.Clock.now;
          Trace.complete_comp tr ~at:m.stamp ~dur_us:us ~machine:m.name ~comp
            kind
      | _ -> ());
      (match o.metrics with
      | None -> ()
      | Some mx ->
          Ledger.charge
            (rows m (Fbufs_metrics.Metrics.ledger mx))
            ~comp:c ~kind us);
      (match o.spans with
      | None -> ()
      | Some s -> Fbufs_span.Span.on_charge s ~machine:m.name ~comp:c us);
      advance m us;
      match o.on_tick with Some f -> f (Clock.now m.clock) | None -> ())

(* Unobserved, the product is never boxed: the clock forms it itself
   ([Clock.advance_n]) and the busy accumulator is a flat float field.
   Observed runs pass it to [charge], whose sinks need the value. *)
let charge_n ~kind ?comp m n us =
  match m.obs with
  | None ->
      Clock.advance_n m.clock n us;
      m.busy.busy_us <- m.busy.busy_us +. (float_of_int n *. us)
  | Some _ -> charge ~kind ?comp m (float_of_int n *. us)

let trace_instant m ?domain ?path_id ?args kind =
  match trace m with
  | None -> ()
  | Some tr ->
      Trace.instant tr ~ts_us:(Clock.now m.clock) ~machine:m.name ?domain
        ?path_id ?args kind

let span_begin m ?domain ?path_id ?args kind =
  match trace m with
  | None -> 0
  | Some tr ->
      Trace.begin_span tr ~ts_us:(Clock.now m.clock) ~machine:m.name ?domain
        ?path_id ?args kind

let span_end m ?args id =
  match trace m with
  | None -> ()
  | Some tr -> if id <> 0 then Trace.end_span tr ~ts_us:(Clock.now m.clock) ?args id

let async_begin m ?domain ?path_id ?args ~id kind =
  match trace m with
  | None -> ()
  | Some tr ->
      Trace.async_begin tr ~ts_us:(Clock.now m.clock) ~machine:m.name ?domain
        ?path_id ?args ~id kind

let async_end m ?domain ?path_id ?args ~id kind =
  match trace m with
  | None -> ()
  | Some tr ->
      Trace.async_end tr ~ts_us:(Clock.now m.clock) ~machine:m.name ?domain
        ?path_id ?args ~id kind

(* Causal span plumbing. Like the trace spans above, ids are 0 and the
   calls do nothing when no sink is attached, so instrumentation sites
   need no guards; unlike trace spans these carry the transfer context
   that {!charge} attributes cost into. *)

let transfer_begin m ?domain ?path_id label =
  match spans m with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.transfer_begin s ~machine:m.name
        ~ts_us:(Clock.now m.clock) ?domain ?path_id label

let transfer_end m tid =
  match spans m with
  | None -> ()
  | Some s ->
      Fbufs_span.Span.transfer_end s ~machine:m.name ~ts_us:(Clock.now m.clock)
        tid

let with_transfer m ?domain ?path_id label f =
  match spans m with
  | None -> f ()
  | Some _ ->
      let tid = transfer_begin m ?domain ?path_id label in
      Fun.protect ~finally:(fun () -> transfer_end m tid) f

(* Outside a transfer context no span opens, so the arguments that
   would be boxed for the sink (the time, [Some domain]) are not formed;
   nor for closing span 0. *)
let span_enter m ~domain ?path_id kind =
  match spans m with
  | Some s when Fbufs_span.Span.current s ~machine:m.name <> 0 ->
      Fbufs_span.Span.enter s ~machine:m.name ~ts_us:(Clock.now m.clock)
        ~domain ?path_id kind
  | Some _ | None -> 0

let span_exit m id =
  match spans m with
  | Some s when id <> 0 ->
      Fbufs_span.Span.finish s ~machine:m.name ~ts_us:(Clock.now m.clock) id
  | Some _ | None -> ()

let span_adopt m ~transfer ~follows ~domain ?path_id kind =
  match spans m with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.adopt s ~machine:m.name ~ts_us:(Clock.now m.clock)
        ~transfer ~follows ~domain ?path_id kind

let span_flight m ~transfer ~follows ~start_us ~end_us ?path_id kind =
  match spans m with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.flight s ~transfer ~follows ~start_us ~end_us ?path_id
        kind

let current_transfer m =
  match spans m with
  | None -> 0
  | Some s -> Fbufs_span.Span.current s ~machine:m.name

let elapse_to ~kind m t =
  match m.obs with
  | None -> Clock.advance_to m.clock t
  | Some o -> (
      (match o.trace with
      | Some tr when kind != untyped ->
          let now = Clock.now m.clock in
          if t > now then
            Trace.complete tr ~ts_us:now ~dur_us:(t -. now) ~machine:m.name
              (Name.name (kind :> int))
      | _ -> ());
      Clock.advance_to m.clock t;
      match o.on_tick with Some f -> f (Clock.now m.clock) | None -> ())

let now m = Clock.now m.clock

let fresh_asid m =
  let a = m.next_asid in
  m.next_asid <- a + 1;
  a

let fresh_id m =
  let i = m.next_id in
  m.next_id <- i + 1;
  i

let busy_us m = m.busy.busy_us

let checkpoint m = (now m, busy_us m)

let load_since m (t0, busy0) =
  let span = now m -. t0 in
  if span <= 0.0 then 0.0 else Float.min 1.0 ((busy_us m -. busy0) /. span)

(* The kernel's IPC path occupies a distinguished address space (ASID 0)
   and touches a working set of code and data pages on every crossing. *)
let domain_crossing_tlb_pressure ~entries:n m =
  if tracing m then
    trace_instant m ~args:[ ("entries", Fbufs_trace.Trace.Int n) ]
      "tlb.pressure";
  for i = 0 to n - 1 do
    Tlb.insert m.tlb ~asid:0 ~vpn:(0x70000 + (i * 7) + Rng.int m.rng 5)
      ~writable:false
  done
