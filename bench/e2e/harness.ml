(* Shared machinery of the end-to-end benchmark: the seeded input
   generator, the allocation-free timing buffer, the bench-side span
   recorder, the timed-phase engine and the statistics every workload
   reports. Nothing here reaches into the mechanism's observability
   sinks: layers are timed from outside, around their public calls. *)

open Bigarray
module Machine = Fbufs_sim.Machine
module Stats = Fbufs_sim.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)

module Gen = struct
  type t = { mutable s : int }

  (* The splitmix64 finalizer folded to OCaml's 63-bit ints: ample
     quality for picking sizes, senders and payload tags. *)
  let mix z =
    let z = (z lxor (z lsr 31)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 29)) * 0x14D049BB133111EB in
    z lxor (z lsr 32)

  let create ~seed ~stream = { s = mix ((seed * 0x2545F4914F6CDD1D) + stream) }

  let next t =
    t.s <- t.s + 0x1E3779B97F4A7C15;
    mix t.s

  let below t n = (next t land max_int) mod n
end

(* The word a sender writes into page [page] of its [msg]-th message and
   the receiver expects there: a pure function of the benchmark seed, so
   the receiving side recomputes it instead of being told. *)
let tag ~seed ~msg ~page =
  Gen.mix (Gen.mix ((seed * 0x2545F4914F6CDD1D) + msg) + page) land 0xFFFF_FFFF

(* A shuffled deck: every block of draws holds each value exactly its
   weight's number of times, in a seeded order. The size mix is then
   identical for every seed, so seeds change the order of the work but
   not its amount, and per-op averages do not drift with the seed. *)
module Deck = struct
  type t = { cards : int array; mutable pos : int; gen : Gen.t }

  let create gen weighted =
    let cards =
      List.concat_map (fun (v, n) -> List.init n (fun _ -> v)) weighted
      |> Array.of_list
    in
    { cards; pos = Array.length cards; gen }

  let next t =
    let n = Array.length t.cards in
    if t.pos = n then begin
      for i = n - 1 downto 1 do
        let j = Gen.below t.gen (i + 1) in
        let v = t.cards.(i) in
        t.cards.(i) <- t.cards.(j);
        t.cards.(j) <- v
      done;
      t.pos <- 0
    end;
    let v = t.cards.(t.pos) in
    t.pos <- t.pos + 1;
    v
end

(* ------------------------------------------------------------------ *)
(* Per-run context                                                     *)

type ctx = {
  seed : int;
  smoke : bool;
  self_test : bool;
  cli : string;  (** the fbufs_cli executable the repro workload runs *)
  golden : string;  (** directory of the CLI's golden reports *)
  tmp : string;  (** scratch directory for the CLI's observed outputs *)
  mutable plant : int;
      (** XORed into the next expected tag: 1 for the first timed op under
          [--self-test], so a correct run must report an error *)
  mutable errors : int;
  mutable first_error : string;
  layer : (string, float) Hashtbl.t;
      (** per-layer values a workload measures itself (CLI timings) *)
}

let error ctx msg =
  if ctx.errors = 0 then ctx.first_error <- msg;
  ctx.errors <- ctx.errors + 1

(* Simulated CPU time: the summed busy time of a workload's hosts. *)
let busy machines =
  let s = ref 0.0 in
  for i = 0 to Array.length machines - 1 do
    s := !s +. Machine.busy_us machines.(i)
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Bench-side spans                                                    *)

module Span = struct
  let names =
    [|
      "core.alloc"; "core.free"; "core.send"; "core.secure"; "core.pageout";
      "vm.write"; "vm.read"; "ipc.call"; "ipc.free_deferred";
      "protocols.push"; "protocols.pop"; "netdev.des"; "netdev.ack";
      "check.gen"; "check.replay";
    |]

  let core_alloc = 0
  let core_free = 1
  let core_send = 2
  let core_secure = 3
  let core_pageout = 4
  let vm_write = 5
  let vm_read = 6
  let ipc_call = 7
  let ipc_free_deferred = 8
  let protocols_push = 9
  let protocols_pop = 10
  let netdev_des = 11
  let netdev_ack = 12
  let check_gen = 13
  let check_replay = 14
  let nlayers = Array.length names
  let max_depth = 16

  type log = {
    l_op : int array;
    l_name : int array;
    l_parent : int array;
    l_t0 : int array;
    l_t1 : int array;
    l_s0 : float array;
    l_s1 : float array;
    mutable len : int;
  }

  type t = {
    mutable on : bool;
    mutable machines : Machine.t array;
        (** simulated CPU time is the sum of these hosts' busy time *)
    st_layer : int array;
    st_t0 : int array;
    st_child : int array;
    st_s0 : float array;
    st_schild : float array;
    st_idx : int array;
    mutable depth : int;
    calls : int array;
    self_ns : int array;
    self_sim : float array;
    mutable top_ns : int;  (** host time inside outermost spans *)
    mutable top_sim : float;
    mutable log : log option;
    mutable op : int;
    mutable base_ns : int;
  }

  let create () =
    {
      on = false;
      machines = [||];
      st_layer = Array.make max_depth 0;
      st_t0 = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      st_s0 = Array.make max_depth 0.0;
      st_schild = Array.make max_depth 0.0;
      st_idx = Array.make max_depth (-1);
      depth = 0;
      calls = Array.make nlayers 0;
      self_ns = Array.make nlayers 0;
      self_sim = Array.make nlayers 0.0;
      top_ns = 0;
      top_sim = 0.0;
      log = None;
      op = 0;
      base_ns = 0;
    }

  let sim_now t = busy t.machines

  let with_log t cap =
    t.log <-
      Some
        {
          l_op = Array.make cap 0;
          l_name = Array.make cap 0;
          l_parent = Array.make cap 0;
          l_t0 = Array.make cap 0;
          l_t1 = Array.make cap 0;
          l_s0 = Array.make cap 0.0;
          l_s1 = Array.make cap 0.0;
          len = 0;
        }

  let reset t =
    t.depth <- 0;
    Array.fill t.calls 0 nlayers 0;
    Array.fill t.self_ns 0 nlayers 0;
    Array.fill t.self_sim 0 nlayers 0.0;
    t.top_ns <- 0;
    t.top_sim <- 0.0;
    t.base_ns <- now_ns ()

  let enter t layer =
    if t.on then begin
      let d = t.depth in
      if d >= max_depth then failwith "bench span stack overflow";
      t.st_layer.(d) <- layer;
      t.st_child.(d) <- 0;
      t.st_schild.(d) <- 0.0;
      t.st_s0.(d) <- sim_now t;
      (match t.log with
      | Some l when l.len < Array.length l.l_op ->
          let i = l.len in
          l.len <- i + 1;
          l.l_op.(i) <- t.op;
          l.l_name.(i) <- layer;
          l.l_parent.(i) <- (if d = 0 then -1 else t.st_idx.(d - 1));
          l.l_s0.(i) <- t.st_s0.(d);
          t.st_idx.(d) <- i
      | Some _ | None -> t.st_idx.(d) <- -1);
      t.depth <- d + 1;
      t.st_t0.(d) <- now_ns ()
    end

  let leave t =
    if t.on then begin
      let t1 = now_ns () in
      let d = t.depth - 1 in
      let s1 = sim_now t in
      let dur = t1 - t.st_t0.(d) in
      let sdur = s1 -. t.st_s0.(d) in
      let l = t.st_layer.(d) in
      t.calls.(l) <- t.calls.(l) + 1;
      t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child.(d);
      t.self_sim.(l) <- t.self_sim.(l) +. (sdur -. t.st_schild.(d));
      if d > 0 then begin
        t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
        t.st_schild.(d - 1) <- t.st_schild.(d - 1) +. sdur
      end
      else begin
        t.top_ns <- t.top_ns + dur;
        t.top_sim <- t.top_sim +. sdur
      end;
      (match t.log with
      | Some l when t.st_idx.(d) >= 0 ->
          let i = t.st_idx.(d) in
          l.l_t0.(i) <- t.st_t0.(d) - t.base_ns;
          l.l_t1.(i) <- t1 - t.base_ns;
          l.l_s1.(i) <- s1
      | Some _ | None -> ());
      t.depth <- d
    end

  let write_jsonl t file =
    match t.log with
    | None -> ()
    | Some l ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            for i = 0 to l.len - 1 do
              Printf.fprintf oc
                "{\"op\": %d, \"name\": \"%s\", \"parent\": %d, \"start_ns\": \
                 %d, \"end_ns\": %d, \"sim_start_us\": %.17g, \"sim_end_us\": \
                 %.17g}\n"
                l.l_op.(i) names.(l.l_name.(i)) l.l_parent.(i) l.l_t0.(i)
                l.l_t1.(i) l.l_s0.(i) l.l_s1.(i)
            done)
end

(* ------------------------------------------------------------------ *)
(* Workloads and the timed-phase engine                                *)

type instance = {
  step : int -> unit;  (** run op [i] of the phase *)
  finish : unit -> unit;
      (** end the workload: drain what is in flight, run end-of-run checks *)
  counters : unit -> (string * float) list;
      (** cumulative mechanism counts, read only at phase boundaries *)
  machines : Machine.t array;  (** whose busy time is simulated time *)
  child_gc : (unit -> float * float) option;
      (** for work done in child processes: their minor words per op over
          the det prefix, and the largest major heap any of them reached,
          in words *)
}

type workload = {
  name : string;
  why : string;
  warmup : int;  (** ops run inside set-up, after the world is built *)
  det_ops : int;
      (** ops over which the deterministic metrics are taken; the timed
          phase runs at least this many *)
  paper_row : string option;
      (** the Table 1 row this workload's mechanism reproduces *)
  make : ctx -> Span.t -> instance;
}

(* A mechanism counter summed over machines (0 where never touched). *)
let stat machines name =
  Array.fold_left
    (fun acc m -> acc +. float_of_int (Stats.get m.Machine.stats name))
    0.0 machines

(* Op completion times go into a preallocated Bigarray: the loop that
   records them allocates nothing, and the buffer lies outside the OCaml
   heap so the collector never scans it. *)
type samples = (int, int_elt, c_layout) Array1.t

let samples cap : samples = Array1.create int c_layout (max 1 cap)

type phase = {
  ops : int;
  wall_ns : int;
  gaps : samples;  (** op times; the first [ops] are this phase's *)
  words_per_op : float;  (** minor words per op over the det prefix *)
  sim_per_op : float;  (** simulated CPU us per op over the det prefix *)
  counts : (string * float) list;  (** counter deltas over the phase *)
  det_ops : int;  (** length of the det prefix actually run *)
  det_counts : (string * float) list;  (** counter deltas over it *)
}

let delta before after =
  List.map (fun (k, a) -> (k, a -. List.assoc k before)) after

(* The steady half of a phase: cut it into 20 consecutive segments of
   equal op count (single ops, in a phase of fewer) and keep the faster
   half, rounded up, by mean op time. On a shared host, co-tenants slow
   whole stretches of a run; the faster half is the closest a run gets to
   the machine's undisturbed speed. Over ten runs each of modelcheck,
   rpc-uncached and congestion on a shared 2-vCPU VM, it cut the spread
   of p90 from 8-19% to 5-6% of the median. Each segment still spans
   hundreds of ops and many collections, so costs that recur through the
   run stay inside it. *)
let steady_half gaps ops =
  let nseg = min 20 ops in
  let lo j = j * ops / nseg in
  let seg_ns =
    Array.init nseg (fun j ->
        let ns = ref 0 in
        for k = lo j to lo (j + 1) - 1 do
          ns := !ns + Array1.unsafe_get gaps k
        done;
        !ns)
  in
  let mean j =
    float_of_int seg_ns.(j) /. float_of_int (max 1 (lo (j + 1) - lo j))
  in
  let order = Array.init nseg Fun.id in
  Array.stable_sort (fun a b -> Float.compare (mean a) (mean b)) order;
  let keep = Array.sub order 0 ((nseg + 1) / 2) in
  let n = Array.fold_left (fun acc j -> acc + lo (j + 1) - lo j) 0 keep in
  let ns = Array.fold_left (fun acc j -> acc + seg_ns.(j)) 0 keep in
  let out = Array.make n 0 in
  let pos = ref 0 in
  Array.iter
    (fun j ->
      for k = lo j to lo (j + 1) - 1 do
        out.(!pos) <- Array1.unsafe_get gaps k;
        incr pos
      done)
    keep;
  Array.sort (fun (a : int) b -> compare a b) out;
  (out, float_of_int n /. (float_of_int (max 1 ns) /. 1e9))

(* Run ops back to back until at least [det_ops] ran and [seconds] have
   passed, or [limit] ops. An op's time is the gap between its completion
   and the previous one's, so the loop reads the clock once per op. *)
let timed ctx inst ?(tr = Span.create ()) (gaps : samples) ~seconds ~det_ops
    ~limit =
  let counts0 = inst.counters () in
  let budget = int_of_float (seconds *. 1e9) in
  let limit = min limit (Array1.dim gaps) in
  let w0 = Gc.minor_words () in
  let sim0 = busy inst.machines in
  let det_words = ref nan and det_sim = ref nan in
  let det_len = ref 0 and det_counts = ref [] in
  let snapshot ops =
    det_len := ops;
    det_words := (Gc.minor_words () -. w0) /. float_of_int (max 1 ops);
    det_sim := (busy inst.machines -. sim0) /. float_of_int (max 1 ops);
    det_counts := delta counts0 (inst.counters ())
  in
  let t0 = now_ns () in
  let last = ref t0 in
  let i = ref 0 in
  (try
     while !i < limit && (!i < det_ops || !last - t0 < budget) do
       ctx.plant <- (if ctx.self_test && !i = 0 then 1 else 0);
       tr.Span.op <- !i;
       inst.step !i;
       let t = now_ns () in
       Array1.unsafe_set gaps !i (t - !last);
       last := t;
       incr i;
       if !i = det_ops then snapshot !i
     done
   with e -> error ctx ("op raised " ^ Printexc.to_string e));
  ctx.plant <- 0;
  let ops = !i in
  if ops < det_ops || det_ops = 0 then snapshot ops;
  {
    ops;
    wall_ns = !last - t0;
    gaps;
    words_per_op = !det_words;
    sim_per_op = (if Array.length inst.machines = 0 then nan else !det_sim);
    counts = delta counts0 (inst.counters ());
    det_ops = !det_len;
    det_counts = !det_counts;
  }

(* Percentile with linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    (float_of_int sorted.(lo) *. (1.0 -. f)) +. (float_of_int sorted.(hi) *. f)

let median_floats a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* The zero-op calibration row: the same loop and clock reads around an
   empty op. Its median gap is the floor under every op and layer time;
   its minor words per op must be 0, or the timing loop itself allocates. *)
let calibrate ctx ~ops =
  let inst =
    {
      step = (fun _ -> ());
      finish = ignore;
      counters = (fun () -> []);
      machines = [||];
      child_gc = None;
    }
  in
  let p = timed ctx inst (samples ops) ~seconds:0.0 ~det_ops:ops ~limit:ops in
  (percentile (fst (steady_half p.gaps p.ops)) 0.5, p.words_per_op)
