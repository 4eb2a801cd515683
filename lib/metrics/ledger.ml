(* Cost-attribution ledger: every simulated-us charge lands in the row of
   its (machine, charge kind), in that row's cell for its component.

   Two accumulators serve two different exactness claims:

   - Per-cell sums use Neumaier-compensated addition, so the per-component
     breakdown is the correctly rounded sum of its charges regardless of
     grouping. The printed total is DEFINED as the plain left fold of the
     per-component sums in [Component.all] order, which is exactly the
     computation a reader (or a test) redoes — component sum equals total
     by construction, with no epsilon.

   - A plain per-machine accumulator [charged] adds every charge in
     arrival order, the same float operations in the same order as the
     machine's own busy-time accumulator — so [charged_us] is bitwise
     equal to [Machine.busy_us] and proves no charge escaped
     attribution.

   A machine keeps its cells in flat arrays indexed by
   [kind * ncomp + Component.index comp], where [kind] is the charge
   kind's interned id: sums and compensation terms in float arrays,
   counts in an int array. The charging machine finds its rows once
   ({!machine}) and keeps them, so a charge hashes nothing, builds no
   key and boxes no float. A cell exists once its count is non-zero. *)

module Name = Fbufs_trace.Name

let ncomp = List.length Component.all
let comps = Array.of_list Component.all

type machine = {
  owner : t;
  name : string;
  charged : float array;  (* one slot: the arrival-ordered total *)
  mutable sum : float array;
  mutable err : float array;
  mutable n : int array;
}

and t = {
  by_name : (string, machine) Hashtbl.t;
  mutable order : machine list;  (* reverse first-lookup order *)
}

let create () = { by_name = Hashtbl.create 4; order = [] }

let cells kinds =
  let n = kinds * ncomp in
  (Array.make n 0.0, Array.make n 0.0, Array.make n 0)

let machine t name =
  match Hashtbl.find t.by_name name with
  | m -> m
  | exception Not_found ->
      let sum, err, n = cells (Name.count ()) in
      let m = { owner = t; name; charged = [| 0.0 |]; sum; err; n } in
      Hashtbl.add t.by_name name m;
      t.order <- m :: t.order;
      m

let owner m = m.owner

(* A kind declared after the machine's rows were made: widen them to
   every name interned so far. *)
let grow m kind =
  let sum, err, n = cells (max (Name.count ()) (kind + 1)) in
  let len = Array.length m.n in
  Array.blit m.sum 0 sum 0 len;
  Array.blit m.err 0 err 0 len;
  Array.blit m.n 0 n 0 len;
  m.sum <- sum;
  m.err <- err;
  m.n <- n

(* Neumaier variant of Kahan summation, on cell [i] of machine [m]. *)
let charge m ~comp ~(kind : Name.t) us =
  let kind = (kind :> int) in
  if (kind + 1) * ncomp > Array.length m.n then grow m kind;
  let i = (kind * ncomp) + Component.index comp in
  let sum = m.sum.(i) in
  let s = sum +. us in
  m.err.(i) <-
    (m.err.(i)
    +. if Float.abs sum >= Float.abs us then sum -. s +. us else us -. s +. sum
    );
  m.sum.(i) <- s;
  m.n.(i) <- m.n.(i) + 1;
  m.charged.(0) <- m.charged.(0) +. us

let charged_us t ~machine =
  match Hashtbl.find_opt t.by_name machine with
  | Some m -> m.charged.(0)
  | None -> 0.0

let machines t = List.rev_map (fun m -> m.name) t.order

type row = {
  machine : string;
  comp : Component.t;
  kind : string;
  us : float;
  count : int;
}

let rows t =
  List.fold_left
    (fun acc m ->
      let acc = ref acc in
      for i = Array.length m.n - 1 downto 0 do
        if m.n.(i) > 0 then
          acc :=
            {
              machine = m.name;
              comp = comps.(i mod ncomp);
              kind = Name.name (i / ncomp);
              us = m.sum.(i) +. m.err.(i);
              count = m.n.(i);
            }
            :: !acc
      done;
      !acc)
    [] t.order
  |> List.sort (fun a b ->
         match compare a.machine b.machine with
         | 0 -> (
             match compare (Component.index a.comp) (Component.index b.comp) with
             | 0 -> compare a.kind b.kind
             | c -> c)
         | c -> c)

let by_component t =
  let r = rows t in
  List.map
    (fun comp ->
      ( comp,
        List.fold_left
          (fun acc row -> if row.comp = comp then acc +. row.us else acc)
          0.0 r ))
    Component.all

(* The total is the same left fold over the same per-component values a
   caller of [by_component] performs: equality is structural, not
   numerical luck. *)
let total_us t =
  List.fold_left (fun acc (_, us) -> acc +. us) 0.0 (by_component t)

let charge_count t =
  List.fold_left (fun acc m -> Array.fold_left ( + ) acc m.n) 0 t.order

(* Collapsed-stack (flamegraph) export: one "frame1;frame2;frame3 value"
   line per cell, value in integer nanoseconds of simulated time so
   flamegraph tooling (which expects integer sample counts) keeps three
   decimal digits of the us figure. *)
let collapsed t =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      let kind = if r.kind = "" then "untyped" else r.kind in
      Buffer.add_string b
        (Printf.sprintf "%s;%s;%s %.0f\n" r.machine (Component.label r.comp)
           kind (r.us *. 1000.0)))
    (rows t);
  Buffer.contents b
