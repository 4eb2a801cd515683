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

   A row keeps its cells in flat arrays indexed by [Component.index]:
   sums and compensation terms in float arrays, counts in an int array.
   A charge finds its row with two string-keyed lookups that allocate
   nothing, and writes floats into float arrays, so it builds no key and
   boxes no float. A cell exists once its count is non-zero. *)

let ncomp = List.length Component.all
let comps = Array.of_list Component.all

type row_cells = { sum : float array; err : float array; n : int array }

type machine = {
  name : string;
  charged : float array;  (* one slot: the arrival-ordered total *)
  kinds : (string, row_cells) Hashtbl.t;
}

type t = {
  by_name : (string, machine) Hashtbl.t;
  mutable order : machine list;  (* reverse first-charge order *)
}

let create () = { by_name = Hashtbl.create 4; order = [] }

let machine_of t name =
  match Hashtbl.find t.by_name name with
  | m -> m
  | exception Not_found ->
      let m = { name; charged = [| 0.0 |]; kinds = Hashtbl.create 32 } in
      Hashtbl.add t.by_name name m;
      t.order <- m :: t.order;
      m

let row_of m kind =
  match Hashtbl.find m.kinds kind with
  | r -> r
  | exception Not_found ->
      let r =
        {
          sum = Array.make ncomp 0.0;
          err = Array.make ncomp 0.0;
          n = Array.make ncomp 0;
        }
      in
      Hashtbl.add m.kinds kind r;
      r

(* Neumaier variant of Kahan summation, on cell [i] of row [r]. *)
let charge t ~machine ~comp ~kind us =
  let m = machine_of t machine in
  let r = row_of m kind in
  let i = Component.index comp in
  let sum = r.sum.(i) in
  let s = sum +. us in
  r.err.(i) <-
    (r.err.(i)
    +. if Float.abs sum >= Float.abs us then sum -. s +. us else us -. s +. sum
    );
  r.sum.(i) <- s;
  r.n.(i) <- r.n.(i) + 1;
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
      Hashtbl.fold
        (fun kind r acc ->
          let acc = ref acc in
          for i = ncomp - 1 downto 0 do
            if r.n.(i) > 0 then
              acc :=
                {
                  machine = m.name;
                  comp = comps.(i);
                  kind;
                  us = r.sum.(i) +. r.err.(i);
                  count = r.n.(i);
                }
                :: !acc
          done;
          !acc)
        m.kinds acc)
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
  List.fold_left
    (fun acc m ->
      Hashtbl.fold (fun _ r acc -> Array.fold_left ( + ) acc r.n) m.kinds acc)
    0 t.order

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
