(* Live metrics registry.

   Definitions are global and immutable: a module registers its metric
   names once at init time (the lint rule L6 enforces literal names and
   init-time registration), so the set of definitions is a static
   property of the build, independent of which machines run. Values live
   in per-run instances ([t]) so concurrent testbeds and repeated
   experiment runs never bleed counts into each other, and so "metrics
   disabled" is represented by the absence of an instance — the
   instrumented code paths then do no registry work at all. *)

type kind = Counter | Gauge | Sketch

type def = {
  id : int;
  name : string;
  help : string;
  labels : string list;
  kind : kind;
}

(* Global definition table: def [i] at index [i], exactly as long as
   the definitions registered. Names are found by a scan: lookups by
   name are cold, and the table then costs a word per definition. *)
let defs : def array ref = ref [||]

let rec find_from name i =
  if i = Array.length !defs then None
  else if String.equal !defs.(i).name name then Some !defs.(i)
  else find_from name (i + 1)

let find_def name = find_from name 0

let name_ok name =
  String.length name > 6
  && String.sub name 0 6 = "fbufs_"
  && String.for_all
       (fun ch -> (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '_')
       name

let register kind ~name ~help ?(labels = []) () =
  if not (name_ok name) then
    invalid_arg
      (Printf.sprintf "Metrics.register: name %S must match fbufs_[a-z0-9_]+"
         name);
  if find_def name <> None then
    invalid_arg (Printf.sprintf "Metrics.register: duplicate metric %S" name);
  let d = { id = Array.length !defs; name; help; labels; kind } in
  defs := Array.append !defs [| d |];
  d

let counter ~name ~help ?labels () = register Counter ~name ~help ?labels ()
let gauge ~name ~help ?labels () = register Gauge ~name ~help ?labels ()
let sketch ~name ~help ?labels () = register Sketch ~name ~help ?labels ()

let definitions () = Array.to_list !defs

(* Values live in one trie per definition, with one string-keyed level
   per label: the node a tuple of label values leads to is that tuple's
   cell. A cell keeps its value in a one-slot float array, stored flat,
   so an update boxes nothing; with its label values passed as
   arguments, an update allocates nothing once its cell exists. A node
   is a cell once it has been updated ([n > 0]). *)

type cell = {
  kids : (string, cell) Hashtbl.t;
  labels : string list;  (* the values leading here, built once *)
  v : float array;  (* one slot *)
  mutable n : int;
  sk : Sketch.t option;  (* sketch defs, at the last label level *)
}

type table = { tdef : def; arity : int; root : cell }

type t = {
  mutable tables : table option array;  (* by definition id *)
  int_labels : (int, string) Hashtbl.t;
  ledger : Ledger.t;
}

let create () =
  {
    tables = Array.make (max 64 (Array.length !defs)) None;
    int_labels = Hashtbl.create 16;
    ledger = Ledger.create ();
  }

let ledger t = t.ledger

let int_label t i =
  match Hashtbl.find t.int_labels i with
  | s -> s
  | exception Not_found ->
      let s = string_of_int i in
      Hashtbl.add t.int_labels i s;
      s

(* A sketch def's cells at the last label level carry the sketch. *)
let new_cell d arity labels =
  {
    kids = Hashtbl.create 4;
    labels;
    v = [| 0.0 |];
    n = 0;
    sk =
      (match d.kind with
      | Sketch when List.length labels = arity -> Some (Sketch.create ())
      | Sketch | Counter | Gauge -> None);
  }

let find_table t d =
  if d.id < Array.length t.tables then t.tables.(d.id) else None

let new_table t d =
  if d.id >= Array.length t.tables then begin
    let a = Array.make (2 * (d.id + 1)) None in
    Array.blit t.tables 0 a 0 (Array.length t.tables);
    t.tables <- a
  end;
  let arity = List.length d.labels in
  let tb = { tdef = d; arity; root = new_cell d arity [] } in
  t.tables.(d.id) <- Some tb;
  tb

let arity_error (d : def) got =
  invalid_arg
    (Printf.sprintf "Metrics: %s expects %d label values, got %d" d.name
       (List.length d.labels) got)

(* The definition's table, checked against the number of label values
   the caller passes. *)
let table t d arity =
  let tb = match find_table t d with Some tb -> tb | None -> new_table t d in
  if tb.arity <> arity then arity_error d arity;
  tb

(* The label list is built only when the cell is created. *)
let child tb c label =
  match Hashtbl.find c.kids label with
  | k -> k
  | exception Not_found ->
      let k = new_cell tb.tdef tb.arity (c.labels @ [ label ]) in
      Hashtbl.add c.kids label k;
      k

let cell0 t d = (table t d 0).root
let cell1 t d a = let tb = table t d 1 in child tb tb.root a
let cell2 t d a b = let tb = table t d 2 in child tb (child tb tb.root a) b

let cell3 t d a b c =
  let tb = table t d 3 in
  child tb (child tb (child tb tb.root a) b) c

let add_at c x =
  c.v.(0) <- c.v.(0) +. x;
  c.n <- c.n + 1

let set_at c x =
  c.v.(0) <- x;
  c.n <- c.n + 1

let observe_at c x =
  (match c.sk with
  | Some sk -> Sketch.add sk x
  | None -> c.v.(0) <- c.v.(0) +. x);
  c.n <- c.n + 1

let incr t d = add_at (cell0 t d) 1.0
let incr1 t d a = add_at (cell1 t d a) 1.0
let incr2 t d a b = add_at (cell2 t d a b) 1.0
let incr3 t d a b c = add_at (cell3 t d a b c) 1.0
let add t d x = add_at (cell0 t d) x
let add1 t d a x = add_at (cell1 t d a) x
let add2 t d a b x = add_at (cell2 t d a b) x
let add3 t d a b c x = add_at (cell3 t d a b c) x
let set t d x = set_at (cell0 t d) x
let set1 t d a x = set_at (cell1 t d a) x
let set2 t d a b x = set_at (cell2 t d a b) x
let set3 t d a b c x = set_at (cell3 t d a b c) x
let observe t d x = observe_at (cell0 t d) x
let observe1 t d a x = observe_at (cell1 t d a) x
let observe2 t d a b x = observe_at (cell2 t d a b) x
let observe3 t d a b c x = observe_at (cell3 t d a b c) x

let cell_value c =
  match c.sk with Some sk -> Sketch.sum sk | None -> c.v.(0)

let value t (d : def) ~labels =
  let got = List.length labels in
  if got <> List.length d.labels then arity_error d got;
  let rec walk c = function
    | [] -> if c.n > 0 then Some (cell_value c) else None
    | l :: rest -> (
        match Hashtbl.find_opt c.kids l with
        | Some k -> walk k rest
        | None -> None)
  in
  match find_table t d with None -> None | Some tb -> walk tb.root labels

let value_by_name t ~name ~labels =
  match find_def name with None -> None | Some d -> value t d ~labels

let rec fold_cells f c acc =
  Hashtbl.fold
    (fun _ k acc -> fold_cells f k acc)
    c.kids
    (if c.n > 0 then f c acc else acc)

let total_by_name t ~name =
  match Option.bind (find_def name) (find_table t) with
  | None -> 0.0
  | Some tb -> fold_cells (fun c acc -> acc +. cell_value c) tb.root 0.0

type sample = {
  def : def;
  labels : string list;
  value : float;
  count : int;
  sketch : Sketch.t option;
}

let table_samples tb acc =
  fold_cells
    (fun c acc ->
      {
        def = tb.tdef;
        labels = c.labels;
        value = cell_value c;
        count = c.n;
        sketch = c.sk;
      }
      :: acc)
    tb.root acc

let samples t =
  Array.fold_left
    (fun acc -> function None -> acc | Some tb -> table_samples tb acc)
    [] t.tables
  |> List.sort (fun a b ->
         match compare a.def.id b.def.id with
         | 0 -> compare a.labels b.labels
         | c -> c)

let samples_of t d =
  match find_table t d with
  | None -> []
  | Some tb ->
      List.sort (fun a b -> compare a.labels b.labels) (table_samples tb [])
