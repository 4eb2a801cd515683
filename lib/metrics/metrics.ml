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

(* Global definition table: name -> def, insertion-ordered by id. *)
let defs : (string, def) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

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
  if Hashtbl.mem defs name then
    invalid_arg (Printf.sprintf "Metrics.register: duplicate metric %S" name);
  let d = { id = !next_id; name; help; labels; kind } in
  incr next_id;
  Hashtbl.add defs name d;
  d

let counter ~name ~help ?labels () = register Counter ~name ~help ?labels ()
let gauge ~name ~help ?labels () = register Gauge ~name ~help ?labels ()
let sketch ~name ~help ?labels () = register Sketch ~name ~help ?labels ()

let definitions () =
  Hashtbl.fold (fun _ d acc -> d :: acc) defs []
  |> List.sort (fun a b -> compare a.id b.id)

let find_def name = Hashtbl.find_opt defs name

(* A value cell. Counters and gauges use [v]; sketch-kind metrics use
   [sk]. [n] counts observations (for distributions and counter
   increments). *)
type cell = {
  mutable v : float;
  mutable n : int;
  sk : Sketch.t option;
}

type t = {
  cells : (int * string list, cell) Hashtbl.t;
  ledger : Ledger.t;
}

let create () = { cells = Hashtbl.create 128; ledger = Ledger.create () }
let ledger t = t.ledger

let check_labels d labels =
  if List.length labels <> List.length d.labels then
    invalid_arg
      (Printf.sprintf "Metrics: %s expects %d label values, got %d" d.name
         (List.length d.labels) (List.length labels))

let cell t d labels =
  check_labels d labels;
  let key = (d.id, labels) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c =
        {
          v = 0.0;
          n = 0;
          sk =
            (match d.kind with
            | Sketch -> Some (Sketch.create ())
            | Counter | Gauge -> None);
        }
      in
      Hashtbl.add t.cells key c;
      c

let add t d ?(labels = []) x =
  let c = cell t d labels in
  c.v <- c.v +. x;
  c.n <- c.n + 1

let incr t d ?labels () = add t d ?labels 1.0

let set t d ?(labels = []) x =
  let c = cell t d labels in
  c.v <- x;
  c.n <- c.n + 1

let observe t d ?(labels = []) x =
  let c = cell t d labels in
  (match c.sk with Some sk -> Sketch.add sk x | None -> c.v <- c.v +. x);
  c.n <- c.n + 1

let cell_value c = match c.sk with Some sk -> Sketch.sum sk | None -> c.v

let value t d ~labels =
  check_labels d labels;
  match Hashtbl.find_opt t.cells (d.id, labels) with
  | Some c -> Some (cell_value c)
  | None -> None

let value_by_name t ~name ~labels =
  match find_def name with None -> None | Some d -> value t d ~labels

let total_by_name t ~name =
  match find_def name with
  | None -> 0.0
  | Some d ->
      Hashtbl.fold
        (fun (id, _) c acc -> if id = d.id then acc +. cell_value c else acc)
        t.cells 0.0

type sample = {
  def : def;
  labels : string list;
  value : float;
  count : int;
  sketch : Sketch.t option;
}

let samples t =
  let by_id = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.add by_id d.id d) (definitions ());
  Hashtbl.fold
    (fun (id, labels) c acc ->
      match Hashtbl.find_opt by_id id with
      | None -> acc
      | Some d ->
          {
            def = d;
            labels;
            value = cell_value c;
            count = c.n;
            sketch = c.sk;
          }
          :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match compare a.def.id b.def.id with
         | 0 -> compare a.labels b.labels
         | c -> c)
