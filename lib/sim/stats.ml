(* One int slot per interned name, read by id on every bump. A slot
   holds [untouched] until its counter is first bumped, so [to_list]
   lists exactly the counters touched since [create]/[reset] (an
   [add _ 0] included) without a second array. *)

module Name = Fbufs_trace.Name

type counter = Name.t
type t = { mutable v : int array }

let counter = Name.intern
let untouched = min_int
let create () = { v = Array.make (Name.count ()) untouched }
let reset t = Array.fill t.v 0 (Array.length t.v) untouched

(* A counter declared after the table was made: widen to every name
   interned so far. *)
let grow t i =
  let a = Array.make (max (Name.count ()) (i + 1)) untouched in
  Array.blit t.v 0 a 0 (Array.length t.v);
  t.v <- a

let add t (c : counter) n =
  let i = (c :> int) in
  if i >= Array.length t.v then grow t i;
  let x = Array.unsafe_get t.v i in
  Array.unsafe_set t.v i (if x = untouched then n else x + n)

let incr t c = add t c 1

let slot t i =
  if i < Array.length t.v then
    let x = t.v.(i) in
    if x = untouched then 0 else x
  else 0

let get t name =
  match Name.find name with Some c -> slot t (c :> int) | None -> 0

let get_float t name = float_of_int (get t name)

let to_list t =
  let acc = ref [] in
  Array.iteri
    (fun i x ->
      if x <> untouched then
        acc := (Name.name i, float_of_int x) :: !acc)
    t.v;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let snapshot = to_list

let value snap name =
  match List.assoc_opt name snap with Some v -> v | None -> 0.0

let diff ~before ~after =
  let keys =
    List.sort_uniq String.compare (List.map fst before @ List.map fst after)
  in
  List.filter_map
    (fun k ->
      let d = value after k -. value before k in
      if d = 0.0 then None else Some (k, d))
    keys

let since t before = diff ~before ~after:(snapshot t)
