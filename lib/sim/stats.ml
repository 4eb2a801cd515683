(* Single-field mutable float record: an all-float record is stored flat,
   so bumping a counter mutates in place instead of allocating a fresh
   boxed float the way a [float ref] assignment would. Counters are hit on
   every simulated event, so this is visibly hot. *)
type cell = { mutable v : float }

type t = (string, cell) Hashtbl.t

let create () : t = Hashtbl.create 64

let reset t = Hashtbl.reset t

(* [Hashtbl.find] instead of [find_opt]: the hit path allocates nothing
   (find_opt wraps every hit in a fresh [Some]), and counters are bumped on
   every simulated event. *)
let cell t name =
  match Hashtbl.find t name with
  | r -> r
  | exception Not_found ->
      let r = { v = 0.0 } in
      Hashtbl.add t name r;
      r

let add t name n =
  let r = cell t name in
  r.v <- r.v +. float_of_int n

let incr t name = add t name 1

let get_float t name =
  match Hashtbl.find t name with r -> r.v | exception Not_found -> 0.0

let get t name = int_of_float (get_float t name)

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, r.v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

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
