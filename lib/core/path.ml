open Fbufs_vm

type t = { id : int; domains : Pd.t list }

let next_id = ref 0

let create domains =
  (match domains with
  | [] -> invalid_arg "Path.create: a path needs at least the originator"
  | _ :: _ -> ());
  let rec dup = function
    | [] -> false
    | d :: rest -> Pd.mem d rest || dup rest
  in
  if dup domains then invalid_arg "Path.create: duplicate domain";
  incr next_id;
  { id = !next_id; domains }

let originator t = List.hd t.domains
let receivers t = List.tl t.domains
let mem t d = Pd.mem d t.domains
let length t = List.length t.domains
let equal a b = a.id = b.id

let pp ppf t =
  Format.fprintf ppf "path#%d[%a]" t.id
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
       Pd.pp)
    t.domains
