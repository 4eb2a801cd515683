(* The one interning table of the process, filled at module init: the
   array of names, id [i] at index [i], exactly as long as the names
   interned. A name is found by a scan, since interning happens at
   declaration and reads by name are cold; the table then costs one word
   per name and nothing more. *)

type t = int

let names = ref [||]

let rec index s i =
  if i = Array.length !names then -1
  else if String.equal !names.(i) s then i
  else index s (i + 1)

let intern s =
  match index s 0 with
  | -1 ->
      names := Array.append !names [| s |];
      Array.length !names - 1
  | i -> i

let find s = match index s 0 with -1 -> None | i -> Some i

let name i =
  if i < 0 || i >= Array.length !names then
    invalid_arg "Name.name: no such id";
  !names.(i)

let count () = Array.length !names
