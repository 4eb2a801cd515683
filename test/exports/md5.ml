(* Prints "<md5 hex>  <path>" for each file named on the command line,
   the format of md5sum. *)

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file path)) path
  done
