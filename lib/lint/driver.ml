module F = Finding

let source_dirs = [ "lib"; "bin"; "examples"; "bench"; "test" ]

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* Root-relative paths of every .ml under the source dirs, sorted for a
   deterministic report order. *)
let ml_files ~root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.file_exists abs && Sys.is_directory abs then
      Array.iter
        (fun entry ->
          if entry <> "" && entry.[0] <> '.' && entry <> "_build" then
            let rel' = rel ^ "/" ^ entry in
            let abs' = Filename.concat root rel' in
            if Sys.is_directory abs' then walk rel'
            else if Filename.check_suffix entry ".ml" then
              acc := rel' :: !acc)
        (Sys.readdir abs)
  in
  List.iter walk source_dirs;
  List.sort String.compare !acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Overlapping rules can agree on a span: L4 (syntactic some-but-not-all
   paths) and C2 (interprocedural no-path leak) both anchor at the
   acquiring application. When both fire at the same position, keep only
   the more precise Layer C finding. Filtering preserves the
   {!Finding.compare}-sorted order. *)
let shadowed_by = [ ("L4", "C2") ]

let dedup findings =
  List.filter
    (fun (f : F.t) ->
      match List.assoc_opt f.F.rule shadowed_by with
      | None -> true
      | Some by ->
          not
            (List.exists
               (fun (g : F.t) ->
                 g.F.rule = by && g.F.file = f.F.file && g.F.line = f.F.line
                 && g.F.col = f.F.col)
               findings))
    findings

let run ~root =
  Rules.reset_registered_metrics ();
  let files = ml_files ~root in
  let source = List.concat_map (fun rel -> Rules.lint_file ~root rel) files in
  (* Layer C wants every unit parsed up front: summaries span the whole
     tree even though findings are only emitted for client code. Files
     that do not parse already carry an E0 from Layer A. *)
  let units =
    List.filter_map
      (fun rel ->
        match
          Rules.parse ~file:rel ~kind:`Impl
            (read_file (Filename.concat root rel))
        with
        | Rules.Ok_impl str -> Some (rel, str)
        | _ -> None)
      files
  in
  let typestate = Typestate.lint_units units in
  dedup (List.sort_uniq F.compare (source @ typestate))

let render_text ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." F.pp f) findings;
  Format.fprintf ppf "%d finding(s)@." (List.length findings)

let render_json ppf findings =
  Format.fprintf ppf "%s@."
    (Fbufs_trace.Json.to_string (F.list_to_json findings))

let load_baseline path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  F.list_of_string s

let unbaselined ~baseline findings =
  List.filter (fun f -> not (F.baseline_mem ~baseline f)) findings

(* Baseline entries that no current finding matches: the debt they
   grandfathered is gone, so the entry must be deleted lest it silently
   excuse a future regression. *)
let stale_entries ~baseline findings =
  List.filter
    (fun b ->
      not (List.exists (fun f -> F.baseline_mem ~baseline:[ b ] f) findings))
    baseline
