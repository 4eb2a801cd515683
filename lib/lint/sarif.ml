module J = Fbufs_trace.Json
module F = Finding

(* Static metadata for every rule either layer can emit. The SARIF
   [tool.driver.rules] array always carries the full set so a viewer can
   show rule documentation even for rules with no results in this run. *)
let rule_meta =
  [
    ("E0", "source file does not parse");
    ("L1", "payload writes must go through the protection-checked API");
    ("L2", "no wall-clock or hash nondeterminism outside lib/sim");
    ("L3", "exported functions must document the exceptions they raise");
    ("L4", "reference acquired here is relinquished on some paths only");
    ("L5", "no handle laundering through Obj.magic or ignored handles");
    ("L6", "metric registration discipline");
    ("L7", "causal span opened here is not closed on every exit path");
    ("C1", "use after free / double free of an fbuf handle");
    ("C2", "fbuf leaked on every exit path");
    ("C3", "write after send: in-flight payloads are immutable");
    ("C4", "read of a volatile fbuf before secure");
  ]

let result (f : F.t) =
  J.Obj
    [
      ("ruleId", J.String f.F.rule);
      ("level", J.String "error");
      ("message", J.Obj [ ("text", J.String f.F.msg) ]);
      ( "locations",
        J.List
          [
            J.Obj
              [
                ( "physicalLocation",
                  J.Obj
                    [
                      ( "artifactLocation",
                        J.Obj [ ("uri", J.String f.F.file) ] );
                      ( "region",
                        J.Obj
                          [
                            ("startLine", J.Int (max f.F.line 1));
                            ("startColumn", J.Int (f.F.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let to_json findings =
  J.Obj
    [
      ( "$schema",
        J.String
          "https://json.schemastore.org/sarif-2.1.0.json" );
      ("version", J.String "2.1.0");
      ( "runs",
        J.List
          [
            J.Obj
              [
                ( "tool",
                  J.Obj
                    [
                      ( "driver",
                        J.Obj
                          [
                            ("name", J.String "fbufs_lint");
                            ("informationUri", J.String "DESIGN.md");
                            ( "rules",
                              J.List
                                (List.map
                                   (fun (id, short) ->
                                     J.Obj
                                       [
                                         ("id", J.String id);
                                         ( "shortDescription",
                                           J.Obj
                                             [ ("text", J.String short) ] );
                                       ])
                                   rule_meta) );
                          ] );
                    ] );
                ("results", J.List (List.map result findings));
              ];
          ] );
    ]

let render ppf findings =
  Format.fprintf ppf "%s@." (J.to_string (to_json findings))
