(** Lint findings: one rule violation anchored to a [file:line] span.

    Shared by both analyzer layers — the source lint ({!Rules}) and the
    interprocedural typestate analysis ({!Typestate}) — which both report
    spans in real [.ml]/[.mli] files. The JSON encoding round-trips through
    {!Fbufs_trace.Json} so CI artifacts and the baseline share one
    grammar. *)

type t = {
  rule : string;
      (** ["E0"] (parse error), ["L1"].."L7" (source lint) or
          ["C1"].."C4" (typestate) *)
  file : string;  (** root-relative source path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based column *)
  msg : string;
}

val v : rule:string -> file:string -> line:int -> ?col:int -> string -> t

val compare : t -> t -> int
(** Order by file, then line, column, rule, message. *)

val pp : Format.formatter -> t -> unit
(** One line: [file:line:col: rule: msg]. *)

val to_json : t -> Fbufs_trace.Json.t

val of_json : Fbufs_trace.Json.t -> t
(** Raises [Invalid_argument] on a value not shaped like {!to_json}
    output. *)

val list_to_json : t list -> Fbufs_trace.Json.t

val list_of_string : string -> t list
(** Parse a JSON array of findings (the baseline / artifact format).
    Raises [Invalid_argument] on malformed input, including JSON parse
    errors. *)

val baseline_mem : baseline:t list -> t -> bool
(** Baseline matching ignores [line] and [col] so an entry survives
    unrelated edits to the file: a finding is baselined when an entry with
    the same rule, file and message exists. *)
