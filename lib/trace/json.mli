(** Minimal JSON tree, printer and parser.

    The tracing exporters must produce Chrome [trace_event] files without
    pulling a JSON dependency into the build, and the test suite must be
    able to parse what they wrote back into a tree to validate it. Both
    sides live here so the round trip is exercised against one grammar. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
(** Compact serialization, printed with {!add_int}, {!add_float} and
    {!add_string}. *)

val to_string : t -> string

(** {1 Scalar printers}

    What {!to_buffer} prints for one scalar, for writers that stream
    records straight into a buffer instead of building a tree. Apart
    from the buffer's own growth, {!add_int} and {!add_string} allocate
    nothing; {!add_float} gets its digits from the runtime as a fresh
    string and reads a non-integral value back to check it. *)

val add_int : Buffer.t -> int -> unit
(** Decimal digits, the bytes of [string_of_int]. *)

val add_float : Buffer.t -> float -> unit
(** The shortest of [%.12g], [%.15g] and [%.17g] that reads back as
    exactly the same float, or [%.1f] for an integral value of magnitude
    below 1e15.
    Non-finite floats are emitted as [null] (JSON has no representation
    for them). The bytes are those [Printf.sprintf] prints for the same
    conversions. *)

val add_string : Buffer.t -> string -> unit
(** A quoted JSON string: quote, backslash and the control characters
    escaped ([\\uXXXX] for those without a short form); other bytes
    are copied as they are. *)

val write_file : string -> (out_channel -> unit) -> unit
(** [write_file path f] opens [path], lets [f] write to it and closes
    it. A failed open, write or close raises [Sys_error] (a write that
    fails only when the channel is flushed included); when [f] raises,
    the channel is closed and [f]'s exception is raised again. *)

exception Parse_error of string

val parse : string -> t
(** Parse a complete JSON document; trailing garbage is an error. Raises
    {!Parse_error}. Numbers without [.], [e] or [E] parse as [Int]. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)
