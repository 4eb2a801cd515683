type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* The scalar printers every JSON writer shares, tree-built or streamed:
   each prints straight into the buffer, so a writer that calls them per
   field allocates no intermediate tree, list or [Printf] closure. *)

(* The escape of one byte, [""] for none. A control byte without a short
   form gets ["\\u00"], and its two hex digits follow it. *)
let escape_of = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | '\b' -> "\\b"
  | '\012' -> "\\f"
  | c when Char.code c < 0x20 -> "\\u00"
  | _ -> ""

let hex = "0123456789abcdef"

(* [s] from [i] on, where [s.[from .. i-1]] needs no escape: such runs go
   into the buffer in one blit. *)
let rec add_escaped buf s from i =
  if i = String.length s then Buffer.add_substring buf s from (i - from)
  else
    match escape_of (String.unsafe_get s i) with
    | "" -> add_escaped buf s from (i + 1)
    | esc ->
        Buffer.add_substring buf s from (i - from);
        Buffer.add_string buf esc;
        if String.length esc = 4 then begin
          let c = Char.code (String.unsafe_get s i) in
          Buffer.add_char buf hex.[c lsr 4];
          Buffer.add_char buf hex.[c land 15]
        end;
        add_escaped buf s (i + 1) (i + 1)

let add_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s 0 0;
  Buffer.add_char buf '"'

(* Digits of [n <= 0], most significant first: negative, so [min_int]
   needs no special case. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* The primitive [Printf]'s [%.1f] and [%.Ng] conversions end in, called
   with the same format strings: the same bytes without building a
   format closure per scalar. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest of three precisions that parses back to exactly [f]: writing
   a value and reading it again must be the identity (the sketch
   serialization's [equal] and the span JSONL round-trip rely on it),
   without printing 17 digits for every 0.1. JSON has no non-finite
   numbers, so those print as [null]. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (format_float "%.1f" f)
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then Buffer.add_string buf s
    else
      let s = format_float "%.15g" f in
      if float_of_string s = f then Buffer.add_string buf s
      else Buffer.add_string buf (format_float "%.17g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> add_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* Every exporter writes its file through here. A failed write often
   shows only when [close_out] flushes, so the channel is closed inside
   the success path, where that failure is the caller's [Sys_error]; on
   any other failure it is closed without a second error and the first
   one is raised again. *)
let write_file path f =
  let oc = open_out path in
  match f oc with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent)                                         *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec loop () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        loop ()
    | _ -> ()
  in
  loop ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then fail c "short \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* Encode the code point as UTF-8 (BMP only, which is all the
               escape syntax can express without surrogate pairs). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec loop () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        loop ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        loop ()
    | _ -> ()
  in
  loop ();
  let s = String.sub c.src start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
