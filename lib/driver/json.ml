(* JSON: the one printer and parser of the driver.  The server's wire
   protocol, its journal records, the Chrome traces, `/metrics`,
   `hirc batch --json` and the bench's `--json` all print through
   [print], so strings are escaped in exactly one place.

   Hand-rolled (the repo has no JSON dependency): a strict
   recursive-descent parser with a depth limit, and a printer that
   always emits a single line. *)

(* The one string escaper. *)
let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------------- printing ---------------- *)

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v ->
    Buffer.add_string buf
      (if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
       else Printf.sprintf "%.9g" v)
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        print buf x)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        print buf (Str k);
        Buffer.add_char buf ':';
        print buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  print buf j;
  Buffer.contents buf

(* A complete frame: the JSON on one line, newline-terminated. *)
let to_line j = to_string j ^ "\n"

(* ---------------- parsing ---------------- *)

exception Bad of string

let max_depth = 64

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* \uXXXX escapes are re-encoded as UTF-8. *)
  let utf8_of_code buf c =
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> utf8_of_code buf code
          | None -> fail "invalid \\u escape")
        | _ -> fail "invalid escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "invalid number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> Num (parse_number ())
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Bad msg -> Error msg

(* ---------------- accessors ---------------- *)

let mem name = function Obj fields -> List.assoc_opt name fields | _ -> None
let str_opt = function Str s -> Some s | _ -> None
let num_opt = function Num v -> Some v | _ -> None
let bool_opt = function Bool b -> Some b | _ -> None
let field_str j name = Option.bind (mem name j) str_opt
let field_num j name = Option.bind (mem name j) num_opt
let field_bool j name = Option.bind (mem name j) bool_opt
let field_int j name = Option.map int_of_float (field_num j name)
