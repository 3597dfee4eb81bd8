(* Hand-written lexer for the generic textual IR format.  Also used by
   dialect type-parser hooks, which receive the token stream to consume
   the body of types like [!hir.memref<16*16*i32, r>].

   A token carries no location.  The lexer keeps the byte offset where
   the last token [next] returned starts, and where the peeked one
   starts, and turns an offset into a line and column only when a
   diagnostic needs one ([location_at]), as MLIR keeps a raw source
   position per token and builds a location only for an op.  Constant
   tokens are immediate values, so the happy path of a small parse
   allocates only the payloads of identifiers, names and literals. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | PERCENT of string  (* %name: an SSA value use or definition *)
  | AT of string  (* @name: a symbol reference *)
  | CARET of string  (* ^name: a block label *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LANGLE
  | RANGLE
  | COMMA
  | EQUAL
  | COLON
  | STAR
  | ARROW
  | BANG
  | DOT
  | EOF

let token_to_string = function
  | IDENT s -> "identifier '" ^ s ^ "'"
  | INT n -> "integer " ^ string_of_int n
  | STRING s -> Printf.sprintf "string %S" s
  | PERCENT s -> "%" ^ s
  | AT s -> "@" ^ s
  | CARET s -> "^" ^ s
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LANGLE -> "'<'"
  | RANGLE -> "'>'"
  | COMMA -> "','"
  | EQUAL -> "'='"
  | COLON -> "':'"
  | STAR -> "'*'"
  | ARROW -> "'->'"
  | BANG -> "'!'"
  | DOT -> "'.'"
  | EOF -> "end of input"

exception Lex_error of Location.t * string

type t = {
  src : string;
  file : string;
  mutable pos : int;  (* where scanning resumes *)
  mutable start : int;  (* offset of the token [next] returned last *)
  mutable peeked : token;  (* the token [peek] read ahead, ... *)
  mutable peek_start : int;  (* ... and its offset; -1 when there is none *)
}

let create ?(file = "<input>") src =
  { src; file; pos = 0; start = 0; peeked = EOF; peek_start = -1 }

(* The location of byte [offset]: line 1 plus the newlines before it,
   and the column counted in bytes from the last of them.  Every
   newline before a token lies in whitespace, a comment or a string
   literal, so this is the line and column a per-token counter would
   have kept. *)
let location_at t offset =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if t.src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  Location.file ~file:t.file ~line:!line ~col:(offset - !bol + 1)

(* The location of the token [next] returned last, and of the one
   [peek] returned. *)
let loc t = location_at t t.start
let peek_loc t = location_at t t.peek_start

(* The offset of the token [next] returned last, to render later with
   [location_at]. *)
let offset t = t.start

let error_at t offset msg = raise (Lex_error (location_at t offset, msg))

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let rec skip_ws t =
  if t.pos < String.length t.src then begin
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' | '\n' ->
      t.pos <- t.pos + 1;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | _ -> ()
  end

(* Advance over a maximal run of identifier characters. *)
let skip_ident t =
  while t.pos < String.length t.src && is_ident_char t.src.[t.pos] do
    t.pos <- t.pos + 1
  done

let read_ident t =
  let start = t.pos in
  skip_ident t;
  String.sub t.src start (t.pos - start)

let literal_error t start fmt =
  error_at t start (Printf.sprintf fmt (String.sub t.src start (t.pos - start)))

(* An integer literal is a maximal ident-char run that must be all
   digits and fit in an OCaml [int]; anything else ([123abc], a literal
   beyond max_int) is a lex error at the token's location — never an
   uncaught [Failure].  The digits are read in place, accumulated
   negated so that min_int, which has no positive counterpart, fits;
   only a diagnostic copies the literal's text.  [start] is the token's
   first byte (its '-', if any); [t.pos] is at its first digit. *)
let read_int t ~start ~negative =
  let digits = t.pos in
  skip_ident t;
  let n = ref 0 and overflow = ref false in
  for i = digits to t.pos - 1 do
    let c = t.src.[i] in
    if not (is_digit c) then
      literal_error t start "malformed integer literal '%s'";
    let d = Char.code c - Char.code '0' in
    if !n < (min_int + d) / 10 then overflow := true else n := (!n * 10) - d
  done;
  if !overflow || ((not negative) && !n = min_int) then
    literal_error t start "integer literal '%s' out of range";
  if negative then !n else - !n

(* A string literal's contents, from just after its opening quote.
   The escapes are the four [Printer] writes: a backslash before a
   double quote, a backslash, [n] (newline) or [t] (tab).  Any other
   escaped byte stands for itself. *)
let read_string t ~start =
  let src = t.src and len = String.length t.src in
  let first = t.pos in
  let stop = ref first in
  while !stop < len && src.[!stop] <> '"' && src.[!stop] <> '\\' do
    incr stop
  done;
  if !stop < len && src.[!stop] = '"' then begin
    (* No escape: the contents are a slice of the source. *)
    t.pos <- !stop + 1;
    String.sub src first (!stop - first)
  end
  else begin
    let buf = Buffer.create (!stop - first + 16) in
    Buffer.add_substring buf src first (!stop - first);
    t.pos <- !stop;
    while
      if t.pos >= len then error_at t start "unterminated string literal";
      src.[t.pos] <> '"'
    do
      (match src.[t.pos] with
      | '\\' when t.pos + 1 < len ->
        (match src.[t.pos + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | c -> Buffer.add_char buf c);
        t.pos <- t.pos + 1
      | c -> Buffer.add_char buf c);
      t.pos <- t.pos + 1
    done;
    t.pos <- t.pos + 1;
    Buffer.contents buf
  end

(* Scan the token that starts at [t.pos], whitespace already skipped. *)
let scan t =
  let start = t.pos in
  if start >= String.length t.src then EOF
  else begin
    t.pos <- start + 1;
    match t.src.[start] with
    | '(' -> LPAREN
    | ')' -> RPAREN
    | '{' -> LBRACE
    | '}' -> RBRACE
    | '[' -> LBRACKET
    | ']' -> RBRACKET
    | '<' -> LANGLE
    | '>' -> RANGLE
    | ',' -> COMMA
    | '=' -> EQUAL
    | ':' -> COLON
    | '*' -> STAR
    | '!' -> BANG
    | '.' -> DOT
    | '-' ->
      if t.pos < String.length t.src && t.src.[t.pos] = '>' then begin
        t.pos <- t.pos + 1;
        ARROW
      end
      else if t.pos < String.length t.src && is_digit t.src.[t.pos] then
        INT (read_int t ~start ~negative:true)
      else error_at t start "unexpected '-'"
    | '%' -> PERCENT (read_ident t)
    | '@' -> AT (read_ident t)
    | '^' -> CARET (read_ident t)
    | '"' -> STRING (read_string t ~start)
    | '0' .. '9' ->
      t.pos <- start;
      INT (read_int t ~start ~negative:false)
    | c when is_ident_char c ->
      t.pos <- start;
      IDENT (read_ident t)
    | c -> error_at t start (Printf.sprintf "unexpected character %C" c)
  end

let next t =
  if t.peek_start >= 0 then begin
    t.start <- t.peek_start;
    t.peek_start <- -1;
    t.peeked
  end
  else begin
    skip_ws t;
    t.start <- t.pos;
    scan t
  end

let peek t =
  if t.peek_start < 0 then begin
    skip_ws t;
    let start = t.pos in
    t.peeked <- scan t;
    t.peek_start <- start
  end;
  t.peeked

(* The next token, consumed, when it is an identifier: its length, with
   its bytes at [offset t] in the source, so a reader can decode it in
   place (the type parser's [i32]).  0, consuming nothing, otherwise. *)
let next_word t =
  if t.peek_start >= 0 then (
    match t.peeked with
    | IDENT s ->
      ignore (next t);
      String.length s
    | _ -> 0)
  else begin
    skip_ws t;
    let start = t.pos in
    if start < String.length t.src && is_ident_char t.src.[start] && not (is_digit t.src.[start])
    then begin
      skip_ident t;
      t.start <- start;
      t.pos - start
    end
    else 0
  end

(* [expect] and [accept] take a constant token, one without a payload,
   so physical equality compares it. *)
let expect t tok =
  let got = next t in
  if got != tok then
    raise
      (Lex_error
         ( loc t,
           Printf.sprintf "expected %s but found %s" (token_to_string tok)
             (token_to_string got) ))

let accept t tok =
  if peek t == tok then begin
    t.start <- t.peek_start;
    t.peek_start <- -1;
    true
  end
  else false

let expect_int t =
  match next t with
  | INT n -> n
  | got -> raise (Lex_error (loc t, "expected integer, found " ^ token_to_string got))

let expect_ident t =
  match next t with
  | IDENT s -> s
  | got -> raise (Lex_error (loc t, "expected identifier, found " ^ token_to_string got))
