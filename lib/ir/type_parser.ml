(* Type parsing, shared by the op parser and dialect hooks.

   Builtin types are [iN], [fN] and [none].  Dialect types are written
   [!dialect.mnemonic] optionally followed by a [<...>] body; dialects
   register a hook that receives the mnemonic and the lexer and returns
   the parsed type. *)

let hooks : (string, string -> Lexer.t -> Typ.t) Hashtbl.t = Hashtbl.create 8

let register_dialect ~dialect f = Hashtbl.replace hooks dialect f

(* Widths are bounded so a literal like [i99999999999999999999] is a
   located diagnostic, not an [int_of_string] failure (or an absurd
   allocation downstream). *)
let max_type_width = 65536

(* [src.[i..stop)] is all digits. *)
let rec all_digits src i stop = i = stop || (Lexer.is_digit src.[i] && all_digits src (i + 1) stop)

(* The width [src.[i..stop)] spells, or [max_type_width + 1] for any
   larger one. *)
let rec width src i stop n =
  if i = stop then n
  else
    width src (i + 1) stop
      (min (max_type_width + 1) ((n * 10) + Char.code src.[i] - Char.code '0'))

(* [src] holds [w] from [i], compared from [w]'s byte [j] on. *)
let rec same src i w j = j = String.length w || (src.[i + j] = w.[j] && same src i w (j + 1))

(* A lex error at the token [Lexer.next] returned last. *)
let fail lex msg = raise (Lexer.Lex_error (Lexer.loc lex, msg))

(* The builtin type named by the [len]-byte identifier that
   [Lexer.next_word] just consumed, decoded in place: [iN] and [fN] read
   their width straight from the source, and only a diagnostic copies
   the name. *)
let parse_builtin lex len =
  let src = lex.Lexer.src and start = Lexer.offset lex in
  let stop = start + len in
  match src.[start] with
  | ('i' | 'f') as c when len > 1 && all_digits src (start + 1) stop ->
    let n = width src (start + 1) stop 0 in
    if n < 1 || n > max_type_width then
      fail lex
        (Printf.sprintf "type width in '%s' must be between 1 and %d"
           (String.sub src start len) max_type_width);
    if c = 'i' then Typ.Int n else Typ.Float n
  | _ when len = 4 && same src start "none" 0 -> Typ.None_type
  | _ -> fail lex ("unknown builtin type '" ^ String.sub src start len ^ "'")

let parse lex =
  match Lexer.next_word lex with
  | 0 -> (
    match Lexer.next lex with
    | Lexer.BANG ->
      let bang = Lexer.offset lex in
      let dialect = Lexer.expect_ident lex in
      Lexer.expect lex Lexer.DOT;
      let mnemonic = Lexer.expect_ident lex in
      (match Hashtbl.find_opt hooks dialect with
      | Some f -> f mnemonic lex
      | None ->
        raise
          (Lexer.Lex_error
             ( Lexer.location_at lex bang,
               "no registered dialect type parser for '" ^ dialect ^ "'" )))
    | got -> fail lex ("expected a type, found " ^ Lexer.token_to_string got))
  | len -> parse_builtin lex len
