(* Parser for the generic textual form emitted by [Printer].  The
   grammar is the MLIR generic-op grammar restricted to what this IR
   supports (single-block regions with argument lists, no successor
   lists). *)

exception Parse_error of Location.t * string

let fail loc msg = raise (Parse_error (loc, msg))

type state = {
  lex : Lexer.t;
  scope : (string, Ir.value * int) Hashtbl.t;
      (* SSA name -> value and the source offset that defined it *)
  mutable depth : int;  (* current region-nesting depth *)
}

(* A parse error at a source offset, or at the token [Lexer.next]
   returned last: its location is rendered only now. *)
let fail_at st offset msg = fail (Lexer.location_at st.lex offset) msg
let fail_here st msg = fail (Lexer.loc st.lex) msg

(* The parser is recursive-descent, so region nesting consumes OCaml
   stack; bound it so a pathological input is a parse error rather
   than a [Stack_overflow].  Real designs nest a handful of levels. *)
let max_region_depth = 64

let lookup_value st name =
  match Hashtbl.find st.scope name with
  | v, _ -> v
  | exception Not_found -> fail_here st (Printf.sprintf "use of undefined value %%%s" name)

(* A second definition of the same SSA name is an error reported with
   both locations — [Hashtbl.replace] would silently shadow the first
   binding and rewire every later use. *)
let define_value st name v offset =
  match Hashtbl.find st.scope name with
  | _, prior ->
    fail_at st offset
      (Printf.sprintf "redefinition of value %%%s (previously defined at %s)" name
         (Location.to_string (Lexer.location_at st.lex prior)))
  | exception Not_found -> Hashtbl.add st.scope name (v, offset)

let rec parse_attr_value st =
  match Lexer.next st.lex with
  | Lexer.INT n -> Attribute.Int n
  | Lexer.STRING s -> Attribute.String s
  | Lexer.AT s -> Attribute.Symbol s
  | Lexer.IDENT "true" -> Attribute.Bool true
  | Lexer.IDENT "false" -> Attribute.Bool false
  | Lexer.IDENT "unit" -> Attribute.Unit
  | Lexer.LBRACKET ->
    (* Arrays and dicts recurse, so they count against the same nesting
       bound as regions. *)
    if st.depth >= max_region_depth then
      fail_here st
        (Printf.sprintf "attributes nested deeper than %d levels" max_region_depth);
    st.depth <- st.depth + 1;
    let rec go acc =
      if Lexer.accept st.lex Lexer.RBRACKET then List.rev acc
      else begin
        let v = parse_attr_value st in
        if Lexer.accept st.lex Lexer.COMMA then go (v :: acc)
        else begin
          Lexer.expect st.lex Lexer.RBRACKET;
          List.rev (v :: acc)
        end
      end
    in
    let a = Attribute.Array (go []) in
    st.depth <- st.depth - 1;
    a
  | Lexer.LBRACE ->
    if st.depth >= max_region_depth then
      fail_here st
        (Printf.sprintf "attributes nested deeper than %d levels" max_region_depth);
    st.depth <- st.depth + 1;
    let d = Attribute.Dict (parse_attr_entries st) in
    st.depth <- st.depth - 1;
    d
  | Lexer.BANG ->
    let bang = Lexer.offset st.lex in
    let kind = Lexer.expect_ident st.lex in
    if kind <> "ty" then fail_at st bang "expected !ty<...> attribute"
    else begin
      Lexer.expect st.lex Lexer.LANGLE;
      let t = Type_parser.parse st.lex in
      Lexer.expect st.lex Lexer.RANGLE;
      Attribute.Type t
    end
  | got -> fail_here st ("expected attribute value, found " ^ Lexer.token_to_string got)

and parse_attr_entries st =
  (* Assumes the opening brace is already consumed; consumes the
     closing brace. *)
  if Lexer.accept st.lex Lexer.RBRACE then []
  else begin
    let rec go acc =
      let key = Lexer.expect_ident st.lex in
      Lexer.expect st.lex Lexer.EQUAL;
      let v = parse_attr_value st in
      let acc = (key, v) :: acc in
      if Lexer.accept st.lex Lexer.COMMA then go acc
      else begin
        Lexer.expect st.lex Lexer.RBRACE;
        List.rev acc
      end
    in
    go []
  end

let parse_loc st =
  (* 'loc' '(' STRING [':' INT ':' INT] ')' — optional trailer. *)
  match Lexer.peek st.lex with
  | Lexer.IDENT "loc" ->
    ignore (Lexer.next st.lex);
    Lexer.expect st.lex Lexer.LPAREN;
    let s =
      match Lexer.next st.lex with
      | Lexer.STRING s -> s
      | got -> fail_here st ("expected string in loc(...), found " ^ Lexer.token_to_string got)
    in
    let result =
      if Lexer.accept st.lex Lexer.COLON then begin
        let line = Lexer.expect_int st.lex in
        Lexer.expect st.lex Lexer.COLON;
        let col = Lexer.expect_int st.lex in
        Location.file ~file:s ~line ~col
      end
      else Location.name s
    in
    Lexer.expect st.lex Lexer.RPAREN;
    result
  | _ -> Location.unknown

let rec parse_op st =
  (* Optional results. *)
  let results =
    match Lexer.peek st.lex with
    | Lexer.PERCENT _ ->
      let rec go acc =
        match Lexer.next st.lex with
        | Lexer.PERCENT name ->
          let acc = (name, Lexer.offset st.lex) :: acc in
          if Lexer.accept st.lex Lexer.COMMA then go acc
          else begin
            Lexer.expect st.lex Lexer.EQUAL;
            List.rev acc
          end
        | got -> fail_here st ("expected %result, found " ^ Lexer.token_to_string got)
      in
      go []
    | _ -> []
  in
  let name =
    match Lexer.next st.lex with
    | Lexer.STRING s -> s
    | got -> fail_here st ("expected op name string, found " ^ Lexer.token_to_string got)
  in
  let name_at = Lexer.offset st.lex in
  (* Operands. *)
  Lexer.expect st.lex Lexer.LPAREN;
  let operands =
    let rec go acc =
      if Lexer.accept st.lex Lexer.RPAREN then List.rev acc
      else
        match Lexer.next st.lex with
        | Lexer.PERCENT n ->
          let v = lookup_value st n in
          if Lexer.accept st.lex Lexer.COMMA then go (v :: acc)
          else begin
            Lexer.expect st.lex Lexer.RPAREN;
            List.rev (v :: acc)
          end
        | got -> fail_here st ("expected %operand, found " ^ Lexer.token_to_string got)
    in
    go []
  in
  (* Optional regions. *)
  let regions =
    if Lexer.accept st.lex Lexer.LPAREN then begin
      let rec go acc =
        let r = parse_region st in
        if Lexer.accept st.lex Lexer.COMMA then go (r :: acc)
        else begin
          Lexer.expect st.lex Lexer.RPAREN;
          List.rev (r :: acc)
        end
      in
      go []
    end
    else []
  in
  (* Optional attributes. *)
  let attrs =
    if Lexer.accept st.lex Lexer.LBRACE then parse_attr_entries st else []
  in
  (* Type signature. *)
  Lexer.expect st.lex Lexer.COLON;
  Lexer.expect st.lex Lexer.LPAREN;
  let operand_types =
    let rec go acc =
      if Lexer.accept st.lex Lexer.RPAREN then List.rev acc
      else begin
        let t = Type_parser.parse st.lex in
        if Lexer.accept st.lex Lexer.COMMA then go (t :: acc)
        else begin
          Lexer.expect st.lex Lexer.RPAREN;
          List.rev (t :: acc)
        end
      end
    in
    go []
  in
  Lexer.expect st.lex Lexer.ARROW;
  Lexer.expect st.lex Lexer.LPAREN;
  let result_types =
    let rec go acc =
      if Lexer.accept st.lex Lexer.RPAREN then List.rev acc
      else begin
        let t = Type_parser.parse st.lex in
        if Lexer.accept st.lex Lexer.COMMA then go (t :: acc)
        else begin
          Lexer.expect st.lex Lexer.RPAREN;
          List.rev (t :: acc)
        end
      end
    in
    go []
  in
  let loc = parse_loc st in
  if List.length operand_types <> List.length operands then
    fail_at st name_at "operand count does not match operand type list";
  if List.length result_types <> List.length results then
    fail_at st name_at "result count does not match result type list";
  (* Check declared operand types against the resolved values. *)
  List.iter2
    (fun v t ->
      if not (Typ.equal v.Ir.v_type t) then
        fail_at st name_at
          (Printf.sprintf "operand type mismatch: value has %s, signature says %s"
             (Typ.to_string v.Ir.v_type) (Typ.to_string t)))
    operands operand_types;
  let op =
    Ir.Op.create ~attrs ~regions ~loc name ~operands ~result_types
      ~result_hints:(List.map (fun (n, _) -> Some n) results)
  in
  List.iteri (fun i (n, at) -> define_value st n (Ir.Op.result op i) at) results;
  op

and parse_region st =
  if Lexer.peek st.lex == Lexer.LBRACE && st.depth >= max_region_depth then
    fail (Lexer.peek_loc st.lex)
      (Printf.sprintf "regions nested deeper than %d levels" max_region_depth);
  Lexer.expect st.lex Lexer.LBRACE;
  st.depth <- st.depth + 1;
  let rec go acc =
    if Lexer.accept st.lex Lexer.RBRACE then List.rev acc else go (parse_block st :: acc)
  in
  let blocks = go [] in
  st.depth <- st.depth - 1;
  Ir.Region.create ~blocks ()

and parse_block st =
  (match Lexer.next st.lex with
  | Lexer.CARET _ -> ()
  | got -> fail_here st ("expected block label ^.., found " ^ Lexer.token_to_string got));
  Lexer.expect st.lex Lexer.LPAREN;
  let args =
    let rec go acc =
      if Lexer.accept st.lex Lexer.RPAREN then List.rev acc
      else begin
        match Lexer.next st.lex with
        | Lexer.PERCENT n ->
          let at = Lexer.offset st.lex in
          Lexer.expect st.lex Lexer.COLON;
          let t = Type_parser.parse st.lex in
          let acc = (n, at, t) :: acc in
          if Lexer.accept st.lex Lexer.COMMA then go acc
          else begin
            Lexer.expect st.lex Lexer.RPAREN;
            List.rev acc
          end
        | got -> fail_here st ("expected %blockarg, found " ^ Lexer.token_to_string got)
      end
    in
    go []
  in
  Lexer.expect st.lex Lexer.COLON;
  let block =
    Ir.Block.create
      ~arg_hints:(List.map (fun (n, _, _) -> Some n) args)
      (List.map (fun (_, _, t) -> t) args)
  in
  List.iteri (fun i (n, at, _) -> define_value st n (Ir.Block.arg block i) at) args;
  let rec go () =
    match Lexer.peek st.lex with
    | Lexer.RBRACE | Lexer.CARET _ -> ()
    | _ ->
      Ir.Block.append block (parse_op st);
      go ()
  in
  go ();
  block

let parse_string ?(file = "<input>") src =
  let st = { lex = Lexer.create ~file src; scope = Hashtbl.create 64; depth = 0 } in
  let op = parse_op st in
  (match Lexer.peek st.lex with
  | Lexer.EOF -> ()
  | got -> fail (Lexer.peek_loc st.lex) ("trailing input: " ^ Lexer.token_to_string got));
  op
