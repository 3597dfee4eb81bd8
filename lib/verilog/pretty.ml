(* Verilog-2001 pretty printer.  Everything is appended to one
   [Buffer.t]; [add_item] and [add_stmt] are exposed so callers can
   measure what an item would print without building a module. *)

open Ast

let unop_to_string = function Not -> "~" | Red_or -> "|" | Red_and -> "&"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Log_and -> "&&"
  | Log_or -> "||"

let add = Buffer.add_string
let add_int buf n = add buf (string_of_int n)

let add_const buf b =
  add_int buf (Bitvec.width b);
  add buf "'h";
  add buf (Bitvec.to_hex_string b)

let rec add_expr buf = function
  | Const b -> add_const buf b
  | Ref name -> add buf name
  | Index (name, addr) ->
    add buf name;
    Buffer.add_char buf '[';
    add_expr buf addr;
    Buffer.add_char buf ']'
  | Slice (e, hi, lo) ->
    add_atom buf e;
    Buffer.add_char buf '[';
    add_int buf hi;
    Buffer.add_char buf ':';
    add_int buf lo;
    Buffer.add_char buf ']'
  | Unop (op, e) ->
    add buf (unop_to_string op);
    add_atom buf e
  | Binop (op, a, b) ->
    Buffer.add_char buf '(';
    add_expr buf a;
    Buffer.add_char buf ' ';
    add buf (binop_to_string op);
    Buffer.add_char buf ' ';
    add_expr buf b;
    Buffer.add_char buf ')'
  | Ternary (c, a, b) ->
    Buffer.add_char buf '(';
    add_expr buf c;
    add buf " ? ";
    add_expr buf a;
    add buf " : ";
    add_expr buf b;
    Buffer.add_char buf ')'
  | Concat es ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i e ->
        if i > 0 then add buf ", ";
        add_expr buf e)
      es;
    Buffer.add_char buf '}'

and add_atom buf e =
  match e with
  | Const _ | Ref _ | Index _ -> add_expr buf e
  | _ ->
    Buffer.add_char buf '(';
    add_expr buf e;
    Buffer.add_char buf ')'

let add_lvalue buf = function
  | Lref name -> add buf name
  | Lindex (name, addr) -> add_expr buf (Index (name, addr))

let rec add_stmt ~indent buf stmt =
  let pad () = add buf (String.make indent ' ') in
  pad ();
  match stmt with
  | Nonblocking (lv, e) ->
    add_lvalue buf lv;
    add buf " <= ";
    add_expr buf e;
    Buffer.add_char buf ';'
  | If (cond, then_s, else_s) ->
    add buf "if (";
    add_expr buf cond;
    add buf ") begin\n";
    add_stmts ~indent:(indent + 2) buf then_s;
    Buffer.add_char buf '\n';
    pad ();
    add buf "end";
    if else_s <> [] then begin
      add buf " else begin\n";
      add_stmts ~indent:(indent + 2) buf else_s;
      Buffer.add_char buf '\n';
      pad ();
      add buf "end"
    end
  | Assert_stmt { cond; message } ->
    add buf "if (!(";
    add_expr buf cond;
    add buf ")) $error(\"";
    add buf (String.map (fun c -> if c = '"' then '\'' else c) message);
    add buf "\");"

and add_stmts ~indent buf stmts =
  List.iteri
    (fun i st ->
      if i > 0 then Buffer.add_char buf '\n';
      add_stmt ~indent buf st)
    stmts

let add_width buf width =
  if width <> 1 then begin
    Buffer.add_char buf '[';
    add_int buf (width - 1);
    add buf ":0] "
  end

let style_attr = function
  | Style_bram -> "(* ram_style = \"block\" *) "
  | Style_lutram -> "(* ram_style = \"distributed\" *) "
  | Style_reg -> ""

(* A comment always ends at its own line break: line breaks and other
   control characters inside the text are written as escapes, so text
   from a source location cannot end the comment and inject Verilog. *)
let add_comment_text buf text =
  String.iter
    (fun c ->
      match c with
      | '\n' -> add buf "\\n"
      | '\r' -> add buf "\\r"
      | '\t' -> add buf "\\t"
      | '\000' .. '\031' | '\127' -> add buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    text

let add_item buf = function
  | Wire_decl { name; width } ->
    add buf "  wire ";
    add_width buf width;
    add buf name;
    Buffer.add_char buf ';'
  | Reg_decl { name; width } ->
    add buf "  reg ";
    add_width buf width;
    add buf name;
    add buf " = 0;"
  | Mem_decl { name; width; depth; style } ->
    add buf "  ";
    add buf (style_attr style);
    add buf "reg ";
    add_width buf width;
    add buf name;
    add buf " [0:";
    add_int buf (depth - 1);
    add buf "];"
  | Assign { target; expr } ->
    add buf "  assign ";
    add buf target;
    add buf " = ";
    add_expr buf expr;
    Buffer.add_char buf ';'
  | Always_ff stmts ->
    add buf "  always @(posedge clk) begin\n";
    add_stmts ~indent:4 buf stmts;
    add buf "\n  end"
  | Instance { module_name; instance_name; connections } ->
    add buf "  ";
    add buf module_name;
    Buffer.add_char buf ' ';
    add buf instance_name;
    add buf " (\n    ";
    List.iteri
      (fun i (port, actual) ->
        if i > 0 then add buf ",\n    ";
        Buffer.add_char buf '.';
        add buf port;
        Buffer.add_char buf '(';
        add_expr buf actual;
        Buffer.add_char buf ')')
      connections;
    add buf "\n  );"
  | Comment text ->
    add buf "  // ";
    add_comment_text buf text

let add_port buf p =
  add buf (match p.dir with Input -> "  input wire " | Output -> "  output wire ");
  add_width buf p.width;
  add buf p.port_name

let add_module buf m =
  add buf "module ";
  add buf m.mod_name;
  add buf " (\n";
  List.iteri
    (fun i p ->
      if i > 0 then add buf ",\n";
      add_port buf p)
    m.ports;
  add buf "\n);\n";
  List.iter
    (fun item ->
      add_item buf item;
      Buffer.add_char buf '\n')
    m.items;
  add buf "endmodule\n"

let design_to_string d =
  let buf = Buffer.create 65536 in
  add buf "// Generated by the HIR compiler\n\n";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf '\n';
      add_module buf m)
    d.modules;
  Buffer.contents buf

let module_to_string m =
  let buf = Buffer.create 4096 in
  add_module buf m;
  Buffer.contents buf
