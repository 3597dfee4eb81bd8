(* AST for the synthesizable Verilog subset emitted by the HIR code
   generator and consumed by the RTL simulator and the resource model.

   Width semantics follow Verilog-2001's context-determined rules,
   restricted to what the code generator produces:
   - an assignment evaluates its RHS at the width of the LHS;
   - arithmetic/bitwise operands extend to the context width;
   - comparisons are unsigned and self-determined at the wider operand;
   - concatenation and slices are self-determined. *)

type unop =
  | Not  (* bitwise ~ *)
  | Red_or  (* |x *)
  | Red_and  (* &x *)

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | Log_and
  | Log_or

type expr =
  | Const of Bitvec.t
  | Ref of string
  | Index of string * expr  (* memory read: mem[addr] *)
  | Slice of expr * int * int  (* e[hi:lo] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ternary of expr * expr * expr
  | Concat of expr list

type lvalue =
  | Lref of string
  | Lindex of string * expr

type stmt =
  | Nonblocking of lvalue * expr  (* q <= e, inside always @(posedge clk) *)
  | If of expr * stmt list * stmt list
  | Assert_stmt of { cond : expr; message : string }
      (* if (!(cond)) $error(message); — simulation-only check *)

(* Storage style, used by the resource model (and printed as a
   comment + RAM_STYLE attribute). *)
type mem_style = Style_bram | Style_lutram | Style_reg

type item =
  | Wire_decl of { name : string; width : int }
  | Reg_decl of { name : string; width : int }
  | Mem_decl of { name : string; width : int; depth : int; style : mem_style }
  | Assign of { target : string; expr : expr }
  | Always_ff of stmt list  (* always @(posedge clk) *)
  | Instance of {
      module_name : string;
      instance_name : string;
      connections : (string * expr) list;  (* port -> actual *)
    }
  | Comment of string

type direction = Input | Output

type port = { port_name : string; dir : direction; width : int }

type module_def = {
  mod_name : string;
  ports : port list;
  items : item list;
}

type design = { modules : module_def list; top : string }

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)

let const_int ~width n = Const (Bitvec.of_int ~width n)
let zero1 = const_int ~width:1 0

let band a b = Binop (And, a, b)
let bor a b = Binop (Or, a, b)
let bnot a = Unop (Not, a)

let rec or_list = function
  | [] -> zero1
  | [ e ] -> e
  | e :: rest -> Binop (Or, e, or_list rest)

(* Priority mux: first enabled source wins. *)
let rec priority_mux ~default = function
  | [] -> default
  | (en, v) :: rest -> Ternary (en, v, priority_mux ~default rest)

(* Natural (self-determined) width of an expression given a resolver
   for signal widths. *)
let rec natural_width ~signal_width expr =
  match expr with
  | Const b -> Bitvec.width b
  | Ref name -> signal_width name
  | Index (name, _) -> signal_width name
  | Slice (_, hi, lo) -> hi - lo + 1
  | Unop (Not, e) -> natural_width ~signal_width e
  | Unop ((Red_or | Red_and), _) -> 1
  | Binop ((Add | Sub | Mul | And | Or | Xor), a, b) ->
    max (natural_width ~signal_width a) (natural_width ~signal_width b)
  | Binop ((Shl | Shr), a, _) -> natural_width ~signal_width a
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | Log_and | Log_or), _, _) -> 1
  | Ternary (_, a, b) ->
    max (natural_width ~signal_width a) (natural_width ~signal_width b)
  | Concat es -> List.fold_left (fun acc e -> acc + natural_width ~signal_width e) 0 es
