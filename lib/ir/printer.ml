(* Generic textual form, MLIR style:

     %v0 = "hir.add"(%a, %b) {attrs} : (i32, i32) -> i32

   The output round-trips through [Parser].  Value names prefer the
   hint recorded on the value, uniquified with a numeric suffix.

   Ops are written into one [Buffer.t]; the whole print is linear in
   the size of the text it produces. *)

open Ir

type namer = {
  names : (int, string) Hashtbl.t;  (* value id -> printed name *)
  used : (string, int) Hashtbl.t;  (* printed name -> next suffix to try as a base *)
  types : (Typ.t, string) Hashtbl.t;  (* type -> its text *)
  canonical : bool;  (* sequential names, ignore hints and ids *)
  fix : bool;  (* write what the parse would read back into the IR *)
  mutable next_seq : int;
}

(* A namer lives for one print: its tables are never shared, so
   printers running on several domains do not contend. *)
let create_namer ?(canonical = false) () =
  {
    names = Hashtbl.create 64;
    used = Hashtbl.create 64;
    types = Hashtbl.create 16;
    canonical;
    fix = false;
    next_seq = 0;
  }

let name_value namer v =
  match Hashtbl.find_opt namer.names v.v_id with
  | Some n -> n
  | None when namer.canonical ->
    (* Canonical mode names values 0, 1, 2, … in order of first
       appearance, so two structurally identical modules print the same
       text regardless of the hints and ids their construction history
       left behind. *)
    let n = string_of_int namer.next_seq in
    namer.next_seq <- namer.next_seq + 1;
    Hashtbl.replace namer.names v.v_id n;
    n
  | None ->
    let base =
      match v.v_hint with Some h -> h | None -> "v" ^ string_of_int v.v_id
    in
    (* The first free name among base, base_1, base_2, ….  [used] only
       grows, so the suffixes below a base's recorded next suffix are
       still taken and the search resumes there. *)
    let n =
      match Hashtbl.find_opt namer.used base with
      | None -> base
      | Some k ->
        let rec unique k =
          let candidate = base ^ "_" ^ string_of_int k in
          if Hashtbl.mem namer.used candidate then unique (k + 1)
          else begin
            Hashtbl.replace namer.used base (k + 1);
            candidate
          end
        in
        unique k
    in
    Hashtbl.replace namer.used n 1;
    Hashtbl.replace namer.names v.v_id n;
    (* Later lookups of [v] hit [names], so the hint can change now. *)
    if namer.fix then v.v_hint <- Some n;
    n

(* Each distinct type is rendered once per print. *)
let type_text namer t =
  match Hashtbl.find_opt namer.types t with
  | Some s -> s
  | None ->
    let s = Typ.to_string t in
    Hashtbl.add namer.types t s;
    s

let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let add_value namer buf v =
  Buffer.add_char buf '%';
  Buffer.add_string buf (name_value namer v)

let add_sep_array buf add a =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      add x)
    a

let add_attrs namer buf = function
  | [] -> ()
  | attrs ->
    let attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs in
    Buffer.add_string buf " {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_string buf " = ";
        Attribute.add_to_buffer ~typ:(type_text namer) buf v)
      attrs;
    Buffer.add_char buf '}'

(* Locations are printed in the parseable quoted form, unlike the bare
   form [Location.pp] uses in diagnostics.  A named location prints
   without its child, so the parse reads the child back as unknown. *)
let add_loc buf op =
  match op.loc with
  | Location.Unknown -> ()
  | Location.File { file; line; col } ->
    Buffer.add_string buf " loc(";
    add_quoted buf file;
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int line);
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int col);
    Buffer.add_char buf ')'
  | Location.Name { name; _ } ->
    Buffer.add_string buf " loc(";
    add_quoted buf name;
    Buffer.add_char buf ')'

let add_types namer buf values =
  Buffer.add_char buf '(';
  add_sep_array buf (fun v -> Buffer.add_string buf (type_text namer v.v_type)) values;
  Buffer.add_char buf ')'

let rec add_op ?(indent = 0) namer buf op =
  if Array.length op.results > 0 then begin
    add_sep_array buf (add_value namer buf) op.results;
    Buffer.add_string buf " = "
  end;
  add_quoted buf op.op_name;
  Buffer.add_char buf '(';
  add_sep_array buf (add_value namer buf) op.operands;
  Buffer.add_char buf ')';
  (match op.regions with
  | [] -> ()
  | regions ->
    Buffer.add_string buf " (";
    List.iteri
      (fun i r ->
        if i > 0 then Buffer.add_string buf ", ";
        add_region ~indent namer buf r)
      regions;
    Buffer.add_char buf ')');
  add_attrs namer buf op.attrs;
  Buffer.add_string buf " : ";
  add_types namer buf op.operands;
  Buffer.add_string buf " -> ";
  add_types namer buf op.results;
  add_loc buf op

and add_region ~indent namer buf r =
  let pad = String.make (indent + 2) ' ' in
  Buffer.add_char buf '{';
  List.iter
    (fun b ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_string buf "^bb(";
      add_sep_array buf
        (fun a ->
          add_value namer buf a;
          Buffer.add_string buf ": ";
          Buffer.add_string buf (type_text namer a.v_type))
        b.b_args;
      Buffer.add_string buf "):";
      List.iter
        (fun op ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf pad;
          add_op ~indent:(indent + 2) namer buf op)
        (Block.ops b))
    r.blocks;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_char buf '}'

let print_with namer op =
  let buf = Buffer.create 4096 in
  add_op namer buf op;
  Buffer.contents buf

let op_to_string op = print_with (create_namer ()) op

(* Leave [op] as [Parser.parse_string] would read its print back, ids
   and attribute order aside, without building the text: each value's
   hint becomes its printed name, and a named location drops the child
   the text does not carry.  The walk meets values in the order a print
   does (results, operands, then each region's block arguments and
   ops), so the namer gives each the name it prints with.  This is the
   print∘parse fixed point computed in place.  Printing [op] then gives
   the same text every time, and so does printing any op nested in it
   on its own, since the names are now unique within [op].
   [Ir.Clone] of [op], or of a function nested in it, therefore builds
   the IR that parsing its printed form builds, in the same id
   order. *)
let fix_names op =
  let namer = { (create_namer ()) with fix = true } in
  let name v = ignore (name_value namer v) in
  let rec walk op =
    Array.iter name op.results;
    Array.iter name op.operands;
    List.iter
      (fun r ->
        List.iter
          (fun b ->
            Array.iter name b.b_args;
            List.iter walk (Block.ops b))
          r.blocks)
      op.regions;
    match op.loc with
    | Location.Name { name; child } when child <> Location.Unknown ->
      op.loc <- Location.name name
    | _ -> ()
  in
  walk op

(* [fix_names], then the text: after the walk every hint is a unique
   printed name, so a plain print reproduces it name for name. *)
let op_to_string_fixed op =
  fix_names op;
  op_to_string op

(* Canonical text: identical for structurally identical modules even
   when value ids / hints differ (e.g. comparing the output of two
   different optimization pipelines).  Not intended to be parsed back. *)
let op_to_canonical_string op = print_with (create_namer ~canonical:true ()) op
