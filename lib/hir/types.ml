(* HIR dialect types (paper Section 4.3, 4.4):

   - [!hir.const]  compile-time integer constant
   - [!hir.time]   a time variable (an event in the schedule)
   - [!hir.memref<d0*d1*...*elem, packing=[..], port>]
        a port onto a multidimensional tensor; each dimension is packed
        (within one buffer) or distributed (across banks). *)

type port = Read | Write | Read_write

let port_to_string = function
  | Read -> "r"
  | Write -> "w"
  | Read_write -> "rw"

type dim = { size : int; packed : bool }

type memref_info = {
  dims : dim list;  (* leftmost dim first, as printed *)
  elem : Hir_ir.Typ.t;
  port : port;
}

type Hir_ir.Typ.t +=
  | Const
  | Time
  | Memref of memref_info

(* ------------------------------------------------------------------ *)
(* Memref structure queries                                            *)

let memref ?(packing = None) ~dims ~elem ~port () =
  let n = List.length dims in
  let packed_set =
    match packing with
    | None -> List.init n (fun _ -> true)
    | Some packed_dims -> List.init n (fun i -> List.mem i packed_dims)
  in
  Memref
    {
      dims = List.map2 (fun size packed -> { size; packed }) dims packed_set;
      elem;
      port;
    }

let memref_info = function
  | Memref i -> i
  | t -> failwith ("not a memref type: " ^ Hir_ir.Typ.to_string t)

let num_elements info =
  List.fold_left (fun acc d -> acc * d.size) 1 info.dims

(* Number of independent buffers (banks): product of distributed dims. *)
let num_banks info =
  List.fold_left (fun acc d -> if d.packed then acc else acc * d.size) 1 info.dims

(* Elements held in each bank: product of packed dims. *)
let bank_depth info =
  List.fold_left (fun acc d -> if d.packed then acc * d.size else acc) 1 info.dims

(* Bank index for a full index vector: row-major over the distributed
   dims only.  Distributed dims are indexed by compile-time constants,
   so this is a static quantity at each access site. *)
let bank_of_indices info indices =
  let rec go dims indices acc =
    match (dims, indices) with
    | [], [] -> acc
    | d :: dims, i :: indices ->
      if d.packed then go dims indices acc else go dims indices ((acc * d.size) + i)
    | _ -> invalid_arg "bank_of_indices: rank mismatch"
  in
  go info.dims indices 0

(* Linear address within a bank: row-major over the packed dims only. *)
let packed_address_of_indices info indices =
  let rec go dims indices acc =
    match (dims, indices) with
    | [], [] -> acc
    | d :: dims, i :: indices ->
      if d.packed then go dims indices ((acc * d.size) + i) else go dims indices acc
    | _ -> invalid_arg "packed_address_of_indices: rank mismatch"
  in
  go info.dims indices 0

(* The layout map used by Figure 3: for each element (full index
   vector), which bank and which address within the bank. *)
let layout info =
  let rank = List.length info.dims in
  let sizes = List.map (fun d -> d.size) info.dims in
  let rec enumerate prefix = function
    | [] -> [ List.rev prefix ]
    | s :: rest ->
      List.concat_map
        (fun i -> enumerate (i :: prefix) rest)
        (List.init s (fun i -> i))
  in
  ignore rank;
  List.map
    (fun idx -> (idx, bank_of_indices info idx, packed_address_of_indices info idx))
    (enumerate [] sizes)

let same_tensor_shape a b =
  List.length a.dims = List.length b.dims
  && List.for_all2 (fun x y -> x.size = y.size && x.packed = y.packed) a.dims b.dims
  && Hir_ir.Typ.equal a.elem b.elem

(* ------------------------------------------------------------------ *)
(* Printing and parsing                                                *)

let add_memref buf info =
  Buffer.add_string buf "!hir.memref<";
  List.iter
    (fun d ->
      Buffer.add_string buf (string_of_int d.size);
      Buffer.add_char buf '*')
    info.dims;
  Hir_ir.Typ.add_to_buffer buf info.elem;
  if not (List.for_all (fun d -> d.packed) info.dims) then begin
    Buffer.add_string buf ", packing=[";
    info.dims
    |> List.mapi (fun i d -> if d.packed then Some (string_of_int i) else None)
    |> List.filter_map Fun.id
    |> String.concat ","
    |> Buffer.add_string buf;
    Buffer.add_char buf ']'
  end;
  Buffer.add_string buf ", ";
  Buffer.add_string buf (port_to_string info.port);
  Buffer.add_char buf '>'

let print_type buf = function
  | Const ->
    Buffer.add_string buf "!hir.const";
    true
  | Time ->
    Buffer.add_string buf "!hir.time";
    true
  | Memref info ->
    add_memref buf info;
    true
  | _ -> false

(* [lex] has just read [mnemonic], so its last token is where the
   type's errors point. *)
let parse_type mnemonic lex =
  let module L = Hir_ir.Lexer in
  match mnemonic with
  | "const" -> Const
  | "time" -> Time
  | "memref" ->
    let at = L.offset lex in
    L.expect lex L.LANGLE;
    (* dims: INT STAR ... then element type.  Sizes must be positive and
       the tensor bounded: a parsed [!hir.memref<-3*i32>] or a
       billion-element dimension would otherwise crash or hang bank
       layout and codegen far from any source location. *)
    let max_elements = 1 lsl 22 in
    let rec dims acc =
      match L.peek lex with
      | L.INT n ->
        ignore (L.next lex);
        let dim_at = L.offset lex in
        if n < 1 then raise (L.Lex_error (L.loc lex, "memref dimension size must be positive"));
        L.expect lex L.STAR;
        let acc = n :: acc in
        (* Each accepted size is <= max_elements, so the running product
           of at most 22-bit factors cannot overflow before the check. *)
        if n > max_elements || List.fold_left ( * ) 1 acc > max_elements then
          raise
            (L.Lex_error
               ( L.location_at lex dim_at,
                 Printf.sprintf "memref has more than %d elements" max_elements ));
        dims acc
      | _ -> List.rev acc
    in
    let sizes = dims [] in
    let elem = Hir_ir.Type_parser.parse lex in
    let packing = ref None in
    let port = ref Read_write in
    let parse_tail () =
      while L.accept lex L.COMMA do
        match L.next lex with
        | L.IDENT "packing" ->
          L.expect lex L.EQUAL;
          L.expect lex L.LBRACKET;
          let rec ints acc =
            match L.peek lex with
            | L.INT n ->
              ignore (L.next lex);
              ignore (L.accept lex L.COMMA);
              ints (n :: acc)
            | _ ->
              L.expect lex L.RBRACKET;
              List.rev acc
          in
          packing := Some (ints [])
        | L.IDENT "r" -> port := Read
        | L.IDENT "w" -> port := Write
        | L.IDENT "rw" -> port := Read_write
        | got ->
          raise (L.Lex_error (L.loc lex, "unexpected memref modifier " ^ L.token_to_string got))
      done;
      L.expect lex L.RANGLE
    in
    parse_tail ();
    let t = memref ~packing:!packing ~dims:sizes ~elem ~port:!port () in
    (* Every bank becomes its own storage block in codegen, so a parsed
       type whose packing leaves millions of dims distributed must be
       rejected here, with the other textual bounds. *)
    let max_banks = 4096 in
    (match t with
    | Memref info when num_banks info > max_banks ->
      raise
        (L.Lex_error
           (L.location_at lex at, Printf.sprintf "memref has more than %d banks" max_banks))
    | _ -> ());
    t
  | m -> raise (L.Lex_error (L.loc lex, "unknown hir type mnemonic '" ^ m ^ "'"))

let bit_width_hook = function
  | Const -> Some 32  (* materialized constants default to 32 bits *)
  | Time -> Some 1  (* a time variable is a 1-bit pulse in hardware *)
  | Memref _ -> None
  | _ -> None

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Hir_ir.Typ.register_printer print_type;
    Hir_ir.Type_parser.register_dialect ~dialect:"hir" parse_type;
    Hir_ir.Typ.register_width_hook bit_width_hook
  end
