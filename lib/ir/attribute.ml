(* Attributes: constant, uniqued metadata attached to operations. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | String of string
  | Symbol of string  (** Reference to a symbol, printed as [@name]. *)
  | Type of Typ.t
  | Array of t list
  | Dict of (string * t) list

(* Append the textual form of an attribute to [buf]; [typ] renders the
   payload of a type attribute. *)
let rec add_to_buffer ~typ buf = function
  | Unit -> Buffer.add_string buf "unit"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (String.escaped s);
    Buffer.add_char buf '"'
  | Symbol s ->
    Buffer.add_char buf '@';
    Buffer.add_string buf s
  | Type t ->
    Buffer.add_string buf "!ty<";
    Buffer.add_string buf (typ t);
    Buffer.add_char buf '>'
  | Array l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_string buf ", ";
        add_to_buffer ~typ buf a)
      l;
    Buffer.add_char buf ']'
  | Dict l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, a) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf k;
        Buffer.add_string buf " = ";
        add_to_buffer ~typ buf a)
      l;
    Buffer.add_char buf '}'

let to_string a =
  let buf = Buffer.create 32 in
  add_to_buffer ~typ:Typ.to_string buf a;
  Buffer.contents buf

let equal (a : t) (b : t) = a = b

(* Typed accessors; raise on shape mismatch so that misuse in passes
   fails loudly rather than silently. *)
let as_int = function Int n -> n | a -> failwith ("Attribute.as_int: " ^ to_string a)
let as_string = function String s -> s | a -> failwith ("Attribute.as_string: " ^ to_string a)
let as_symbol = function Symbol s -> s | a -> failwith ("Attribute.as_symbol: " ^ to_string a)
let as_type = function Type t -> t | a -> failwith ("Attribute.as_type: " ^ to_string a)
