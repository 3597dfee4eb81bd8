(* The IR type system.

   Like MLIR, the set of types is open: dialects extend [t] with new
   constructors and register printers so that generic IR utilities can
   render them.  The builtin constructors cover the software-like types
   every dialect needs. *)

type t = ..

type t +=
  | Int of int  (** [iN]: N-bit signless integer, N >= 1. *)
  | Float of int  (** [fN]: IEEE float of width 32 or 64. *)
  | None_type  (** The unit type of ops that produce no data. *)

let i1 = Int 1
let i8 = Int 8
let i32 = Int 32
let f32 = Float 32

(* Dialect printer hooks.  Each hook returns [true] if it handled the
   type. *)
let printers : (Format.formatter -> t -> bool) list ref = ref []

let register_printer f = printers := f :: !printers

let pp fmt t =
  match t with
  | Int n -> Format.fprintf fmt "i%d" n
  | Float n -> Format.fprintf fmt "f%d" n
  | None_type -> Format.pp_print_string fmt "none"
  | _ ->
    let handled = List.exists (fun f -> f fmt t) !printers in
    if not handled then Format.pp_print_string fmt "<unregistered-type>"

let to_string t = Format.asprintf "%a" pp t

let equal (a : t) (b : t) = a = b

(* Width in bits of a value of this type as it appears on a wire, if it
   is a data-carrying type.  Dialects register hooks for their own
   types. *)
let width_hooks : (t -> int option) list ref = ref []

let register_width_hook f = width_hooks := f :: !width_hooks

let bit_width t =
  match t with
  | Int n -> Some n
  | Float n -> Some n
  | None_type -> Some 0
  | _ -> List.find_map (fun f -> f t) !width_hooks
