(* Source locations, in the style of MLIR's Location attribute. *)

type t =
  | Unknown
  | File of { file : string; line : int; col : int }
  | Name of { name : string; child : t }
      (* A named location, e.g. the label a builder attaches to an op. *)

let unknown = Unknown
let file ~file ~line ~col = File { file; line; col }
let name ?(child = Unknown) n = Name { name = n; child }

let rec to_string = function
  | Unknown -> "loc(unknown)"
  | File { file; line; col } -> Printf.sprintf "%s:%d:%d" file line col
  | Name { name; child = Unknown } -> Printf.sprintf "%S" name
  | Name { name; child } -> Printf.sprintf "%S(%s)" name (to_string child)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let is_unknown = function Unknown -> true | File _ | Name _ -> false
