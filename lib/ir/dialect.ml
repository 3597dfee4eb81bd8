(* Dialect and operation registry.

   Dialects register their operations with a verifier and trait set;
   generic infrastructure (the verifier, the pass manager, Table 2 of
   the paper) consults the registry rather than hard-coding op names. *)

type trait =
  | Terminator  (** Op terminates its enclosing block (yield, return). *)
  | Pure  (** No side effects; eligible for CSE and DCE. *)
  | Commutative
  | Scheduled  (** Op carries an explicit (time, offset) schedule. *)

(* Result of an op's fold hook: either an existing value the op's
   single result should be replaced with, or a constant attribute the
   driver materializes through the dialect's constant materializer. *)
type fold_result =
  | Fold_value of Ir.value
  | Fold_attr of Attribute.t

type op_def = {
  od_name : string;  (* fully qualified, e.g. "hir.for" *)
  od_summary : string;
  od_traits : trait list;
  od_verify : Ir.op -> Diagnostic.Engine.t -> unit;
  od_fold : (Ir.op -> fold_result option) option;
}

type dialect = {
  d_name : string;
  d_description : string;
}

let dialects : (string, dialect) Hashtbl.t = Hashtbl.create 8
let op_defs : (string, op_def) Hashtbl.t = Hashtbl.create 64

let no_verify (_ : Ir.op) (_ : Diagnostic.Engine.t) = ()

let register_dialect ~name ~description =
  Hashtbl.replace dialects name { d_name = name; d_description = description }

let register_op ?(summary = "") ?(traits = []) ?(verify = no_verify) ?fold name =
  Hashtbl.replace op_defs name
    {
      od_name = name;
      od_summary = summary;
      od_traits = traits;
      od_verify = verify;
      od_fold = fold;
    }

let lookup_op name = Hashtbl.find_opt op_defs name

let op_fold name = Option.bind (lookup_op name) (fun def -> def.od_fold)

(* Per-dialect constant materializer: builds a detached constant op
   producing [attr] with the requested result type (the dialect may
   substitute its own constant type).  Used by the greedy driver to
   turn [Fold_attr] results into IR. *)
let materializers : (string, Attribute.t -> Typ.t -> Location.t -> Ir.op option) Hashtbl.t =
  Hashtbl.create 8

let register_constant_materializer ~dialect f = Hashtbl.replace materializers dialect f

let materialize_constant ~dialect attr typ loc =
  match Hashtbl.find_opt materializers dialect with
  | Some f -> f attr typ loc
  | None -> None

let op_has_trait name trait =
  match lookup_op name with
  | Some def -> List.mem trait def.od_traits
  | None -> false

let registered_ops () =
  Hashtbl.fold (fun _ def acc -> def :: acc) op_defs []
  |> List.sort (fun a b -> String.compare a.od_name b.od_name)

let dialect_of_op_name name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> ""
