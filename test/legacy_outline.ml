(* An outliner that canonicalizes every site into a module, prints it
   and classifies it by its text, and measures the bytes an outlining
   saves by printing each member's items.  It is the oracle for the
   differential tests of [Hir_codegen.Outline.run], which must return
   the same items, ff statements and definitions on every stream. *)

module V = Hir_verilog.Ast
module P = Hir_verilog.Pretty
module Names = Hir_codegen.Names
open Hir_codegen.Outline

type site = {
  s_gid : int;
  mutable s_items : V.item list;  (* reverse *)
  mutable s_ffs : V.stmt list;  (* reverse *)
  mutable s_first : int;  (* index of the group's first item *)
  mutable s_bad : bool;  (* structurally not outlinable *)
}

(* Canonical form of one site, plus what the call site needs to
   instantiate it. *)
type canon = {
  c_def : V.module_def;  (* mod_name = [placeholder] *)
  c_inputs : string list;  (* original names, i0.. order *)
  c_outputs : (string * int) list;  (* original name, width; o0.. order *)
  c_has_clk : bool;
}

(* Printed size of an item or ff statement with its newline, measured
   by printing it into a scratch buffer. *)
let item_bytes scratch it =
  Buffer.clear scratch;
  P.add_item scratch it;
  Buffer.length scratch + 1

let stmt_bytes scratch st =
  Buffer.clear scratch;
  P.add_stmt ~indent:4 scratch st;
  Buffer.length scratch + 1

let instance_for ~def_name ~inst_name c =
  let conns =
    (if c.c_has_clk then [ ("clk", V.Ref "clk") ] else [])
    @ List.mapi (fun j n -> (Printf.sprintf "i%d" j, V.Ref n)) c.c_inputs
    @ List.mapi (fun j (n, _) -> (Printf.sprintf "o%d" j, V.Ref n)) c.c_outputs
  in
  V.Instance { module_name = def_name; instance_name = inst_name; connections = conns }

let output_decls c =
  List.map (fun (n, w) -> V.Wire_decl { name = n; width = w }) c.c_outputs

(* [run] rewrites one module's tagged item/ff streams.  [names] is the
   module's name supply (for instance names); [registry] receives the
   shared definitions.  Returns the plain item and ff lists. *)
let run ~names ~registry ~(ports : V.port list) ~items ~ff =
  let strip () = (List.map snd items, List.map snd ff) in
  (* -- collect sites ----------------------------------------------- *)
  let sites : (int, site) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let site_of gid idx =
    match Hashtbl.find_opt sites gid with
    | Some s -> s
    | None ->
      let s = { s_gid = gid; s_items = []; s_ffs = []; s_first = idx; s_bad = false } in
      Hashtbl.replace sites gid s;
      order := gid :: !order;
      s
  in
  List.iteri
    (fun idx (g, it) ->
      match g with
      | Some gid ->
        let s = site_of gid idx in
        s.s_items <- it :: s.s_items
      | None -> ())
    items;
  List.iter
    (fun (g, st) ->
      match g with
      | Some gid -> (
        (* ff statements of a group that declared no items stay in
           place: such a group has no site and is never outlined. *)
        match Hashtbl.find_opt sites gid with
        | Some s -> s.s_ffs <- st :: s.s_ffs
        | None -> ())
      | None -> ())
    ff;
  if Hashtbl.length sites = 0 then strip ()
  else begin
    (* -- module-wide name facts ------------------------------------ *)
    let width = Hashtbl.create 64 in
    let mems = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace width p.V.port_name p.V.width) ports;
    Hashtbl.replace width "clk" 1;
    let decl_site : (string, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (g, it) ->
        (match it with
        | V.Wire_decl { name; width = w } | V.Reg_decl { name; width = w } ->
          Hashtbl.replace width name w
        | V.Mem_decl { name; _ } -> Hashtbl.replace mems name ()
        | _ -> ());
        match (g, it) with
        | Some gid, (V.Wire_decl { name; _ } | V.Reg_decl { name; _ }) ->
          Hashtbl.replace decl_site name gid
        | Some gid, V.Mem_decl _ ->
          (* Storage arrays cannot cross a module boundary. *)
          (site_of gid 0).s_bad <- true
        | _ -> ())
      items;
    (* -- cross-group reference analysis ---------------------------- *)
    let external_ref = Hashtbl.create 32 in
    let mark_bad gid =
      match Hashtbl.find_opt sites gid with Some s -> s.s_bad <- true | None -> ()
    in
    let scan g =
      let f n =
        if Hashtbl.mem mems n then (
          match g with Some gid -> mark_bad gid | None -> ())
        else
          match Hashtbl.find_opt decl_site n with
          | Some owner when g <> Some owner -> Hashtbl.replace external_ref n ()
          | _ -> ()
      in
      let flv n =
        match Hashtbl.find_opt decl_site n with
        | Some owner ->
          (* Written from outside its declaring group: the declaration
             cannot move into a definition. *)
          if g <> Some owner then mark_bad owner
        | None -> (
          (* A group writing a name it does not declare (a module port,
             a shared wire, a memory) stays inline. *)
          match g with Some gid -> mark_bad gid | None -> ())
      in
      (f, flv)
    in
    List.iter
      (fun (g, it) ->
        let f, flv = scan g in
        iter_item_refs ~flv f it)
      items;
    List.iter
      (fun (g, st) ->
        let f, flv = scan g in
        iter_stmt_refs ~flv f st)
      ff;
    (* -- canonicalization ------------------------------------------ *)
    let canonicalize s =
      let sitems = List.rev s.s_items and sffs = List.rev s.s_ffs in
      if List.for_all (function V.Comment _ -> true | _ -> false) sitems && sffs = []
      then None
      else begin
        let rename = Hashtbl.create 32 in
        let decls = ref [] in
        let xcount = ref 0 in
        List.iter
          (function
            | V.Wire_decl { name; _ } | V.Reg_decl { name; _ } ->
              if not (Hashtbl.mem rename name) then begin
                Hashtbl.replace rename name (Printf.sprintf "x%d" !xcount);
                incr xcount;
                decls := name :: !decls
              end
            | _ -> ())
          sitems;
        let decls = List.rev !decls in
        let inputs = ref [] in
        let icount = ref 0 in
        let uses_clk = ref false in
        let missing_width = ref false in
        let note n =
          if n = "clk" then uses_clk := true
          else if not (Hashtbl.mem rename n) then begin
            if not (Hashtbl.mem width n) then missing_width := true;
            Hashtbl.replace rename n (Printf.sprintf "i%d" !icount);
            incr icount;
            inputs := n :: !inputs
          end
        in
        List.iter (iter_item_refs ~flv:note note) sitems;
        List.iter (iter_stmt_refs ~flv:note note) sffs;
        let inputs = List.rev !inputs in
        let outputs =
          List.filter_map
            (fun n ->
              if Hashtbl.mem external_ref n then
                match Hashtbl.find_opt width n with
                | Some w -> Some (n, w)
                | None ->
                  missing_width := true;
                  None
              else None)
            decls
        in
        if !missing_width then None
        else begin
          let rn n =
            match Hashtbl.find_opt rename n with Some x -> x | None -> n (* clk *)
          in
          let ucount = ref 0 in
          let canon_items =
            List.map
              (function
                | V.Instance { module_name; instance_name = _; connections } ->
                  let u = Printf.sprintf "u%d" !ucount in
                  incr ucount;
                  V.Instance
                    {
                      module_name;
                      instance_name = u;
                      connections =
                        List.map (fun (p, e) -> (p, rename_expr rn e)) connections;
                    }
                | it -> rename_item rn it)
              sitems
          in
          let has_clk = sffs <> [] || !uses_clk in
          let exports =
            List.mapi
              (fun j (n, _) ->
                V.Assign { target = Printf.sprintf "o%d" j; expr = V.Ref (rn n) })
              outputs
          in
          let cports =
            (if has_clk then [ { V.port_name = "clk"; dir = V.Input; width = 1 } ]
             else [])
            @ List.map
                (fun n ->
                  {
                    V.port_name = Hashtbl.find rename n;
                    dir = V.Input;
                    width = Hashtbl.find width n;
                  })
                inputs
            @ List.mapi
                (fun j (_, w) ->
                  { V.port_name = Printf.sprintf "o%d" j; dir = V.Output; width = w })
                outputs
          in
          let citems =
            canon_items @ exports
            @ if sffs = [] then [] else [ V.Always_ff (List.map (rename_stmt rn) sffs) ]
          in
          Some
            {
              c_def = { V.mod_name = placeholder; ports = cports; items = citems };
              c_inputs = inputs;
              c_outputs = outputs;
              c_has_clk = has_clk;
            }
        end
      end
    in
    (* -- dedup classes, in first-appearance order ------------------ *)
    let classes : (string, (site * canon) list ref) Hashtbl.t = Hashtbl.create 16 in
    let class_order = ref [] in
    List.iter
      (fun gid ->
        let s = Hashtbl.find sites gid in
        if not s.s_bad then
          match canonicalize s with
          | None -> ()
          | Some c -> (
            let text = P.module_to_string c.c_def in
            match Hashtbl.find_opt classes text with
            | Some l -> l := (s, c) :: !l
            | None ->
              Hashtbl.replace classes text (ref [ (s, c) ]);
              class_order := text :: !class_order))
      (List.rev !order);
    (* -- outline decision: repeats and actually shrinks ------------ *)
    let outlined : (int, string * canon) Hashtbl.t = Hashtbl.create 16 in
    let scratch = Buffer.create 256 in
    List.iter
      (fun text ->
        let members = List.rev !(Hashtbl.find classes text) in
        if List.length members >= 2 then begin
          let flat_bytes =
            List.fold_left
              (fun acc (s, _) ->
                acc
                + List.fold_left (fun a it -> a + item_bytes scratch it) 0 (List.rev s.s_items)
                + List.fold_left (fun a st -> a + stmt_bytes scratch st) 0 (List.rev s.s_ffs))
              0 members
          in
          let hier_bytes =
            String.length text
            + List.fold_left
                (fun acc (_, c) ->
                  acc
                  + List.fold_left (fun a it -> a + item_bytes scratch it) 0 (output_decls c)
                  + item_bytes scratch (instance_for ~def_name:placeholder ~inst_name:"h0" c))
                0 members
          in
          if hier_bytes < flat_bytes then begin
            let def_name = register registry (snd (List.hd members)).c_def in
            List.iter
              (fun (s, c) -> Hashtbl.replace outlined s.s_gid (def_name, c))
              members
          end
        end)
      (List.rev !class_order);
    if Hashtbl.length outlined = 0 then strip ()
    else begin
      (* -- apply ---------------------------------------------------- *)
      let out = ref [] in
      List.iteri
        (fun idx (g, it) ->
          match g with
          | Some gid when Hashtbl.mem outlined gid ->
            let def_name, c = Hashtbl.find outlined gid in
            let s = Hashtbl.find sites gid in
            if idx = s.s_first then begin
              List.iter (fun d -> out := d :: !out) (output_decls c);
              let inst_name = Names.fresh names "h" in
              out := instance_for ~def_name ~inst_name c :: !out
            end
          | _ -> out := it :: !out)
        items;
      let out_ff =
        List.filter_map
          (fun (g, st) ->
            match g with
            | Some gid when Hashtbl.mem outlined gid -> None
            | _ -> Some st)
          ff
      in
      (List.rev !out, out_ff)
    end
  end
