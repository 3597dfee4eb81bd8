(* Post-emission outlining: the module-definition cache.

   Emission tags every Verilog item/ff statement with the emission
   group of the HIR op that produced it (unrolled-loop clones are
   tagged by the Unroll pass, generator-built kernels by
   [Builder.group]).  This module takes the tagged item stream of one
   emitted module and outlines repeated groups into shared module
   definitions:

   - each group has a rename-invariant canonical form: internal
     declarations become [x0..], names referenced but not declared
     become input ports [i0..] in first-reference order, declarations
     referenced from outside the group are exported through output
     ports [o0..], nested instances become [u0..];
   - groups whose canonical forms print identically form a class.
     Only a class's first group, its representative, is canonicalized
     and printed.  A later group joins a class by matching the
     representative in lockstep: the same items and ff statements,
     field by field, under a one-to-one renaming of their names (so
     the canonical ids agree), with the same input widths and the same
     exported declarations.  A group that matches no representative is
     canonicalized and looked up by its text, so the classes are
     exactly the text classes;
   - a class is stored once in a [registry] under a content-addressed
     name ([hirdef_<digest>]) and each occurrence is replaced by an
     [Instance] plus wire declarations for its exported outputs;
   - a class is only outlined when it repeats (>= 2 occurrences) and
     the replacement actually shrinks the printed output — so small
     designs keep byte-identical flat emission.  A member's printed
     size is its representative's plus the length differences of
     their names: [Pretty] writes identifiers verbatim.

   Groups that cannot be outlined keep their items in place, tags
   dropped: the zero-outlining case reproduces the flat item stream
   exactly. *)

module V = Hir_verilog.Ast
module P = Hir_verilog.Pretty

(* ------------------------------------------------------------------ *)
(* Definition registry: canonical text -> content-addressed module.    *)

type registry = {
  mutable r_defs : V.module_def list;  (* reverse first-use order *)
  r_by_text : (string, string) Hashtbl.t;  (* canonical text -> name *)
}

let create_registry () = { r_defs = []; r_by_text = Hashtbl.create 16 }

let defs r = List.rev r.r_defs

(* The canonical text is printed with this placeholder name, so the
   digest depends only on structure, never on the final name. *)
let placeholder = "hirdef"

(* [text] is [m] printed. *)
let register_text r ~text (m : V.module_def) =
  match Hashtbl.find_opt r.r_by_text text with
  | Some name -> name
  | None ->
    let name = "hirdef_" ^ Digest.to_hex (Digest.string text) in
    Hashtbl.replace r.r_by_text text name;
    r.r_defs <- { m with V.mod_name = name } :: r.r_defs;
    name

let register r m = register_text r ~text:(P.module_to_string m) m

(* ------------------------------------------------------------------ *)
(* Name traversal and renaming over the Verilog AST                    *)

let rec iter_expr_refs f = function
  | V.Const _ -> ()
  | V.Ref n -> f n
  | V.Index (n, a) ->
    f n;
    iter_expr_refs f a
  | V.Slice (e, _, _) -> iter_expr_refs f e
  | V.Unop (_, e) -> iter_expr_refs f e
  | V.Binop (_, a, b) ->
    iter_expr_refs f a;
    iter_expr_refs f b
  | V.Ternary (c, a, b) ->
    iter_expr_refs f c;
    iter_expr_refs f a;
    iter_expr_refs f b
  | V.Concat es -> List.iter (iter_expr_refs f) es

(* [flv] sees names that are written (assign targets, ff lvalues);
   [f] sees names that are read. *)
let rec iter_stmt_refs ~flv f = function
  | V.Nonblocking (lv, e) ->
    (match lv with
    | V.Lref n -> flv n
    | V.Lindex (n, a) ->
      flv n;
      iter_expr_refs f a);
    iter_expr_refs f e
  | V.If (c, t, e) ->
    iter_expr_refs f c;
    List.iter (iter_stmt_refs ~flv f) t;
    List.iter (iter_stmt_refs ~flv f) e
  | V.Assert_stmt { cond; _ } -> iter_expr_refs f cond

let iter_item_refs ~flv f = function
  | V.Wire_decl _ | V.Reg_decl _ | V.Mem_decl _ | V.Comment _ -> ()
  | V.Assign { target; expr } ->
    flv target;
    iter_expr_refs f expr
  | V.Always_ff stmts -> List.iter (iter_stmt_refs ~flv f) stmts
  | V.Instance { connections; _ } ->
    List.iter (fun (_, e) -> iter_expr_refs f e) connections

let rec rename_expr f = function
  | V.Const _ as e -> e
  | V.Ref n -> V.Ref (f n)
  | V.Index (n, a) -> V.Index (f n, rename_expr f a)
  | V.Slice (e, hi, lo) -> V.Slice (rename_expr f e, hi, lo)
  | V.Unop (op, e) -> V.Unop (op, rename_expr f e)
  | V.Binop (op, a, b) -> V.Binop (op, rename_expr f a, rename_expr f b)
  | V.Ternary (c, a, b) -> V.Ternary (rename_expr f c, rename_expr f a, rename_expr f b)
  | V.Concat es -> V.Concat (List.map (rename_expr f) es)

let rename_lvalue f = function
  | V.Lref n -> V.Lref (f n)
  | V.Lindex (n, a) -> V.Lindex (f n, rename_expr f a)

let rec rename_stmt f = function
  | V.Nonblocking (lv, e) -> V.Nonblocking (rename_lvalue f lv, rename_expr f e)
  | V.If (c, t, e) ->
    V.If (rename_expr f c, List.map (rename_stmt f) t, List.map (rename_stmt f) e)
  | V.Assert_stmt { cond; message } ->
    V.Assert_stmt { cond = rename_expr f cond; message }

let rename_item f = function
  | V.Wire_decl { name; width } -> V.Wire_decl { name = f name; width }
  | V.Reg_decl { name; width } -> V.Reg_decl { name = f name; width }
  | V.Mem_decl { name; width; depth; style } ->
    V.Mem_decl { name = f name; width; depth; style }
  | V.Assign { target; expr } -> V.Assign { target = f target; expr = rename_expr f expr }
  | V.Always_ff stmts -> V.Always_ff (List.map (rename_stmt f) stmts)
  | V.Instance { module_name; instance_name; connections } ->
    V.Instance
      {
        module_name;
        instance_name;
        connections = List.map (fun (p, e) -> (p, rename_expr f e)) connections;
      }
  | V.Comment _ as it -> it

(* ------------------------------------------------------------------ *)
(* Group analysis                                                      *)

type site = {
  s_gid : int;
  mutable s_items : V.item list;  (* reverse while collecting, then in order *)
  mutable s_ffs : V.stmt list;  (* likewise *)
  s_first : int;  (* index of the group's first item *)
  mutable s_bad : bool;  (* structurally not outlinable *)
}

(* What the module says about one name: its width (ports, clk, wire
   and reg declarations; the last declaration wins), whether it is a
   storage array, the group that declares it as a wire or reg, and
   whether anything outside that group reads it. *)
type fact = {
  mutable f_width : int option;
  mutable f_mem : bool;
  mutable f_owner : int option;
  mutable f_external : bool;
}

let width_of facts n =
  match Hashtbl.find_opt facts n with Some f -> f.f_width | None -> None

let is_external facts n =
  match Hashtbl.find_opt facts n with Some f -> f.f_external | None -> false

(* Canonical form of one site, plus what the call site needs to
   instantiate it. *)
type canon = {
  c_def : V.module_def;  (* mod_name = [placeholder] *)
  c_decls : string list;  (* declared names, x0.. order *)
  c_inputs : string list;  (* original names, i0.. order *)
  c_outputs : (string * int) list;  (* original name, width; o0.. order *)
  c_has_clk : bool;
}

let canonicalize facts s =
  let sitems = s.s_items and sffs = s.s_ffs in
  if List.for_all (function V.Comment _ -> true | _ -> false) sitems && sffs = [] then None
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
        if width_of facts n = None then missing_width := true;
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
          if is_external facts n then
            match width_of facts n with
            | Some w -> Some (n, w)
            | None ->
              missing_width := true;
              None
          else None)
        decls
    in
    if !missing_width then None
    else begin
      let rn n = match Hashtbl.find_opt rename n with Some x -> x | None -> n (* clk *) in
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
                  connections = List.map (fun (p, e) -> (p, rename_expr rn e)) connections;
                }
            | it -> rename_item rn it)
          sitems
      in
      let has_clk = sffs <> [] || !uses_clk in
      let exports =
        List.mapi
          (fun j (n, _) -> V.Assign { target = Printf.sprintf "o%d" j; expr = V.Ref (rn n) })
          outputs
      in
      let cports =
        (if has_clk then [ { V.port_name = "clk"; dir = V.Input; width = 1 } ] else [])
        @ List.map
            (fun n ->
              { V.port_name = rn n; dir = V.Input; width = Option.get (width_of facts n) })
            inputs
        @ List.mapi
            (fun j (_, w) -> { V.port_name = Printf.sprintf "o%d" j; dir = V.Output; width = w })
            outputs
      in
      let citems =
        canon_items @ exports
        @ if sffs = [] then [] else [ V.Always_ff (List.map (rename_stmt rn) sffs) ]
      in
      Some
        {
          c_def = { V.mod_name = placeholder; ports = cports; items = citems };
          c_decls = decls;
          c_inputs = inputs;
          c_outputs = outputs;
          c_has_clk = has_clk;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Lockstep match against a class representative                       *)

(* The renaming between a site's names and its representative's, one
   to one, with clk only ever paired with itself; canonical ids are
   assigned in traversal order, so a site that pairs up everywhere gets
   its representative's ids.  [delta] sums the length differences of
   every name met, instance names included. *)
type lockstep = {
  fwd : (string, string) Hashtbl.t;  (* site name -> representative name *)
  bwd : (string, string) Hashtbl.t;
  mutable delta : int;
}

let pair ls a b =
  ls.delta <- ls.delta + String.length a - String.length b;
  match Hashtbl.find_opt ls.fwd a with
  | Some b' -> String.equal b b'
  | None ->
    (not (Hashtbl.mem ls.bwd b))
    && Bool.equal (String.equal a "clk") (String.equal b "clk")
    &&
    (Hashtbl.add ls.fwd a b;
     Hashtbl.add ls.bwd b a;
     true)

let rec same_list f a b =
  match (a, b) with
  | [], [] -> true
  | x :: a, y :: b -> f x y && same_list f a b
  | _ -> false

let rec same_expr ls a b =
  match (a, b) with
  | V.Const x, V.Const y -> Bitvec.equal x y
  | V.Ref x, V.Ref y -> pair ls x y
  | V.Index (x, ea), V.Index (y, eb) -> pair ls x y && same_expr ls ea eb
  | V.Slice (ea, h, l), V.Slice (eb, h', l') -> h = h' && l = l' && same_expr ls ea eb
  | V.Unop (o, ea), V.Unop (o', eb) -> o = o' && same_expr ls ea eb
  | V.Binop (o, a1, a2), V.Binop (o', b1, b2) ->
    o = o' && same_expr ls a1 b1 && same_expr ls a2 b2
  | V.Ternary (a1, a2, a3), V.Ternary (b1, b2, b3) ->
    same_expr ls a1 b1 && same_expr ls a2 b2 && same_expr ls a3 b3
  | V.Concat ea, V.Concat eb -> same_list (same_expr ls) ea eb
  | _ -> false

let same_lvalue ls a b =
  match (a, b) with
  | V.Lref x, V.Lref y -> pair ls x y
  | V.Lindex (x, ea), V.Lindex (y, eb) -> pair ls x y && same_expr ls ea eb
  | _ -> false

let rec same_stmt ls a b =
  match (a, b) with
  | V.Nonblocking (la, ea), V.Nonblocking (lb, eb) -> same_lvalue ls la lb && same_expr ls ea eb
  | V.If (ca, ta, ea), V.If (cb, tb, eb) ->
    same_expr ls ca cb && same_list (same_stmt ls) ta tb && same_list (same_stmt ls) ea eb
  | V.Assert_stmt a, V.Assert_stmt b ->
    String.equal a.message b.message && same_expr ls a.cond b.cond
  | _ -> false

let same_item ls a b =
  match (a, b) with
  | V.Wire_decl a, V.Wire_decl b -> a.width = b.width && pair ls a.name b.name
  | V.Reg_decl a, V.Reg_decl b -> a.width = b.width && pair ls a.name b.name
  | V.Assign a, V.Assign b -> pair ls a.target b.target && same_expr ls a.expr b.expr
  | V.Always_ff a, V.Always_ff b -> same_list (same_stmt ls) a b
  | V.Instance a, V.Instance b ->
    ls.delta <- ls.delta + String.length a.instance_name - String.length b.instance_name;
    String.equal a.module_name b.module_name
    && same_list
         (fun (p, ea) (p', eb) -> String.equal p p' && same_expr ls ea eb)
         a.connections b.connections
  | V.Comment a, V.Comment b -> String.equal a b
  (* A site with a storage array is never outlined. *)
  | _ -> false

exception Mismatch

(* The site's inputs and outputs when it matches the representative
   [r] (canonical form [rc]) in lockstep, with its names' length
   difference; [None] when it does not. *)
let match_site facts ls ~rep:r rc s =
  Hashtbl.clear ls.fwd;
  Hashtbl.clear ls.bwd;
  ls.delta <- 0;
  let same_width a n = if width_of facts a <> width_of facts n then raise Mismatch in
  match
    if not (same_list (same_item ls) s.s_items r.s_items && same_list (same_stmt ls) s.s_ffs r.s_ffs)
    then raise Mismatch;
    let own n = Hashtbl.find ls.bwd n in
    let inputs =
      List.map
        (fun n ->
          let a = own n in
          same_width a n;
          a)
        rc.c_inputs
    in
    let outputs =
      List.filter_map
        (fun n ->
          let a = own n in
          if is_external facts a <> is_external facts n then raise Mismatch;
          if not (is_external facts n) then None
          else begin
            same_width a n;
            Some (a, Option.get (width_of facts n))
          end)
        rc.c_decls
    in
    (inputs, outputs)
  with
  | inputs, outputs -> Some (inputs, outputs, ls.delta)
  | exception Mismatch -> None

(* ------------------------------------------------------------------ *)
(* Classes and their byte counts                                        *)

(* One occurrence of a class: the names its instance connects. *)
type member = {
  m_site : site;
  m_inputs : string list;  (* i0.. order *)
  m_outputs : (string * int) list;  (* o0.. order *)
  m_delta : int option;
      (* the printed-size difference to the representative, when the
         site joined by a lockstep match *)
}

type cls = {
  k_rep : site;
  k_canon : canon;  (* the representative's *)
  k_text : string;  (* its printed canonical module *)
  mutable k_members : member list;  (* reverse *)
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

let flat_bytes scratch s =
  List.fold_left (fun a it -> a + item_bytes scratch it) 0 s.s_items
  + List.fold_left (fun a st -> a + stmt_bytes scratch st) 0 s.s_ffs

let instance_for ~def_name ~inst_name ~has_clk m =
  let conns =
    (if has_clk then [ ("clk", V.Ref "clk") ] else [])
    @ List.mapi (fun j n -> (Printf.sprintf "i%d" j, V.Ref n)) m.m_inputs
    @ List.mapi (fun j (n, _) -> (Printf.sprintf "o%d" j, V.Ref n)) m.m_outputs
  in
  V.Instance { module_name = def_name; instance_name = inst_name; connections = conns }

let output_decls m = List.map (fun (n, w) -> V.Wire_decl { name = n; width = w }) m.m_outputs

let name_bytes names = List.fold_left (fun a n -> a + String.length n) 0 names

(* A member's instance and output wires print the representative's
   plus the length differences of the names they connect: each input
   once, each output in its wire and its connection. *)
let hier_delta ~rep m =
  name_bytes m.m_inputs - name_bytes rep.m_inputs
  + (2 * (name_bytes (List.map fst m.m_outputs) - name_bytes (List.map fst rep.m_outputs)))

(* Does outlining class [k] shrink the printed module? *)
let shrinks scratch k =
  match List.rev k.k_members with
  | [] | [ _ ] -> false
  | rep :: _ as members ->
    let rep_flat = flat_bytes scratch k.k_rep in
    let rep_hier =
      List.fold_left (fun a it -> a + item_bytes scratch it) 0 (output_decls rep)
      + item_bytes scratch
          (instance_for ~def_name:placeholder ~inst_name:"h0" ~has_clk:k.k_canon.c_has_clk rep)
    in
    let flat, hier =
      List.fold_left
        (fun (flat, hier) m ->
          let f =
            match m.m_delta with Some d -> rep_flat + d | None -> flat_bytes scratch m.m_site
          in
          (flat + f, hier + rep_hier + hier_delta ~rep m))
        (0, String.length k.k_text) members
    in
    hier < flat

(* [run] rewrites one module's tagged item/ff streams.  [names] is the
   module's name supply (for instance names); [registry] receives the
   shared definitions.  Returns the plain item and ff lists, and
   records the sites, classes, canonical prints and outlined
   instances in the current [Metrics] scope. *)
let run ~names ~registry ~(ports : V.port list) ~items ~ff =
  let strip () = (List.map snd items, List.map snd ff) in
  (* -- collect sites ----------------------------------------------- *)
  let sites : (int, site) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun idx (g, it) ->
      match g with
      | Some gid ->
        let s =
          match Hashtbl.find_opt sites gid with
          | Some s -> s
          | None ->
            let s = { s_gid = gid; s_items = []; s_ffs = []; s_first = idx; s_bad = false } in
            Hashtbl.replace sites gid s;
            order := s :: !order;
            s
        in
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
    let order = List.rev !order in
    List.iter
      (fun s ->
        s.s_items <- List.rev s.s_items;
        s.s_ffs <- List.rev s.s_ffs)
      order;
    let mark_bad gid =
      match Hashtbl.find_opt sites gid with Some s -> s.s_bad <- true | None -> ()
    in
    (* -- module-wide name facts ------------------------------------ *)
    let facts : (string, fact) Hashtbl.t = Hashtbl.create (List.length items) in
    let fact n =
      match Hashtbl.find_opt facts n with
      | Some f -> f
      | None ->
        let f = { f_width = None; f_mem = false; f_owner = None; f_external = false } in
        Hashtbl.replace facts n f;
        f
    in
    List.iter (fun p -> (fact p.V.port_name).f_width <- Some p.V.width) ports;
    (fact "clk").f_width <- Some 1;
    List.iter
      (fun (g, it) ->
        match it with
        | V.Wire_decl { name; width = w } | V.Reg_decl { name; width = w } ->
          let f = fact name in
          f.f_width <- Some w;
          Option.iter (fun gid -> f.f_owner <- Some gid) g
        | V.Mem_decl { name; _ } ->
          (fact name).f_mem <- true;
          (* Storage arrays cannot cross a module boundary. *)
          Option.iter mark_bad g
        | _ -> ())
      items;
    (* -- cross-group reference analysis ---------------------------- *)
    let scan g =
      let outside owner = match g with Some gid -> gid <> owner | None -> true in
      let read n =
        match Hashtbl.find_opt facts n with
        | Some { f_mem = true; _ } -> Option.iter mark_bad g
        | Some ({ f_owner = Some owner; _ } as f) when outside owner -> f.f_external <- true
        | _ -> ()
      in
      let write n =
        match Hashtbl.find_opt facts n with
        | Some { f_owner = Some owner; _ } ->
          (* Written from outside its declaring group: the declaration
             cannot move into a definition. *)
          if outside owner then mark_bad owner
        | _ ->
          (* A group writing a name it does not declare (a module port,
             a shared wire, a memory) stays inline. *)
          Option.iter mark_bad g
      in
      (read, write)
    in
    List.iter
      (fun (g, it) ->
        let read, write = scan g in
        iter_item_refs ~flv:write read it)
      items;
    List.iter
      (fun (g, st) ->
        let read, write = scan g in
        iter_stmt_refs ~flv:write read st)
      ff;
    (* -- classes, in first-appearance order ------------------------ *)
    let classes = ref [] in
    let by_text : (string, cls) Hashtbl.t = Hashtbl.create 16 in
    let by_shape : (int * int, cls list) Hashtbl.t = Hashtbl.create 16 in
    let prints = ref 0 in
    let ls = { fwd = Hashtbl.create 32; bwd = Hashtbl.create 32; delta = 0 } in
    List.iter
      (fun s ->
        if not s.s_bad then begin
          let shape = (List.length s.s_items, List.length s.s_ffs) in
          let candidates = Option.value ~default:[] (Hashtbl.find_opt by_shape shape) in
          let rec try_match = function
            | [] -> false
            | k :: rest -> (
              match match_site facts ls ~rep:k.k_rep k.k_canon s with
              | Some (m_inputs, m_outputs, delta) ->
                k.k_members <-
                  { m_site = s; m_inputs; m_outputs; m_delta = Some delta } :: k.k_members;
                true
              | None -> try_match rest)
          in
          if not (try_match candidates) then
            match canonicalize facts s with
            | None -> ()
            | Some c -> (
              incr prints;
              let text = P.module_to_string c.c_def in
              let m =
                { m_site = s; m_inputs = c.c_inputs; m_outputs = c.c_outputs; m_delta = None }
              in
              match Hashtbl.find_opt by_text text with
              | Some k -> k.k_members <- m :: k.k_members
              | None ->
                let k =
                  { k_rep = s; k_canon = c; k_text = text; k_members = [ { m with m_delta = Some 0 } ] }
                in
                Hashtbl.replace by_text text k;
                Hashtbl.replace by_shape shape (candidates @ [ k ]);
                classes := k :: !classes)
        end)
      order;
    (* -- outline decision: repeats and actually shrinks ------------ *)
    let outlined : (int, string * bool * member) Hashtbl.t = Hashtbl.create 16 in
    let scratch = Buffer.create 256 in
    List.iter
      (fun k ->
        if shrinks scratch k then begin
          let def_name = register_text registry ~text:k.k_text k.k_canon.c_def in
          List.iter
            (fun m -> Hashtbl.replace outlined m.m_site.s_gid (def_name, k.k_canon.c_has_clk, m))
            k.k_members
        end)
      (List.rev !classes);
    let record name n = Hir_ir.Metrics.record ~n ("outline." ^ name) in
    record "sites" (Hashtbl.length sites);
    record "classes" (List.length !classes);
    record "prints" !prints;
    record "instances" (Hashtbl.length outlined);
    if Hashtbl.length outlined = 0 then strip ()
    else begin
      (* -- apply ---------------------------------------------------- *)
      let out = ref [] in
      List.iteri
        (fun idx (g, it) ->
          match g with
          | Some gid when Hashtbl.mem outlined gid ->
            let def_name, has_clk, m = Hashtbl.find outlined gid in
            if idx = m.m_site.s_first then begin
              List.iter (fun d -> out := d :: !out) (output_decls m);
              let inst_name = Names.fresh names "h" in
              out := instance_for ~def_name ~inst_name ~has_clk m :: !out
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
