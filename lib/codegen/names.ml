(* Verilog-legal, unique signal naming for one generated module. *)

module String_set = Set.Make (String)

(* IEEE 1364-2005 reserved words (Annex B). *)
let keywords =
  String_set.of_list
    [
      "always"; "and"; "assign"; "automatic"; "begin"; "buf"; "bufif0"; "bufif1";
      "case"; "casex"; "casez"; "cell"; "cmos"; "config"; "deassign"; "default";
      "defparam"; "design"; "disable"; "edge"; "else"; "end"; "endcase"; "endconfig";
      "endfunction"; "endgenerate"; "endmodule"; "endprimitive"; "endspecify";
      "endtable"; "endtask"; "event"; "for"; "force"; "forever"; "fork"; "function";
      "generate"; "genvar"; "highz0"; "highz1"; "if"; "ifnone"; "incdir"; "include";
      "initial"; "inout"; "input"; "instance"; "integer"; "join"; "large"; "liblist";
      "library"; "localparam"; "macromodule"; "medium"; "module"; "nand"; "negedge";
      "nmos"; "nor"; "noshowcancelled"; "not"; "notif0"; "notif1"; "or"; "output";
      "parameter"; "pmos"; "posedge"; "primitive"; "pull0"; "pull1"; "pulldown";
      "pullup"; "pulsestyle_ondetect"; "pulsestyle_onevent"; "rcmos"; "real";
      "realtime"; "reg"; "release"; "repeat"; "rnmos"; "rpmos"; "rtran"; "rtranif0";
      "rtranif1"; "scalared"; "showcancelled"; "signed"; "small"; "specify";
      "specparam"; "strong0"; "strong1"; "supply0"; "supply1"; "table"; "task";
      "time"; "tran"; "tranif0"; "tranif1"; "tri"; "tri0"; "tri1"; "triand"; "trior";
      "trireg"; "unsigned"; "use"; "uwire"; "vectored"; "wait"; "wand"; "weak0";
      "weak1"; "while"; "wire"; "wor"; "xnor"; "xor";
    ]

(* [used] maps every name handed out to the next suffix to try when
   that name is requested again as a base. *)
type t = { used : (string, int) Hashtbl.t }

let create () =
  let t = { used = Hashtbl.create 64 } in
  (* Ports every module declares. *)
  List.iter (fun n -> Hashtbl.replace t.used n 1) [ "clk"; "t_start" ];
  t

(* A legal Verilog identifier for [s]: other characters become '_', a
   leading digit gets an 's' prefix and a keyword a '_' suffix.  Module
   names and ports go through here too, so no identifier the emitter
   declares is a keyword. *)
let sanitize s =
  let s =
    String.map
      (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      s
  in
  if s = "" then "sig"
  else
    match s.[0] with
    | '0' .. '9' -> "s" ^ s
    | _ -> if String_set.mem s keywords then s ^ "_" else s

(* The first free name among base, base_1, base_2, ….  [used] only
   grows, so the suffixes below a base's recorded next suffix are still
   taken and the search resumes there. *)
let fresh t base =
  let base = sanitize base in
  let name =
    match Hashtbl.find_opt t.used base with
    | None -> base
    | Some k ->
      let rec go k =
        let candidate = base ^ "_" ^ string_of_int k in
        if Hashtbl.mem t.used candidate then go (k + 1)
        else begin
          Hashtbl.replace t.used base (k + 1);
          candidate
        end
      in
      go k
  in
  Hashtbl.replace t.used name 1;
  name

let value_base v =
  match Hir_ir.Ir.Value.hint v with
  | Some h -> h
  | None -> Printf.sprintf "v%d" (Hir_ir.Ir.Value.id v)
