(* VCD (Value Change Dump) waveform writer for the RTL simulator, so
   generated designs can be inspected in GTKWave & co.  It takes each
   signal as (name, width, reader) and knows nothing else of the
   simulator; [Harness.Make (S).open_vcd] passes every signal of a
   simulator.

     let vcd = Vcd.create ~path:"trace.vcd" signals in
     (* each cycle, after settling: *)
     Vcd.sample vcd;
     ...
     Vcd.close vcd *)

type t = {
  oc : out_channel;
  ids : (string * string * int * (unit -> Bitvec.t)) array;
      (* signal, vcd id, width, reader — the caller resolves each
         reader once, so sampling does no per-signal name lookup *)
  last : Bitvec.t option array;  (* previous sample, parallel to [ids] *)
  mutable time : int;
}

(* VCD identifiers: printable ASCII, shortest-first. *)
let id_of_index i =
  let alphabet = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod alphabet)) in
    let acc = String.make 1 c ^ acc in
    if i < alphabet then acc else go ((i / alphabet) - 1) acc
  in
  go i ""

let create ~path signals =
  let oc = open_out path in
  let ids =
    Array.of_list
      (List.mapi (fun i (name, width, read) -> (name, id_of_index i, width, read)) signals)
  in
  output_string oc "$timescale 1ns $end\n";
  output_string oc "$scope module top $end\n";
  Array.iter
    (fun (name, id, width, _) ->
      Printf.fprintf oc "$var wire %d %s %s $end\n" width id name)
    ids;
  output_string oc "$upscope $end\n$enddefinitions $end\n";
  { oc; ids; last = Array.make (Array.length ids) None; time = 0 }

let emit_value t id width v =
  if width = 1 then
    Printf.fprintf t.oc "%s%s\n" (if Bitvec.is_zero v then "0" else "1") id
  else begin
    (* VCD convention: leading zeros trimmed. *)
    let bits = Bitvec.to_bin_string v in
    let rec first_one i =
      if i >= String.length bits - 1 then String.length bits - 1
      else if bits.[i] = '1' then i
      else first_one (i + 1)
    in
    let trimmed = String.sub bits (first_one 0) (String.length bits - first_one 0) in
    Printf.fprintf t.oc "b%s %s\n" trimmed id
  end

(* Record the current settled state as one timestep; only changed
   signals are written, per the VCD format. *)
let sample t =
  let any = ref false in
  Array.iteri
    (fun i (_name, id, width, read) ->
      let v = read () in
      let changed =
        match t.last.(i) with Some prev -> not (Bitvec.equal prev v) | None -> true
      in
      if changed then begin
        t.last.(i) <- Some v;
        if not !any then begin
          Printf.fprintf t.oc "#%d\n" t.time;
          any := true
        end;
        emit_value t id width v
      end)
    t.ids;
  if (not !any) && t.time = 0 then Printf.fprintf t.oc "#%d\n" t.time;
  t.time <- t.time + 1

let close t =
  Printf.fprintf t.oc "#%d\n" t.time;
  close_out t.oc
