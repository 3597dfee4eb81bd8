(* File and descriptor helpers shared by the cache, the journal, the
   server and the protocol client. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Make a rename durable: fsync the directory that holds the file. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Durably replace [path]'s contents with what [write] puts out: a
   fresh temp file beside [path] is written, fsynced and renamed over
   it, and then the directory is fsynced.  A reader sees the old file
   or the new one, never a partial one, and a crash cannot leave a
   renamed-but-empty file.  [fault_point] fires between the write and
   the rename.  The temp file is removed on any failure (a short
   write, an injected fault, a rename onto a squatted path), so a
   failed publish leaves nothing behind. *)
let publish ?fault_point path write =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          write oc;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc);
          close_out oc);
      Option.iter Faults.point fault_point;
      Sys.rename tmp path;
      fsync_dir dir)

(* Remove [path] and everything under it (symbolic links are removed,
   not followed).  A missing [path] is not an error. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Replace [path]'s contents with [s].  A failure to open, write or
   close (a missing directory, a full disk) raises [Sys_error]. *)
let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc s;
      close_out oc)

(* Write all of [s], resuming after short writes and EINTR.  Any other
   error (EPIPE from a hung-up peer, ENOSPC, ...) reaches the caller. *)
let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0
