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
