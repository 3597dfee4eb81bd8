(* Scratch directories for the tests that need a filesystem.  A test
   process keeps all of them under one root in the temp directory,
   which is removed at exit when every test that ran passed, and kept,
   with its path printed, when one failed. *)

let root =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hir-%s-%d"
       (Filename.remove_extension (Filename.basename Sys.executable_name))
       (Unix.getpid ()))

let failed = ref false

let () =
  at_exit (fun () ->
      if not !failed then Hir_driver.Io.remove_tree root
      else if Sys.file_exists root then Printf.eprintf "scratch directories kept in %s\n" root)

(* A path under the root that does not exist yet. *)
let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat root (string_of_int !counter)

(* [suites] with every test case marking the run failed when it raises. *)
let watch suites =
  List.map
    (fun (name, cases) ->
      ( name,
        List.map
          (fun (case, speed, f) ->
            ( case,
              speed,
              fun () ->
                try f ()
                with e ->
                  failed := true;
                  raise e ))
          cases ))
    suites
