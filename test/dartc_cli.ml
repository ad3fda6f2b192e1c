(* Run the dartc binary built next to the tests (the test runs in
   _build/default/test) and capture its exit code, stdout and stderr. *)

let exe = Filename.concat (Sys.getcwd ()) "../bin/dartc.exe"

let spawn args outfd errfd =
  Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin outfd errfd

(* The exit code of a started dartc, once it has ended; -1 if a signal
   killed it. *)
let wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let run args =
  let out = Filename.temp_file "dartc" ".out" and err = Filename.temp_file "dartc" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let outfd = open_w out and errfd = open_w err in
      let pid = spawn args outfd errfd in
      Unix.close outfd;
      Unix.close errfd;
      let code = wait pid in
      (code, Dart_util.Fileio.read_all out, Dart_util.Fileio.read_all err))

(* Start dartc in the background with its output discarded, for a test
   that signals it; reap it with [wait]. *)
let start args =
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid = spawn args null null in
  Unix.close null;
  pid

(* [f] applied to [n] fresh temporary file names, removed afterwards. *)
let with_temp_files n f =
  let paths = List.init n (fun _ -> Filename.temp_file "dartc_cli" ".tmp") in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths)
    (fun () -> f paths)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The seed-11 campaign over the oSIP simulacrum that the campaign
   goldens pin. *)
let osip_campaign =
  [ "campaign"; "../examples/osip_library.mc"; "--seed"; "11"; "--max-runs"; "600";
    "--per-function-runs"; "150" ]
