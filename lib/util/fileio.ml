(* Whole-file I/O for the artifacts a search writes and reads back
   (checkpoints, status snapshots, campaign reports). *)

let write_atomic ?(fault = Faultsim.off) path content =
  if Faultsim.fire fault Faultsim.Io_error then
    raise (Sys_error (path ^ ": injected io_error (faultsim)"));
  (* Write-then-rename in the target directory: the rename is atomic on
     POSIX, so a crash mid-write never leaves a torn file behind. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      flush oc);
  Sys.rename tmp path

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
