(* The MiniC programs under examples/ that the CI smoke steps also run,
   so a test and its CI leg read the same file. *)

let read name = In_channel.with_open_bin (Filename.concat "../examples" name) In_channel.input_all

(* (file, toplevel, depth) of the report-identity programs, each run
   with every bug kept: a bug found early and many more paths
   (ac_controller), restarts through pointer shapes (walk) and a
   non-linear branch next to a gated division fault (gate). *)
let identity_programs =
  [ ("ac_controller.mc", "ac_controller", 2); ("walk.mc", "osip_list_find", 2);
    ("gate.mc", "gate", 4) ]

(* The printed report of a directed search over one of
   [identity_programs] at dartc's defaults (seed 42, 10,000 runs) plus
   the given switches. *)
let report ?exec ?use_incremental ?use_breaker (file, toplevel, depth) =
  let options =
    Dart.Driver.Options.make ~depth ~stop_on_first_bug:false ?exec ?use_incremental
      ?use_breaker ()
  in
  Dart.Driver.report_to_string (Dart.Driver.test_source ~options ~toplevel (read file))
