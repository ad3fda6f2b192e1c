(* Directed construction of a protocol packet, character by character.

   The SIP parser under test validates its input with string routines
   (strncmp against "INVITE ", atoi on the dialog id). Every character
   comparison inside those routines is a branch the directed search can
   flip, so DART literally synthesizes a valid packet — and then an id
   that overflows the dialog table. Random testing has one chance in
   256^7 of even passing the method check.

   Run with: dune exec examples/packet_construction.exe *)

let show_packet inputs =
  let chars = List.filteri (fun i _ -> i < 11) inputs in
  String.concat ""
    (List.map
       (fun (_, v) ->
         if v >= 32 && v < 127 then String.make 1 (Char.chr v)
         else Printf.sprintf "\\x%02x" (v land 255))
       chars)

let () =
  print_endline "Searching for a crashing SIP packet (vulnerable parser)...";
  let options = Dart.Driver.Options.make ~max_runs:50_000 () in
  let report =
    Dart.Driver.test_source ~options ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.vulnerable
  in
  print_endline (Dart.Driver.report_to_string report);
  (match report.Dart.Driver.verdict with
   | Dart.Driver.Bug_found bug ->
     Printf.printf "\nconstructed packet: %S\n" (show_packet bug.Dart.Driver.bug_inputs);
     print_endline
       "(the method token was synthesized by flipping mc_strncmp's comparisons;\n\
        \ the dialog id by flipping mc_atoi's digit checks)"
   | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
   | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted ->
     print_endline "no bug found (unexpected)");
  print_endline "\nSame budget of plain random testing:";
  (* Random testing is the same search with the symbolic shadow off. *)
  let random =
    Dart.Driver.Options.make ~seed:9 ~max_runs:50_000
      ~exec:{ Dart.Concolic.default_exec_options with symbolic = false } ()
  in
  let r =
    Dart.Driver.test_source ~options:random ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.vulnerable
  in
  print_endline (Dart.Driver.report_to_string r);
  print_endline "\nBounds-checked parser, same search budget:";
  let report =
    Dart.Driver.test_source ~options ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.fixed
  in
  print_endline (Dart.Driver.report_to_string report)
