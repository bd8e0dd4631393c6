(* Table III: complexity of target programs — SLOC, total branches,
   reachable branches. Reachable is estimated the paper's way: the sum of
   branches of every function encountered during a short campaign. *)

let run (scale : Util.scale) =
  Util.print_header "Table III: complexity of target programs";
  Printf.printf "%-12s %8s %8s %12s %12s\n" "Program" "SLOC" "Funcs" "Total br." "Reachable";
  List.iter
    (fun name ->
      let t = Util.target name in
      let info = Targets.Registry.instrument t in
      let settings =
        {
          (Util.settings_for t) with
          Compi.Driver.iterations = Util.scaled_iters scale 150;
          seed = 3;
        }
      in
      let r = Util.campaign settings info in
      Printf.printf "%-12s %8d %8d %12d %12d\n%!" name
        (Minic.Pretty.source_lines t.Targets.Registry.program)
        (List.length info.Minic.Branchinfo.funcs)
        info.Minic.Branchinfo.total_branches r.Compi.Driver.reachable_branches)
    [ "susy-hmc"; "hpl"; "imb-mpi1" ];
  Util.compare_line ~label:"SUSY-HMC total/reachable"
    ~paper:"2870 / 2030" ~measured:"(above; ~1/6 scale)";
  Util.compare_line ~label:"HPL total/reachable" ~paper:"3754 / 3468" ~measured:"(above)";
  Util.compare_line ~label:"IMB-MPI1 total/reachable" ~paper:"1290 / 1114" ~measured:"(above)"
