(* Table VI: the COMPI framework against its ablations under a fixed
   time budget:

     Fwk     — COMPI (varies focus and process count, records coverage
               across all processes);
     No_Fwk  — standard concolic testing: fixed focus, fixed 8-process
               launch, coverage of the focus only, no rw/rc/sw marking;
     Random  — pure random testing under the same input caps.

   Paper: SUSY 84.7% vs 3.4% vs 38.3%; HPL 69.4% vs 58.9% vs 2.2%;
   IMB 69.0% vs 64.2% vs 1.8%. *)

let run (scale : Util.scale) =
  Util.print_header "Table VI: framework (Fwk) vs No_Fwk vs Random";
  let budgets = [ ("susy-hmc", 8.0); ("hpl", 12.0); ("imb-mpi1", 6.0) ] in
  Printf.printf "%-10s | %-6s %6s | %-6s %6s | %-6s %6s\n" "Program" "Fwk" "max"
    "No_Fwk" "max" "Random" "max";
  List.iter
    (fun (name, base_budget) ->
      let t = Util.target name in
      let info = Targets.Registry.instrument t in
      let budget = Util.scaled_time scale base_budget in
      let runs mk =
        let rates =
          Util.repeat scale.Util.reps (fun rep -> Util.fixed_rate name (mk (300 + rep)))
        in
        (Util.mean rates, Util.fmax rates)
      in
      let fwk_avg, fwk_max =
        runs (fun seed ->
            let settings =
              {
                (Util.settings_for t) with
                Compi.Driver.iterations = max_int;
                time_budget = Some budget;
                seed;
              }
            in
            Util.campaign settings info)
      in
      let nofwk_avg, nofwk_max =
        runs (fun seed ->
            let settings =
              {
                (Util.settings_for t) with
                Compi.Driver.iterations = max_int;
                time_budget = Some budget;
                framework = false;
                seed;
              }
            in
            Util.campaign settings info)
      in
      let rnd_avg, rnd_max =
        runs (fun seed ->
            let settings =
              {
                (Util.settings_for t) with
                Compi.Driver.iterations = max_int;
                time_budget = Some budget;
                seed;
              }
            in
            Compi.Random_testing.run ~settings info)
      in
      Printf.printf "%-10s | %5.1f%% %5.1f%% | %5.1f%% %5.1f%% | %5.1f%% %5.1f%%\n%!" name
        fwk_avg fwk_max nofwk_avg nofwk_max rnd_avg rnd_max)
    budgets;
  Util.compare_line ~label:"SUSY Fwk / No_Fwk / Random" ~paper:"84.7 / 3.4 / 38.3 %"
    ~measured:"(rows above)";
  Util.compare_line ~label:"HPL Fwk / No_Fwk / Random" ~paper:"69.4 / 58.9 / 2.2 %"
    ~measured:"(rows above)";
  Util.compare_line ~label:"IMB Fwk / No_Fwk / Random" ~paper:"69.0 / 64.2 / 1.8 %"
    ~measured:"(rows above)"
