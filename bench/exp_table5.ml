(* Table V + Figure 9: constraint-set reduction. Three configurations
   per program under a fixed wall-clock budget:

     R       — COMPI with reduction (default),
     NRBound — no reduction, BoundedDFS with the same depth limit,
     NRUnl   — no reduction, unlimited depth.

   Reports the average/max coverage rate over the repetitions (Table V)
   and the distribution of per-iteration constraint-set sizes
   (Figure 9): with reduction the sets stay small (paper: < 500), while
   without it they explode. *)

type config_result = {
  rates : float list;
  iters : float list;  (* iterations completed within the budget *)
  cs_sizes : int list;  (* per-iteration constraint-set sizes, pooled *)
}

let campaign t info ~budget ~reduce ~bound ~seed =
  let tn = t.Targets.Registry.tuning in
  let settings =
    {
      (Util.settings_for t) with
      Compi.Driver.iterations = max_int;
      time_budget = Some budget;
      reduce;
      depth_bound = bound;
      strategy =
        (match bound with
        | Some b -> Compi.Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs b)
        | None -> Compi.Driver.Two_phase_dfs);
      dfs_phase_iters = tn.Targets.Registry.dfs_phase;
      seed;
    }
  in
  Util.campaign settings info

let histogram sizes =
  let buckets = [ (0, 100); (100, 500); (500, 2000); (2000, max_int) ] in
  List.map
    (fun (lo, hi) ->
      (lo, hi, List.length (List.filter (fun s -> s >= lo && s < hi) sizes)))
    buckets

let pp_hist label sizes =
  let total = max 1 (List.length sizes) in
  Printf.printf "    %-10s" label;
  List.iter
    (fun (lo, hi, n) ->
      let pct = 100.0 *. float_of_int n /. float_of_int total in
      if hi = max_int then Printf.printf "  >=%d: %4.1f%%" lo pct
      else Printf.printf "  [%d,%d): %4.1f%%" lo hi pct)
    (histogram sizes);
  Printf.printf "   (max %d)\n%!" (Util.imax (0 :: sizes))

let run (scale : Util.scale) =
  Util.print_header "Table V + Figure 9: constraint-set reduction";
  let budgets = [ ("susy-hmc", 8.0); ("hpl", 12.0); ("imb-mpi1", 6.0) ] in
  Printf.printf "%-10s | %-9s %7s %7s | %-9s %7s %7s | %-9s %7s %7s\n" "Program" "R" "avg"
    "max" "NRBound" "avg" "max" "NRUnl" "avg" "max";
  List.iter
    (fun (name, base_budget) ->
      let t = Util.target name in
      let info = Targets.Registry.instrument t in
      let budget = Util.scaled_time scale base_budget in
      let bound = t.Targets.Registry.tuning.Targets.Registry.depth_bound in
      let run_config ~reduce ~bound =
        let results =
          Util.repeat scale.Util.reps (fun rep ->
              campaign t info ~budget ~reduce ~bound ~seed:(200 + rep))
        in
        {
          rates = List.map (Util.fixed_rate name) results;
          iters =
            List.map
              (fun (r : Compi.Driver.result) -> float_of_int r.Compi.Driver.iterations_run)
              results;
          cs_sizes =
            List.concat_map
              (fun (r : Compi.Driver.result) ->
                List.map
                  (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.constraint_set_size)
                  r.Compi.Driver.stats)
              results;
        }
      in
      let r = run_config ~reduce:true ~bound:None in
      let nrbound = run_config ~reduce:false ~bound:(Some bound) in
      let nrunl = run_config ~reduce:false ~bound:(Some max_int) in
      Printf.printf "%-10s | %-9s %6.1f%% %6.1f%% | %-9s %6.1f%% %6.1f%% | %-9s %6.1f%% %6.1f%%\n%!"
        name "" (Util.mean r.rates) (Util.fmax r.rates) "" (Util.mean nrbound.rates)
        (Util.fmax nrbound.rates) "" (Util.mean nrunl.rates) (Util.fmax nrunl.rates);
      Printf.printf
        "  iterations completed within the budget: R %.0f, NRBound %.0f, NRUnl %.0f\n"
        (Util.mean r.iters) (Util.mean nrbound.iters) (Util.mean nrunl.iters);
      Printf.printf "  Figure 9 constraint-set sizes (%s):\n" name;
      pp_hist "R" r.cs_sizes;
      pp_hist "NRBound" nrbound.cs_sizes;
      pp_hist "NRUnl" nrunl.cs_sizes)
    budgets;
  Util.compare_line ~label:"SUSY: R vs NR coverage" ~paper:"84.7% vs ~80%"
    ~measured:"(rows above)";
  Util.compare_line ~label:"HPL: R vs NR coverage" ~paper:"69.6% vs ~59%"
    ~measured:"(rows above)";
  Util.compare_line ~label:"IMB: all equivalent" ~paper:"~69% everywhere"
    ~measured:"(rows above)";
  Util.compare_line ~label:"Fig 9: R set sizes" ~paper:"always < 500"
    ~measured:"(histograms above)"
