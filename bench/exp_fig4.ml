(* Figure 4: branch coverage of HPL under the four search strategies.
   The paper's point: BoundedDFS (with the default and a hand-picked
   bound) passes the deep sanity check and covers >1100 branches, while
   random-branch, uniform-random and CFG search stall at <= 137. *)

let strategies info =
  [
    ("bounded-dfs(default)", Compi.Driver.Two_phase_dfs);
    ("bounded-dfs(100)", Compi.Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs 100));
    ("random-branch", Compi.Driver.Fixed_strategy Concolic.Strategy.Random_branch);
    ("uniform-random", Compi.Driver.Fixed_strategy Concolic.Strategy.Uniform_random);
    ("cfg", Compi.Driver.Fixed_strategy (Concolic.Strategy.Cfg_directed (Minic.Cfg.build info)));
    (* beyond the paper: SAGE-style generational search *)
    ("generational", Compi.Driver.Fixed_strategy (Concolic.Strategy.Generational 600));
  ]

let run (scale : Util.scale) =
  Util.print_header "Figure 4: HPL branch coverage per search strategy";
  let t = Util.target "hpl" in
  let info = Targets.Registry.instrument t in
  let iters = Util.scaled_iters scale 500 in
  let reachable = Util.reference_reachable "hpl" in
  Printf.printf "%-22s %10s %10s %10s\n" "Strategy" "Covered" "Reach." "Rate";
  let results =
    List.map
      (fun (label, strategy) ->
        let settings =
          { (Util.settings_for t) with Compi.Driver.iterations = iters; strategy; seed = 11 }
        in
        let r = Util.campaign settings info in
        Printf.printf "%-22s %10d %10d %9.1f%%\n%!" label r.Compi.Driver.covered_branches
          reachable (Util.fixed_rate "hpl" r);
        (label, r.Compi.Driver.covered_branches))
      (strategies info)
  in
  let dfs = List.assoc "bounded-dfs(default)" results in
  let worst_nonsys =
    List.fold_left max 0
      (List.filter_map
         (fun (l, c) ->
           if l = "random-branch" || l = "uniform-random" || l = "cfg" then Some c else None)
         results)
  in
  Util.compare_line ~label:"BoundedDFS vs non-systematic"
    ~paper:">1100 vs <=137 branches"
    ~measured:(Printf.sprintf "%d vs <=%d branches" dfs worst_nonsys)
