(* A full COMPI campaign on the synthetic HPL target, printing the
   coverage curve — the workload behind Figures 4 and 6 of the paper.
   Demonstrates input capping: the matrix size is re-capped from the
   command line (default 300, the paper's default cap NC).

     dune exec examples/hpl_campaign.exe            # cap 300
     dune exec examples/hpl_campaign.exe -- 600 800 # cap 600, 800 iters *)

let () =
  let cap = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 300 in
  let iterations = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 400 in
  let target = Targets.Catalog.find_exn "hpl" in
  let info = Targets.Registry.instrument target in
  Printf.printf "HPL campaign: %d iterations, matrix size capped at %d\n" iterations cap;
  Printf.printf "(28 marked parameters; %d total branches)\n\n"
    info.Minic.Branchinfo.total_branches;
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations;
      dfs_phase_iters = target.Targets.Registry.tuning.Targets.Registry.dfs_phase;
      initial_nprocs = 8;
      step_limit = target.Targets.Registry.tuning.Targets.Registry.step_limit;
      cap_overrides = [ ("n", cap) ];
    }
  in
  let campaign = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  let result = (Compi.Campaign.run ~settings:campaign info).Compi.Campaign.summary in
  (* coverage curve, sampled every 10% of the run *)
  let stats = Array.of_list result.Compi.Driver.stats in
  let n = Array.length stats in
  Printf.printf "%-10s %10s %10s %8s %8s\n" "iteration" "covered" "cs-size" "nprocs" "focus";
  for k = 0 to 9 do
    let idx = min (n - 1) (k * n / 10) in
    let s = stats.(idx) in
    Printf.printf "%-10d %10d %10d %8d %8d\n" s.Compi.Driver.iteration
      s.Compi.Driver.covered_after s.Compi.Driver.constraint_set_size
      s.Compi.Driver.nprocs s.Compi.Driver.focus
  done;
  Printf.printf "\nfinal: %d / %d reachable branches (%.1f%%), max constraint set %d, \
                 BoundedDFS bound %s, %.1fs\n"
    result.Compi.Driver.covered_branches result.Compi.Driver.reachable_branches
    (100.0 *. result.Compi.Driver.coverage_rate)
    result.Compi.Driver.max_constraint_set
    (match result.Compi.Driver.derived_bound with
    | Some b -> string_of_int b
    | None -> "n/a")
    result.Compi.Driver.wall_time
