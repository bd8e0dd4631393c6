(* Bug hunt on the synthetic SUSY-HMC target: reproduces the paper's
   headline result (section VI-A) — four distinct defects, three
   segfaults from malloc under-allocation and one division-by-zero that
   only manifests with 2 or 4 processes.

     dune exec examples/susy_bug_hunt.exe *)

let () =
  let target = Targets.Catalog.find_exn "susy-hmc" in
  let info = Targets.Registry.instrument target in
  Printf.printf "hunting bugs in %s (%s)\n\n" target.Targets.Registry.name
    target.Targets.Registry.description;
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 800;
      dfs_phase_iters = target.Targets.Registry.tuning.Targets.Registry.dfs_phase;
      initial_nprocs = 8;
      step_limit = target.Targets.Registry.tuning.Targets.Registry.step_limit;
      seed = 5;
    }
  in
  let campaign = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  let result = (Compi.Campaign.run ~settings:campaign info).Compi.Campaign.summary in
  let bugs = Compi.Driver.distinct_bugs result in
  Printf.printf "%d distinct defects in %d iterations (%.1fs):\n\n"
    (List.length bugs) result.Compi.Driver.iterations_run result.Compi.Driver.wall_time;
  List.iteri
    (fun k (b : Compi.Driver.bug) ->
      Printf.printf "bug %d: %s\n" (k + 1) (Minic.Fault.to_string b.Compi.Driver.bug_fault);
      Printf.printf "  found at iteration %d with %d processes (focus %d)\n"
        b.Compi.Driver.bug_iteration b.Compi.Driver.bug_nprocs b.Compi.Driver.bug_focus;
      Printf.printf "  triggering inputs: %s\n\n"
        (String.concat ", "
           (List.map (fun (n, x) -> Printf.sprintf "%s=%d" n x) b.Compi.Driver.bug_inputs)))
    bugs;
  (* Verify the FPE's process-count dependence, as the SUSY developer
     did when confirming the paper's report: replay the triggering
     inputs under 1..4 processes. *)
  match
    List.find_opt
      (fun (b : Compi.Driver.bug) ->
        match b.Compi.Driver.bug_fault with Minic.Fault.Fpe _ -> true | _ -> false)
      bugs
  with
  | None -> Printf.printf "(no FPE found this run — increase the iteration budget)\n"
  | Some fpe ->
    Printf.printf "replaying the FPE's inputs at 1..4 processes:\n";
    List.iter
      (fun nprocs ->
        let config =
          {
            (Compi.Runner.default_config ~info) with
            Compi.Runner.nprocs;
            inputs = fpe.Compi.Driver.bug_inputs;
            step_limit = settings.Compi.Driver.step_limit;
          }
        in
        match Compi.Runner.run config with
        | Ok res ->
          let fpes =
            List.filter
              (fun (_, f) -> match f with Minic.Fault.Fpe _ -> true | _ -> false)
              (Compi.Runner.faults res)
          in
          Printf.printf "  %d processes: %s\n" nprocs
            (if fpes <> [] then "FLOATING POINT EXCEPTION" else "clean")
        | Error (`Platform_limit _) -> ())
      [ 1; 2; 3; 4 ]
