(* Golden campaign trajectories: two fixed campaigns whose coverage
   reports and solver-cache counts are committed in
   [golden/campaign_trajectories.txt]. Negation dispatch (closure
   index, cache keys, probes) may get faster but must not change what a
   campaign does, so any change to dispatch has to leave this file's
   text as it is. A change that moves the search on purpose re-commits
   the file with its reason: ROADMAP item 1 (running the paper's
   experiments at batch 1) will. *)

let golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden/campaign_trajectories.txt"

let targets = [ "susy-hmc"; "hpl" ]

let trajectory name =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn name) in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        { Compi.Driver.default_settings with Compi.Driver.iterations = 200; seed = 1 };
      jobs = 1;
    }
  in
  let r = Compi.Campaign.run ~settings ~label:name info in
  let hits, misses =
    match r.Compi.Campaign.cache with
    | Some st -> (st.Smt.Cache.hits, st.Smt.Cache.misses)
    | None -> (0, 0)
  in
  Printf.sprintf "== %s (200 tests, seed 1, jobs 1)\n%scache hits %d misses %d solver calls %d\n"
    name
    (Compi.Campaign.coverage_report r)
    hits misses r.Compi.Campaign.solver_calls

let render () = String.concat "" (List.map trajectory targets)

let test_golden () =
  let actual = render () in
  let expected = Test_matching.read_file golden_file in
  if actual <> expected then begin
    Out_channel.with_open_bin "campaign_trajectories.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "trajectories differ from %s (%s); see campaign_trajectories.actual"
      golden_file
      (Test_matching.first_difference expected actual)
  end

let suite = [ ("campaign:golden", [ ("susy-hmc and hpl trajectories", `Quick, test_golden) ]) ]
