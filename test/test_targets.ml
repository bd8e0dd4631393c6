(* Tests for the evaluation targets: they validate, run cleanly on
   default inputs, and their seeded bugs trigger under exactly the
   documented conditions — in particular the SUSY-HMC FPE that needs 2
   or 4 processes but never 1 or 3 (paper section VI-A). *)

open Minic

let run_with ~nprocs ~inputs (t : Targets.Registry.t) =
  let info = Targets.Registry.instrument t in
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs;
      inputs;
      step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
    }
  in
  match Compi.Runner.run config with
  | Ok res -> res
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"

let fault_kinds res =
  List.map (fun (_, f) -> Fault.kind_name f) (Compi.Runner.faults res)

(* Inputs that pass SUSY's sanity check at a given size. *)
let susy_clean_inputs =
  [
    ("nx", 4); ("ny", 4); ("nz", 2); ("nt", 4); ("nroot", 2); ("warms", 1);
    ("trajecs", 1); ("nsteps", 1); ("nsrc", 1); ("seed", 17); ("tol_exp", 4);
    ("gauge_iter", 3); ("multi_mass", 1);
  ]

let set key value inputs = (key, value) :: List.remove_assoc key inputs

let test_catalog_complete () =
  Alcotest.(check (list string)) "names"
    [ "toy-fig1"; "toy-fig2"; "susy-hmc"; "hpl"; "imb-mpi1"; "heat2d"; "npb-cg"; "wc-race" ]
    (Targets.Catalog.names ())

let test_all_targets_validate () =
  List.iter
    (fun (t : Targets.Registry.t) ->
      Alcotest.(check (list string))
        (t.Targets.Registry.name ^ " checks")
        []
        (Check.check t.Targets.Registry.program))
    (Targets.Catalog.all ())

let test_branch_counts_sane () =
  let census name =
    let t = Targets.Catalog.find_exn name in
    (Targets.Registry.instrument t).Branchinfo.total_branches
  in
  Alcotest.(check bool) "susy largest" true (census "susy-hmc" > census "imb-mpi1");
  Alcotest.(check bool) "hpl large" true (census "hpl" > 300);
  Alcotest.(check bool) "imb moderate" true (census "imb-mpi1" > 100)

let test_susy_clean_run () =
  (* nt = 4 >= size = 4, vol divisible: passes sanity, no faults *)
  let res = run_with ~nprocs:4 ~inputs:(set "nt" 4 susy_clean_inputs) Targets.Susy_hmc.target in
  Alcotest.(check (list string)) "no faults" []
    (fault_kinds res
    |> List.filter (fun k -> k <> "mpi-error"))  (* no faults of any kind expected *)

let test_susy_bug1_sources () =
  (* nsrc > 2 triggers the under-allocated src buffer. nx<>nz avoids the
     FPE at size 4; use 3 procs (odd) so layout is safe. *)
  let inputs = set "nsrc" 3 (set "nt" 3 susy_clean_inputs) in
  let res = run_with ~nprocs:3 ~inputs Targets.Susy_hmc.target in
  Alcotest.(check bool) "segfault seen" true (List.mem "segfault" (fault_kinds res))

let test_susy_bug2_gauge () =
  let inputs = set "gauge_iter" 11 (set "nt" 3 susy_clean_inputs) in
  let res = run_with ~nprocs:3 ~inputs Targets.Susy_hmc.target in
  Alcotest.(check bool) "segfault seen" true (List.mem "segfault" (fault_kinds res))

let test_susy_bug3_multimass () =
  let inputs = set "multi_mass" 2 (set "nt" 3 susy_clean_inputs) in
  let res = run_with ~nprocs:3 ~inputs Targets.Susy_hmc.target in
  Alcotest.(check bool) "segfault seen" true (List.mem "segfault" (fault_kinds res))

let test_susy_fpe_needs_2_or_4_procs () =
  (* nx = nz triggers the division by zero — but only when size is 2;
     with nz = nx + 1 only when size is 4; never with 1 or 3. *)
  let fpe_inputs = set "nx" 2 (set "nz" 2 (set "nt" 4 susy_clean_inputs)) in
  let has_fpe nprocs inputs =
    let inputs = set "nt" (max 4 nprocs) inputs in
    (* keep nt >= size so sanity passes *)
    let res = run_with ~nprocs ~inputs Targets.Susy_hmc.target in
    List.mem "floating-point-exception" (fault_kinds res)
  in
  Alcotest.(check bool) "2 procs: FPE" true (has_fpe 2 fpe_inputs);
  Alcotest.(check bool) "1 proc: clean" false (has_fpe 1 fpe_inputs);
  Alcotest.(check bool) "3 procs: clean" false (has_fpe 3 fpe_inputs);
  let fpe4 = set "nx" 2 (set "nz" 3 (set "nt" 4 susy_clean_inputs)) in
  Alcotest.(check bool) "4 procs: FPE" true (has_fpe 4 fpe4)

let hpl_clean_inputs =
  [
    ("ns", 1); ("n", 64); ("nbs", 1); ("nb", 16); ("pmap", 0); ("grids", 1);
    ("p", 2); ("q", 2); ("thresh_exp", 4); ("npfacts", 1); ("pfact", 1);
    ("nbmins", 1); ("nbmin", 2); ("ndivs", 1); ("ndiv", 2); ("nrfacts", 1);
    ("rfact", 1); ("nbcasts", 1); ("bcast", 0); ("ndepths", 1); ("depth", 0);
    ("swap", 1); ("swap_thresh", 32); ("l1_trans", 0); ("u_trans", 0);
    ("equil", 1); ("align", 8); ("seed", 1);
  ]

let test_hpl_clean_run () =
  let res = run_with ~nprocs:4 ~inputs:hpl_clean_inputs Targets.Hpl.target in
  Alcotest.(check (list string)) "no faults" [] (fault_kinds res)

let test_hpl_sanity_rejects () =
  (* p*q > size must exit in the sanity phase: the branch for the
     factorization loop is then never covered *)
  let res =
    run_with ~nprocs:2
      ~inputs:(set "p" 4 (set "q" 4 hpl_clean_inputs))
      Targets.Hpl.target
  in
  Alcotest.(check (list string)) "clean exit, not a fault" [] (fault_kinds res);
  let full =
    run_with ~nprocs:4 ~inputs:hpl_clean_inputs Targets.Hpl.target
  in
  Alcotest.(check bool) "full run covers more" true
    (Concolic.Coverage.covered_branches full.Compi.Runner.coverage
    > Concolic.Coverage.covered_branches res.Compi.Runner.coverage)

let test_hpl_bcast_variants_diverge () =
  (* different bcast variants cover different branches *)
  let cover bcast =
    let res =
      run_with ~nprocs:4 ~inputs:(set "bcast" bcast hpl_clean_inputs) Targets.Hpl.target
    in
    Concolic.Coverage.branch_list res.Compi.Runner.coverage
  in
  Alcotest.(check bool) "variant 0 vs 5 differ" true (cover 0 <> cover 5)

let imb_clean_inputs =
  [
    ("iters", 3); ("minexp", 0); ("maxexp", 2); ("npmin", 2);
    ("run_pingpong", 1); ("run_pingping", 1); ("run_sendrecv", 1);
    ("run_exchange", 1); ("run_bcast", 1); ("run_allreduce", 1);
    ("run_reduce", 1); ("run_reduce_scatter", 1); ("run_allgather", 1);
    ("run_gather", 1); ("run_scatter", 1);
  ]

let test_imb_clean_run () =
  let res = run_with ~nprocs:4 ~inputs:imb_clean_inputs Targets.Imb_mpi1.target in
  Alcotest.(check (list string)) "no faults" [] (fault_kinds res)

let test_imb_two_proc_benchmarks_gate_on_size () =
  (* with one process the p2p benchmarks return early *)
  let res1 = run_with ~nprocs:1 ~inputs:(set "npmin" 1 imb_clean_inputs) Targets.Imb_mpi1.target in
  let res4 = run_with ~nprocs:4 ~inputs:imb_clean_inputs Targets.Imb_mpi1.target in
  Alcotest.(check (list string)) "single proc clean" [] (fault_kinds res1);
  Alcotest.(check bool) "more procs, more coverage" true
    (Concolic.Coverage.covered_branches res4.Compi.Runner.coverage
    > Concolic.Coverage.covered_branches res1.Compi.Runner.coverage)

let test_toy_fig2_branch_4f_needs_focus_shift () =
  (* the famous 4F: rank <> 0 and y >= 100. With focus 0 recording only
     itself it is invisible; all-recorders see it once y >= 100. *)
  let info = Targets.Registry.instrument Targets.Toy.fig2 in
  let run ~record_all =
    let config =
      {
        (Compi.Runner.default_config ~info) with
        Compi.Runner.nprocs = 4;
        record_all;
        inputs = [ ("x", 10); ("y", 150) ];
      }
    in
    match Compi.Runner.run config with
    | Ok res -> res.Compi.Runner.coverage
    | Error _ -> Alcotest.fail "run failed"
  in
  let with_all = run ~record_all:true in
  let focus_only = run ~record_all:false in
  Alcotest.(check bool) "all-recorders strictly more" true
    (Concolic.Coverage.covered_branches with_all
    > Concolic.Coverage.covered_branches focus_only)

let test_hpl_serial_path_needs_one_proc () =
  (* serial_lu runs only with a single process: the function is
     encountered at np=1 and never at np=8 — the Table VI mechanism *)
  let info = Targets.Registry.instrument Targets.Hpl.target in
  let encountered nprocs inputs =
    let config =
      {
        (Compi.Runner.default_config ~info) with
        Compi.Runner.nprocs;
        inputs;
        step_limit = 10_000_000;
      }
    in
    match Compi.Runner.run config with
    | Ok res -> Concolic.Coverage.encountered res.Compi.Runner.coverage "serial_lu"
    | Error _ -> Alcotest.fail "run failed"
  in
  let serial_inputs = set "p" 1 (set "q" 1 hpl_clean_inputs) in
  Alcotest.(check bool) "np=1 reaches serial_lu" true (encountered 1 serial_inputs);
  Alcotest.(check bool) "np=8 never does" false (encountered 8 hpl_clean_inputs)

let test_hpl_tall_grid_needs_12_procs () =
  let info = Targets.Registry.instrument Targets.Hpl.target in
  let encountered nprocs =
    let config =
      {
        (Compi.Runner.default_config ~info) with
        Compi.Runner.nprocs;
        inputs = set "p" 3 (set "q" 4 hpl_clean_inputs);
        step_limit = 10_000_000;
      }
    in
    match Compi.Runner.run config with
    | Ok res -> Concolic.Coverage.encountered res.Compi.Runner.coverage "tall_grid_setup"
    | Error _ -> Alcotest.fail "run failed"
  in
  Alcotest.(check bool) "np=12 reaches tall grid" true (encountered 12);
  Alcotest.(check bool) "np=8 never does" false (encountered 8)

(* Campaigns run the one engine at its default engine settings. *)
let campaign settings info =
  let settings = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  (Compi.Campaign.run ~settings info).Compi.Campaign.summary

let test_unreachable_functions_stay_dead () =
  (* eig_measure (SUSY) and pdfact_custom / bench_rma_put guards are
     outside the capped input space: a healthy campaign never enters them *)
  let check_dead name func iters =
    let t = Targets.Catalog.find_exn name in
    let info = Targets.Registry.instrument t in
    let settings =
      {
        Compi.Driver.default_settings with
        Compi.Driver.iterations = iters;
        dfs_phase_iters = 20;
        initial_nprocs = 4;
        step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
      }
    in
    let r = campaign settings info in
    Alcotest.(check bool)
      (Printf.sprintf "%s.%s unreachable" name func)
      false
      (Concolic.Coverage.encountered r.Compi.Driver.coverage func)
  in
  check_dead "susy-hmc" "eig_measure" 120;
  check_dead "hpl" "pdfact_custom" 120;
  check_dead "imb-mpi1" "bench_rma_put" 120

let test_bug_replay_via_testcase () =
  (* campaign bugs saved as test cases must reproduce on replay *)
  let t = Targets.Catalog.find_exn "susy-hmc" in
  let info = Targets.Registry.instrument t in
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 200;
      dfs_phase_iters = 50;
      initial_nprocs = 8;
      step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
      seed = 5;
    }
  in
  let r = campaign settings info in
  let bugs = Compi.Driver.distinct_bugs r in
  Alcotest.(check bool) "found at least one bug" true (bugs <> []);
  List.iter
    (fun b ->
      let case = Compi.Testcase.of_bug ~target:"susy-hmc" b in
      match Compi.Testcase.replay case ~info () with
      | Ok faults ->
        Alcotest.(check bool)
          (Printf.sprintf "bug reproduces (%s)" (Compi.Driver.bug_key b))
          true (faults <> [])
      | Error (`Platform_limit _) -> Alcotest.fail "platform limit")
    bugs

let test_susy_four_bugs () =
  (* the paper's headline claim (section VI-A): a campaign with the bugs
     experiment's settings (catalogue tuning, seed 5, 800 iterations)
     finds all four seeded SUSY-HMC defects *)
  let t = Targets.Catalog.find_exn "susy-hmc" in
  let tn = t.Targets.Registry.tuning in
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 800;
      dfs_phase_iters = tn.Targets.Registry.dfs_phase;
      initial_nprocs = tn.Targets.Registry.initial_nprocs;
      step_limit = tn.Targets.Registry.step_limit;
      seed = 5;
    }
  in
  let r = campaign settings (Targets.Registry.instrument t) in
  let site (b : Compi.Driver.bug) =
    match b.Compi.Driver.bug_fault with
    | Minic.Fault.Segfault { func; _ } | Minic.Fault.Fpe { func } -> func
    | f -> Minic.Fault.to_string f
  in
  Alcotest.(check (list string))
    "all four seeded sites"
    [ "congrad_alloc"; "layout_timeslices"; "setup_gauge"; "setup_sources" ]
    (List.sort_uniq String.compare (List.map site (Compi.Driver.distinct_bugs r)))

let heat2d_inputs ny =
  [ ("nx", 8); ("ny", ny); ("steps", 3); ("source_temp", 100); ("tol", 2) ]

let test_npb_cg_clean_and_class_verification () =
  (* clean at any size; the class path is taken when na matches a class *)
  let inputs na =
    [ ("na", na); ("nonzer", 3); ("niter", 2); ("shift", 10); ("seed", 314) ]
  in
  let res = run_with ~nprocs:4 ~inputs:(inputs 64) Targets.Npb_cg.target in
  Alcotest.(check (list string)) "class S clean" [] (fault_kinds res);
  Alcotest.(check bool) "verification path encountered" true
    (Concolic.Coverage.encountered res.Compi.Runner.coverage "class_reference");
  let res2 = run_with ~nprocs:4 ~inputs:(inputs 100) Targets.Npb_cg.target in
  Alcotest.(check (list string)) "off-class clean" [] (fault_kinds res2);
  (* a short campaign stays clean and covers well *)
  let info = Targets.Registry.instrument Targets.Npb_cg.target in
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 200;
      dfs_phase_iters = 40;
      initial_nprocs = 4;
      step_limit = 4_000_000;
    }
  in
  let r = campaign settings info in
  Alcotest.(check int) "no defects" 0 (List.length (Compi.Driver.distinct_bugs r));
  Alcotest.(check bool) "good coverage" true (r.Compi.Driver.coverage_rate > 0.6)

let test_heat2d_remainder_bug () =
  (* the halo buffer overflow needs ny mod size >= 2 *)
  let run ny nprocs =
    let res = run_with ~nprocs ~inputs:(heat2d_inputs ny) Targets.Heat2d.target in
    List.mem "segfault" (fault_kinds res)
  in
  Alcotest.(check bool) "divisible: clean" false (run 12 4);
  Alcotest.(check bool) "remainder 1: still fits" false (run 13 4);
  Alcotest.(check bool) "remainder 2: off-by-one overflow" true (run 14 4);
  Alcotest.(check bool) "remainder 3: overflow" true (run 15 4)

let test_pretty_printed_sloc () =
  (* Table III analogue: targets are non-trivially sized *)
  List.iter
    (fun (name, minimum) ->
      let t = Targets.Catalog.find_exn name in
      let sloc = Pretty.source_lines t.Targets.Registry.program in
      Alcotest.(check bool) (name ^ " sloc") true (sloc >= minimum))
    [ ("susy-hmc", 500); ("hpl", 500); ("imb-mpi1", 300) ]

(* The whole message-by-message history `compi-cli exec imb-mpi1
   --trace` prints (capped there at 60 lines), pinned by digest at np 4
   and 8: any change to the scheduler's matching or emission order moves
   it. *)
let test_imb_exec_timeline_pinned () =
  List.iter
    (fun (nprocs, events, digest) ->
      let t = Targets.Imb_mpi1.target in
      let tracer = Mpisim.Trace.create () in
      let config =
        {
          (Compi.Runner.default_config ~info:(Targets.Registry.instrument t)) with
          Compi.Runner.nprocs;
          step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
          on_event = Mpisim.Trace.collector tracer;
        }
      in
      (match Compi.Runner.run config with
      | Ok _ -> ()
      | Error (`Platform_limit _) -> Alcotest.fail "platform limit");
      let label = Printf.sprintf "np %d" nprocs in
      Alcotest.(check int) (label ^ ": events") events (Mpisim.Trace.length tracer);
      Alcotest.(check string) (label ^ ": timeline digest") digest
        (Digest.to_hex (Digest.string (Mpisim.Trace.timeline ~limit:max_int tracer))))
    [ (4, 4203, "4d79172c258afc237ec10dddd9b50984"); (8, 7776, "c33c6979bc97d462bc23e487798b5ebd") ]

let unit_tests =
  [
    ("catalog complete", `Quick, test_catalog_complete);
    ("all targets validate", `Quick, test_all_targets_validate);
    ("branch counts sane", `Quick, test_branch_counts_sane);
    ("susy clean run", `Quick, test_susy_clean_run);
    ("susy bug 1 (sources)", `Quick, test_susy_bug1_sources);
    ("susy bug 2 (gauge)", `Quick, test_susy_bug2_gauge);
    ("susy bug 3 (multi-mass)", `Quick, test_susy_bug3_multimass);
    ("susy FPE needs 2 or 4 procs", `Quick, test_susy_fpe_needs_2_or_4_procs);
    ("hpl clean run", `Quick, test_hpl_clean_run);
    ("hpl sanity rejects", `Quick, test_hpl_sanity_rejects);
    ("hpl bcast variants diverge", `Quick, test_hpl_bcast_variants_diverge);
    ("imb clean run", `Quick, test_imb_clean_run);
    ("imb gates on size", `Quick, test_imb_two_proc_benchmarks_gate_on_size);
    ("fig2 4F visibility", `Quick, test_toy_fig2_branch_4f_needs_focus_shift);
    ("hpl serial path", `Quick, test_hpl_serial_path_needs_one_proc);
    ("hpl tall grid", `Quick, test_hpl_tall_grid_needs_12_procs);
    ("unreachable functions dead", `Quick, test_unreachable_functions_stay_dead);
    ("bug replay via testcase", `Quick, test_bug_replay_via_testcase);
    ("susy campaign finds 4 bugs", `Quick, test_susy_four_bugs);
    ("heat2d remainder bug", `Quick, test_heat2d_remainder_bug);
    ("npb-cg clean + class verify", `Quick, test_npb_cg_clean_and_class_verification);
    ("targets sloc (table III)", `Quick, test_pretty_printed_sloc);
    ("imb exec timeline pinned", `Quick, test_imb_exec_timeline_pinned);
  ]

let suite = [ ("targets:unit", unit_tests) ]
