(* Parallel campaign engine: the determinism guarantee (worker-count
   and cache invariance of the canonical report), taskpool semantics,
   and budget accounting. *)

let campaign ?(jobs = 1) ?(cache = true) ?(iterations = 60) ?(batch = 4) info =
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations;
          dfs_phase_iters = 12;
          initial_nprocs = 2;
          seed = 11;
        };
      jobs;
      batch;
      solver_cache = cache;
    }
  in
  Compi.Campaign.run ~settings info

let toy () = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig1")
let susy () = Targets.Registry.instrument (Targets.Catalog.find_exn "susy-hmc")

let test_jobs_invariance_toy () =
  let r1 = campaign ~jobs:1 (toy ()) in
  let r4 = campaign ~jobs:4 (toy ()) in
  Alcotest.(check string)
    "byte-identical report"
    (Compi.Campaign.coverage_report r1)
    (Compi.Campaign.coverage_report r4);
  Alcotest.(check int)
    "same iteration count" r1.Compi.Campaign.summary.Compi.Driver.iterations_run
    r4.Compi.Campaign.summary.Compi.Driver.iterations_run;
  Alcotest.(check int)
    "same execution count" r1.Compi.Campaign.executed r4.Compi.Campaign.executed

let test_jobs_invariance_susy () =
  let r1 = campaign ~jobs:1 ~iterations:80 (susy ()) in
  let r3 = campaign ~jobs:3 ~iterations:80 (susy ()) in
  Alcotest.(check string)
    "byte-identical report on a deep target"
    (Compi.Campaign.coverage_report r1)
    (Compi.Campaign.coverage_report r3)

(* Campaigns over the Mini-C corpus in examples/programs: parse, check,
   instrument, then require jobs-count invariance on each. *)
let example_programs () =
  let dir =
    Filename.concat (Filename.dirname Sys.executable_name) "../examples/programs"
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".mc")
    |> List.sort String.compare
    |> List.filter_map (fun n ->
           let src = In_channel.with_open_text (Filename.concat dir n) In_channel.input_all in
           match Minic.Parse.program src with
           | Error _ -> None
           | Ok program -> (
             match Minic.Check.check program with
             | _ :: _ -> None
             | [] ->
               Some
                 (n, Minic.Branchinfo.instrument (Minic.Opt.simplify_program program))))

let test_jobs_invariance_corpus () =
  let programs = example_programs () in
  Alcotest.(check bool) "corpus present" true (List.length programs >= 3);
  List.iter
    (fun (name, info) ->
      let r1 = campaign ~jobs:1 ~iterations:30 info in
      let r4 = campaign ~jobs:4 ~iterations:30 info in
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=4 report equals jobs=1" name)
        (Compi.Campaign.coverage_report r1)
        (Compi.Campaign.coverage_report r4))
    programs

let test_cache_invariance () =
  (* the cache must replay verdicts, never change the trajectory *)
  let on = campaign ~jobs:2 ~cache:true ~iterations:80 (susy ()) in
  let off = campaign ~jobs:2 ~cache:false ~iterations:80 (susy ()) in
  Alcotest.(check string)
    "cache on/off same report"
    (Compi.Campaign.coverage_report off)
    (Compi.Campaign.coverage_report on);
  (match on.Compi.Campaign.cache with
  | None -> Alcotest.fail "cache stats expected when enabled"
  | Some st ->
    Alcotest.(check bool) "cache was exercised" true (st.Smt.Cache.hits > 0));
  Alcotest.(check (option reject)) "no stats when disabled" None
    (Option.map (fun _ -> ()) off.Compi.Campaign.cache);
  Alcotest.(check bool)
    "cache reduces solver calls" true
    (on.Compi.Campaign.solver_calls < off.Compi.Campaign.solver_calls)

let test_toy_saturates () =
  (* toy-fig1 is small enough to saturate in the budget: the engine must
     cover every reachable branch and hit the planted abort *)
  let r = (campaign ~jobs:2 (toy ())).Compi.Campaign.summary in
  Alcotest.(check int)
    "covered = reachable" r.Compi.Driver.reachable_branches r.Compi.Driver.covered_branches;
  Alcotest.(check bool)
    "finds the planted bug" true
    (List.exists
       (fun (b : Compi.Driver.bug) ->
         match b.Compi.Driver.bug_fault with
         | Minic.Fault.Abort_called _ -> true
         | _ -> false)
       (Compi.Driver.distinct_bugs r))

let test_budget_respected () =
  let r = campaign ~jobs:4 ~iterations:25 ~batch:6 (susy ()) in
  Alcotest.(check bool)
    "iteration budget is a hard cap" true
    (r.Compi.Campaign.summary.Compi.Driver.iterations_run <= 25);
  Alcotest.(check bool)
    "executed <= iterations merged" true
    (r.Compi.Campaign.executed <= r.Compi.Campaign.summary.Compi.Driver.iterations_run)

(* The --metrics snapshot's solver and cache counts come from the
   campaign's fold, so they equal the result and the ledger record at
   any worker count. toy-fig2 at 60 tests drops a probed candidate at
   the budget edge, which the cache's own probe counters would count. *)
let test_metrics_match_ledger () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig2") in
  List.iter
    (fun jobs ->
      let ledger = Filename.temp_file "compi_metrics" ".jsonl" in
      Sys.remove ledger;
      let settings =
        {
          Compi.Campaign.default_settings with
          Compi.Campaign.base =
            { Compi.Driver.default_settings with Compi.Driver.iterations = 60; seed = 11 };
          jobs;
          ledger = Some ledger;
        }
      in
      let r, counters = Compi.Campaign.run_with_counters ~settings ~label:"toy-fig2" info in
      let record =
        match Obs.Ledger.load ledger with
        | Ok { Obs.Ledger.records = [ record ]; _ } -> record
        | _ -> Alcotest.fail "expected one ledger record"
      in
      Sys.remove ledger;
      let metrics = Obs.Json.member "metrics" (Obs.Metrics.snapshot_json ~counters ()) in
      let snapshot name =
        match Option.bind metrics (fun m -> Option.bind (Obs.Json.member name m) Obs.Json.to_int) with
        | Some n -> n
        | None -> Alcotest.failf "no integer %s in the snapshot" name
      in
      let cs = Option.get r.Compi.Campaign.cache in
      let agree name ~result ~ledger =
        let what = Printf.sprintf "jobs %d: %s" jobs name in
        Alcotest.(check int) (what ^ " = result") result (snapshot name);
        Alcotest.(check int) (what ^ " = ledger") ledger (snapshot name)
      in
      agree "solver.calls" ~result:r.Compi.Campaign.solver_calls
        ~ledger:record.Obs.Ledger.solver_calls;
      agree "cache.hits" ~result:cs.Smt.Cache.hits ~ledger:record.Obs.Ledger.cache_hits;
      agree "cache.misses" ~result:cs.Smt.Cache.misses ~ledger:record.Obs.Ledger.cache_misses;
      Alcotest.(check bool) "the cache hit" true (cs.Smt.Cache.hits > 0))
    [ 1; 2 ]

let test_taskpool_order_and_errors () =
  let pool = Compi.Taskpool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Compi.Taskpool.shutdown pool) @@ fun () ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves submission order"
    (List.map (fun x -> x * x) xs)
    (Compi.Taskpool.map pool (fun x -> x * x) xs);
  (* exceptions surface on the caller, pool stays usable *)
  (match Compi.Taskpool.map pool (fun x -> if x = 3 then failwith "boom" else x) xs with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg);
  Alcotest.(check (list int))
    "pool survives a failing batch" [ 2; 4 ]
    (Compi.Taskpool.map pool (fun x -> 2 * x) [ 1; 2 ])

(* The pipelined engine's determinism rests on one property: however the
   pool interleaves task completions, [next] hands results back in
   submission order — i.e. exactly the order the old round-barrier
   [map] merged in. Randomized per-task delays exercise arbitrary
   completion permutations (a slow early task forces later results to
   queue; a slow late task forces the consumer to wait). *)
let test_stream_merge_order_qcheck =
  QCheck.Test.make ~count:25 ~name:"pipelined delivery order = round-barrier order"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 200))
    (fun delays ->
      let pool = Compi.Taskpool.create ~jobs:4 in
      Fun.protect ~finally:(fun () -> Compi.Taskpool.shutdown pool) @@ fun () ->
      let items = List.mapi (fun i d -> (i, d)) delays in
      let work (i, d) =
        if d > 0 then Unix.sleepf (float_of_int d /. 1e6);
        i
      in
      let barrier_order = Compi.Taskpool.map pool work items in
      let st = Compi.Taskpool.stream pool (List.map (fun it () -> work it) items) in
      let rec drain acc =
        match Compi.Taskpool.next st with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      let pipelined_order = drain [] in
      pipelined_order = barrier_order
      && pipelined_order = List.mapi (fun i _ -> i) delays)

let test_taskpool_sequential_degenerate () =
  let pool = Compi.Taskpool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Compi.Taskpool.shutdown pool) @@ fun () ->
  (* jobs=1 spawns no domain: tasks run inline on the caller, in order *)
  let trace = ref [] in
  let out = Compi.Taskpool.map pool (fun x -> trace := x :: !trace; x + 1) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "inline results" [ 2; 3; 4 ] out;
  Alcotest.(check (list int)) "inline order" [ 3; 2; 1 ] !trace

let suite =
  [
    ( "parallel:campaign",
      [
        Alcotest.test_case "jobs invariance (toy-fig1)" `Quick test_jobs_invariance_toy;
        Alcotest.test_case "jobs invariance (susy-hmc)" `Quick test_jobs_invariance_susy;
        Alcotest.test_case "jobs invariance (examples corpus)" `Quick
          test_jobs_invariance_corpus;
        Alcotest.test_case "cache invariance + savings" `Quick test_cache_invariance;
        Alcotest.test_case "toy-fig1 saturates, finds bug" `Quick test_toy_saturates;
        Alcotest.test_case "iteration budget respected" `Quick test_budget_respected;
        Alcotest.test_case "--metrics = ledger counts" `Quick test_metrics_match_ledger;
      ] );
    ( "parallel:taskpool",
      [
        Alcotest.test_case "order preserved, errors propagate" `Quick
          test_taskpool_order_and_errors;
        Alcotest.test_case "jobs=1 runs inline" `Quick test_taskpool_sequential_degenerate;
        QCheck_alcotest.to_alcotest test_stream_merge_order_qcheck;
      ] );
  ]
