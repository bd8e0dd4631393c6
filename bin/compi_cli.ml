(* compi-cli: command-line front end for the COMPI reproduction.

     compi-cli list                          targets and their tuning
     compi-cli show susy-hmc                 pretty-print a target
     compi-cli run --target hpl -I 500       run a COMPI campaign
     compi-cli random hpl --time 10          random-testing baseline
     compi-cli exec susy-hmc -n 4 -i nt=4    one concrete run *)

open Cmdliner

let target_conv =
  let parse s =
    match Targets.Catalog.find s with
    | Some t -> Ok t
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown target %s (try: %s)" s
             (String.concat ", " (Targets.Catalog.names ()))))
  in
  let print ppf (t : Targets.Registry.t) = Format.fprintf ppf "%s" t.Targets.Registry.name in
  Arg.conv (parse, print)

let kv_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some k ->
      let key = String.sub s 0 k in
      let value = String.sub s (k + 1) (String.length s - k - 1) in
      (try Ok (key, int_of_string value) with Failure _ -> Error (`Msg "bad value"))
    | None -> Error (`Msg (Printf.sprintf "expected key=value, got %s" s))
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%d" k v in
  Arg.conv (parse, print)

let target_arg =
  Arg.(required & pos 0 (some target_conv) None & info [] ~docv:"TARGET")

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-10s %8s %8s %6s %6s  %s\n" "name" "branches" "sloc" "dfs-x"
      "bound" "description";
    List.iter
      (fun (t : Targets.Registry.t) ->
        let info = Targets.Registry.instrument t in
        let tn = t.Targets.Registry.tuning in
        Printf.printf "%-10s %8d %8d %6d %6d  %s\n" t.Targets.Registry.name
          info.Minic.Branchinfo.total_branches
          (Minic.Pretty.source_lines t.Targets.Registry.program)
          tn.Targets.Registry.dfs_phase tn.Targets.Registry.depth_bound
          t.Targets.Registry.description)
      (Targets.Catalog.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available targets")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* show                                                                *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run (t : Targets.Registry.t) =
    let info = Targets.Registry.instrument t in
    print_endline (Minic.Pretty.program_to_string info.Minic.Branchinfo.program)
  in
  Cmd.v (Cmd.info "show" ~doc:"Pretty-print a target program (C-flavoured)")
    Term.(const run $ target_arg)

(* ------------------------------------------------------------------ *)
(* campaign flags                                                      *)
(* ------------------------------------------------------------------ *)

(* run --help groups its many flags by subsystem; these are the section
   headings (scripts/check_docs.py asserts the live help carries them). *)
let s_execution = "EXECUTION OPTIONS"
let s_parallelism = "PARALLELISM OPTIONS"
let s_checkpoint = "CHECKPOINT OPTIONS"
let s_telemetry = "TELEMETRY OPTIONS"

(* The campaign flags are shared between subcommands; [?docs] lets the
   [run] subcommand sort them into its grouped help sections while
   [random]/[test-file] keep the flat default layout. *)
let iterations_arg ?docs () =
  Arg.(
    value & opt int 500
    & info [ "iterations"; "I" ] ?docs ~docv:"N" ~doc:"Iteration budget")

let time_arg ?docs () =
  Arg.(
    value
    & opt (some float) None
    & info [ "time" ] ?docs ~docv:"SECONDS" ~doc:"Wall-clock budget (overrides iterations)")

let seed_arg ?docs () =
  Arg.(value & opt int 42 & info [ "seed" ] ?docs ~docv:"SEED" ~doc:"Random seed")

let nprocs_arg ?docs () =
  Arg.(
    value
    & opt (some int) None
    & info [ "nprocs"; "n" ] ?docs ~docv:"N" ~doc:"Initial number of processes")

let cap_arg ?docs () =
  Arg.(
    value & opt_all kv_conv []
    & info [ "cap" ] ?docs ~docv:"INPUT=CAP" ~doc:"Override an input's cap (repeatable)")

let no_reduce_arg =
  Arg.(
    value & flag
    & info [ "no-reduce" ] ~docs:s_execution ~doc:"Disable constraint-set reduction")

let one_way_arg =
  Arg.(
    value & flag
    & info [ "one-way" ] ~docs:s_execution ~doc:"Disable two-way instrumentation")

let no_fwk_arg =
  Arg.(
    value & flag
    & info [ "no-fwk" ] ~docs:s_execution
        ~doc:"Disable the MPI framework: fixed focus and process count, focus-only coverage")

let strategy_arg ?docs () =
  let choices =
    Arg.enum
      [
        ("dfs", `Dfs); ("random-branch", `Random_branch); ("uniform", `Uniform);
        ("cfg", `Cfg); ("generational", `Generational);
      ]
  in
  Arg.(value & opt choices `Dfs & info [ "strategy" ] ?docs ~docv:"STRATEGY"
         ~doc:"Search strategy: $(b,dfs) (two-phase BoundedDFS, the COMPI default), \
               $(b,random-branch), $(b,uniform), $(b,cfg), or $(b,generational) \
               (SAGE-style, beyond the paper)")

let exec_mode_arg ?docs () =
  let choices =
    Arg.enum
      [
        ("compiled", Compi.Runner.Exec_compiled); ("interp", Compi.Runner.Exec_interp);
      ]
  in
  Arg.(
    value & opt choices Compi.Runner.Exec_compiled
    & info [ "exec-mode" ] ?docs ~docv:"interp|compiled"
        ~doc:
          "How each simulated process executes the target: $(b,compiled) (default) \
           compiles it to closures once per campaign; $(b,interp) keeps the \
           tree-walking interpreter as the differential oracle. The two modes are \
           observationally identical — same verdicts, coverage, path logs and \
           telemetry — so reports and checkpoints carry across")

let settings_of (t : Targets.Registry.t) iterations time seed nprocs caps no_reduce one_way
    no_fwk strategy =
  let tn = t.Targets.Registry.tuning in
  let info = Targets.Registry.instrument t in
  let strategy =
    match strategy with
    | `Dfs -> Compi.Driver.Two_phase_dfs
    | `Random_branch -> Compi.Driver.Fixed_strategy Concolic.Strategy.Random_branch
    | `Uniform -> Compi.Driver.Fixed_strategy Concolic.Strategy.Uniform_random
    | `Cfg ->
      Compi.Driver.Fixed_strategy (Concolic.Strategy.Cfg_directed (Minic.Cfg.build info))
    | `Generational ->
      Compi.Driver.Fixed_strategy
        (Concolic.Strategy.Generational tn.Targets.Registry.depth_bound)
  in
  ( info,
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = (if time = None then iterations else max_int);
      time_budget = time;
      dfs_phase_iters = tn.Targets.Registry.dfs_phase;
      initial_nprocs = Option.value nprocs ~default:tn.Targets.Registry.initial_nprocs;
      step_limit = tn.Targets.Registry.step_limit;
      cap_overrides = caps;
      reduce = not no_reduce;
      two_way = not one_way;
      framework = not no_fwk;
      strategy;
      seed;
    } )

let report (r : Compi.Driver.result) =
  Printf.printf "iterations      %d\n" r.Compi.Driver.iterations_run;
  Printf.printf "covered         %d / %d reachable (%.1f%%), %d total\n"
    r.Compi.Driver.covered_branches r.Compi.Driver.reachable_branches
    (100.0 *. r.Compi.Driver.coverage_rate)
    r.Compi.Driver.total_branches;
  Printf.printf "max constraint  %d%s\n" r.Compi.Driver.max_constraint_set
    (match r.Compi.Driver.derived_bound with
    | Some b -> Printf.sprintf " (derived BoundedDFS bound %d)" b
    | None -> "");
  Printf.printf "wall time       %.2fs\n" r.Compi.Driver.wall_time;
  let bugs = Compi.Driver.distinct_bugs r in
  Printf.printf "distinct bugs   %d\n" (List.length bugs);
  List.iter
    (fun (b : Compi.Driver.bug) ->
      Printf.printf "  [iter %d, np %d] %s\n" b.Compi.Driver.bug_iteration
        b.Compi.Driver.bug_nprocs
        (Minic.Fault.to_string b.Compi.Driver.bug_fault);
      Printf.printf "     inputs: %s\n"
        (String.concat ", "
           (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) b.Compi.Driver.bug_inputs));
      if b.Compi.Driver.bug_context <> [] then
        Printf.printf "     focus path tail: %s\n"
          (String.concat " -> "
             (List.map
                (fun (cond, taken) ->
                  Printf.sprintf "%d%s" cond (if taken then "T" else "F"))
                b.Compi.Driver.bug_context)))
    bugs

(* ------------------------------------------------------------------ *)
(* telemetry plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let trace_events_arg ?docs () =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-events" ] ?docs ~docv:"FILE.jsonl"
        ~doc:"Stream structured telemetry events to $(docv) as JSON Lines")

let metrics_arg ?docs () =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ?docs ~docv:"FILE.json"
        ~doc:"Write the metrics snapshot (the campaign's folded counters, the registry's \
              counters, gauges and histograms, per-kind span totals) to $(docv) when the \
              campaign ends")

(* Install a JSONL sink for the duration of [f]; afterwards dump the
   metrics snapshot, with the folded counters [f] returns beside its
   result. Both files are optional and independent.

   While the sink is live, SIGINT/SIGTERM flush the buffered tail to
   the trace file before re-raising the default action, so a killed
   campaign still leaves a replayable trace. (The campaign engine may
   override these handlers for checkpointing while it runs — it parks
   at a merge point instead of dying, and restores ours on the way
   out, so both behaviours compose.) *)
let with_telemetry ~trace_events ~metrics f =
  let oc = Option.map open_out trace_events in
  (match oc with
  | Some oc ->
    Obs.Sink.install (Obs.Sink.Channel_sink oc);
    (* live traces should be tailable: flush the channel every ~half
       second (or 512 events) so [compi-cli watch --trace] sees events
       while the campaign runs, not just at exit. Autoflush is off by
       default (tests install bare sinks); only the CLI arms it. *)
    Obs.Sink.set_autoflush ~events:512 ~seconds:0.5 ()
  | None -> ());
  (* the timeline is the one timer: the trace's spans are what
     [compi-cli profile] folds, and its drained totals are the metrics
     snapshot's phases; with neither file asked for, nothing is timed *)
  let timed = Option.is_some oc || Option.is_some metrics in
  if timed then Obs.Timeline.enable ();
  let counters = ref [] in
  let old_handlers =
    if Option.is_none oc then []
    else
      List.filter_map
        (fun sg ->
          match
            Sys.signal sg
              (Sys.Signal_handle
                 (fun _ ->
                   Obs.Sink.flush_now ();
                   (try Sys.set_signal sg Sys.Signal_default
                    with Invalid_argument _ | Sys_error _ -> ());
                   Unix.kill (Unix.getpid ()) sg))
          with
          | old -> Some (sg, old)
          | exception (Invalid_argument _ | Sys_error _) -> None)
        [ Sys.sigint; Sys.sigterm ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (sg, old) ->
          try Sys.set_signal sg old with Invalid_argument _ | Sys_error _ -> ())
        old_handlers;
      if timed then begin
        Obs.Timeline.drain ();
        Obs.Timeline.disable ()
      end;
      (match oc with
      | Some chan ->
        Obs.Sink.uninstall ();
        close_out chan;
        Printf.printf "events written to %s\n"
          (Option.get trace_events)
      | None -> ());
      match metrics with
      | Some path ->
        Out_channel.with_open_text path (fun mc ->
            Out_channel.output_string mc
              (Obs.Json.to_string (Obs.Metrics.snapshot_json ~counters:!counters ()));
            Out_channel.output_char mc '\n');
        Printf.printf "metrics snapshot written to %s\n" path
      | None -> ())
    (fun () ->
      let r, c = f () in
      counters := c;
      r)

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-bugs" ] ~docs:s_telemetry ~docv:"PATH"
        ~doc:"Save error-inducing inputs as test cases")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docs:s_telemetry ~docv:"PATH"
        ~doc:"Dump per-iteration statistics as CSV")

let curve_arg =
  Arg.(
    value & flag
    & info [ "curve" ] ~docs:s_telemetry ~doc:"Print an ASCII coverage curve")

let uncovered_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "uncovered" ] ~docs:s_telemetry ~docv:"N"
        ~doc:"List up to N still-uncovered branches")

let annotate_arg =
  Arg.(
    value & flag
    & info [ "annotate" ] ~docs:s_telemetry
        ~doc:"Print the program with per-branch coverage markers")

(* The optional per-campaign outputs, printed after the summary. *)
let print_outputs (t : Targets.Registry.t) info (result : Compi.Driver.result) ~curve
    ~uncovered_n ~annotate ~csv ~save_bugs =
  if curve then
    print_string
      (Obs.Fold.ascii_curve
         (List.map
            (fun st -> (st.Compi.Driver.iteration, st.Compi.Driver.covered_after))
            result.Compi.Driver.stats));
  (match uncovered_n with
  | Some n ->
    let misses = Compi.Report.uncovered info result.Compi.Driver.coverage in
    Printf.printf "\nuncovered branches (%d total):\n" (List.length misses);
    List.iteri
      (fun k (cond, dir, func) ->
        if k < n then
          Printf.printf "  cond %d %s side in %s\n" cond (if dir then "T" else "F") func)
      misses
  | None -> ());
  if annotate then print_string (Compi.Report.annotate info result.Compi.Driver.coverage);
  (match csv with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Compi.Report.stats_csv result));
    Printf.printf "statistics written to %s\n" path
  | None -> ());
  match save_bugs with
  | Some path ->
    let cases =
      List.map
        (Compi.Testcase.of_bug ~target:t.Targets.Registry.name)
        (Compi.Driver.distinct_bugs result)
    in
    Compi.Testcase.save ~path cases;
    Printf.printf "%d test case(s) written to %s\n" (List.length cases) path
  | None -> ()

(* ------------------------------------------------------------------ *)
(* run: a campaign with telemetry-first ergonomics                     *)
(* ------------------------------------------------------------------ *)

let schedules_arg =
  let choice = Arg.enum [ ("on", true); ("off", false) ] in
  Arg.(
    value & opt choice false
    & info [ "schedules" ] ~docs:s_execution ~docv:"on|off"
        ~doc:
          "Explore the schedule dimension (default $(b,off)): wildcard receives \
           are matched lazily under a replayable prescription, and the campaign \
           enumerates alternative match orders (partial-order reduced) alongside \
           input negations — each test is an (input, schedule) pair")

let schedule_depth_arg =
  Arg.(
    value & opt int 8
    & info [ "schedule-depth" ] ~docs:s_execution ~docv:"N"
        ~doc:
          "Only the first $(docv) wildcard choice points of a run may fork \
           alternative schedules (default $(b,8)) — the schedule-space analogue \
           of the DFS depth bound. Only meaningful with $(b,--schedules on)")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docs:s_parallelism ~docv:"N"
        ~doc:
          "Worker domains for the parallel campaign engine. Campaign results are \
           identical for every value (under an iteration budget); $(docv) only \
           changes wall-clock time")

let batch_arg =
  Arg.(
    value & opt int 4
    & info [ "batch" ] ~docs:s_parallelism ~docv:"N"
        ~doc:
          "Negation candidates dispatched per round. Independent of $(b,--jobs): \
           changing the batch changes the search trajectory, changing the job \
           count never does")

let solver_cache_arg =
  let choice = Arg.enum [ ("on", true); ("off", false) ] in
  Arg.(
    value & opt choice true
    & info [ "solver-cache" ] ~docs:s_parallelism ~docv:"on|off"
        ~doc:"Counterexample cache in front of the solver (default $(b,on))")

let coverage_report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "coverage-report" ] ~docs:s_telemetry ~docv:"FILE"
        ~doc:
          "Write the canonical coverage report to $(docv) — byte-identical across \
           $(b,--jobs) values; CI diffs it")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docs:s_checkpoint ~docv:"DIR"
        ~doc:
          "Write crash-safe campaign snapshots under $(docv) (periodically, on \
           SIGINT/SIGTERM, and at exit); resume later with $(b,--resume)")

let checkpoint_every_arg =
  Arg.(
    value & opt int 50
    & info [ "checkpoint-every" ] ~docs:s_checkpoint ~docv:"N"
        ~doc:
          "Snapshot cadence in iterations (default $(b,50); $(b,0) keeps only the \
           at-exit snapshot). Only meaningful with $(b,--checkpoint)")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ] ~docs:s_checkpoint
        ~doc:
          "Resume the campaign from the snapshot under $(b,--checkpoint) and \
           continue toward the (possibly larger) budget; the finished campaign is \
           byte-identical to an uninterrupted run")

let run_ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docs:s_telemetry ~docv:"LEDGER.jsonl"
        ~doc:
          "Append a versioned run-summary record to the $(docv) JSONL store when \
           the campaign ends; inspect trends with $(b,compi-cli history) and diff \
           runs with $(b,compi-cli compare)")

let run_cmd =
  let target_opt_arg =
    Arg.(
      required
      & opt (some target_conv) None
      & info [ "target" ] ~docs:s_execution ~docv:"TARGET"
          ~doc:"Target program (see $(b,compi-cli list))")
  in
  let run t iterations time seed nprocs caps no_reduce one_way no_fwk strategy exec_mode
      schedules schedule_depth jobs batch solver_cache checkpoint checkpoint_every resume
      coverage_report ledger save_bugs csv curve uncovered_n annotate
      trace_events metrics =
    let info, base =
      settings_of t iterations time seed nprocs caps no_reduce one_way no_fwk strategy
    in
    let base = { base with Compi.Driver.exec_mode; schedules; schedule_depth } in
    let settings =
      {
        Compi.Campaign.default_settings with
        Compi.Campaign.base;
        jobs;
        batch;
        solver_cache;
        checkpoint;
        checkpoint_every;
        resume;
        ledger;
      }
    in
    (* refuse every unwritable output path before any telemetry file is
       opened or the first test runs, with the flag in the message *)
    List.iter
      (fun (flag, path) ->
        Option.iter
          (fun path ->
            Option.iter
              (fun why ->
                Printf.eprintf "%s %s: %s\n" flag path why;
                exit 1)
              (Compi.Campaign.output_path_problem path))
          path)
      [
        ("--ledger", ledger);
        ("--trace-events", trace_events);
        ("--metrics", metrics);
        ("--coverage-report", coverage_report);
        ("--csv", csv);
        ("--save-bugs", save_bugs);
      ];
    let result =
      try
        with_telemetry ~trace_events ~metrics (fun () ->
            Compi.Campaign.run_with_counters ~settings ~label:t.Targets.Registry.name info)
      with Compi.Checkpoint.Load_error e ->
        Printf.eprintf "cannot resume: %s\n" (Compi.Checkpoint.error_to_string e);
        exit 1
    in
    report result.Compi.Campaign.summary;
    print_outputs t info result.Compi.Campaign.summary ~curve ~uncovered_n ~annotate ~csv
      ~save_bugs;
    Printf.printf "engine          %d round(s), %d execution(s), %d solver call(s), %d job(s), %s executor\n"
      result.Compi.Campaign.rounds result.Compi.Campaign.executed
      result.Compi.Campaign.solver_calls jobs
      (Compi.Runner.exec_mode_name exec_mode);
    if schedules then
      Printf.printf "schedules       on (choice-point depth %d)\n" schedule_depth;
    (match checkpoint with
    | Some dir ->
      Printf.printf "checkpoint      %s (%d write(s))%s\n"
        (Compi.Checkpoint.file ~dir)
        result.Compi.Campaign.checkpoints_written
        (if result.Compi.Campaign.interrupted then
           ", campaign interrupted — resume with --resume"
         else "")
    | None -> ());
    (match result.Compi.Campaign.cache with
    | Some cs ->
      let probes = cs.Smt.Cache.hits + cs.Smt.Cache.misses in
      Printf.printf
        "solver cache    %d hit(s) / %d probe(s)%s, %d entr%s, %d eviction(s)\n"
        cs.Smt.Cache.hits probes
        (if probes = 0 then ""
         else
           Printf.sprintf " (%.0f%% hit rate)"
             (100.0 *. float_of_int cs.Smt.Cache.hits /. float_of_int probes))
        cs.Smt.Cache.entries
        (if cs.Smt.Cache.entries = 1 then "y" else "ies")
        cs.Smt.Cache.evictions
    | None -> Printf.printf "solver cache    off\n");
    (match ledger with
    | Some path -> Printf.printf "run recorded in ledger %s\n" path
    | None -> ());
    match coverage_report with
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Compi.Campaign.coverage_report result));
      Printf.printf "coverage report written to %s\n" path
    | None -> ()
  in
  let man =
    [
      `S s_execution;
      `P
        "What runs and for how long: the target, the iteration/time budget, the \
         search strategy, the executor ($(b,--exec-mode)), the initial process \
         count and the paper's ablation switches.";
      `S s_parallelism;
      `P
        "The parallel campaign engine: worker domains, dispatch batch and the \
         solver cache. None of these change the campaign's result.";
      `S s_checkpoint;
      `P "Crash-safe snapshots and resumption.";
      `S s_telemetry;
      `P
        "Structured event streams, metrics snapshots and canonical reports for \
         $(b,compi-cli explain)/$(b,report)/$(b,profile), plus per-campaign \
         outputs: saved bug test cases, statistics CSV, coverage curve and \
         uncovered-branch listings.";
    ]
  in
  Cmd.v
    (Cmd.info "run" ~man
       ~doc:
         "Run a COMPI concolic-testing campaign on a target, on the parallel \
          engine ($(b,--jobs), $(b,--solver-cache)) with structured telemetry \
          ($(b,--trace-events)/$(b,--metrics))")
    Term.(
      const run $ target_opt_arg $ iterations_arg ~docs:s_execution ()
      $ time_arg ~docs:s_execution () $ seed_arg ~docs:s_execution ()
      $ nprocs_arg ~docs:s_execution () $ cap_arg ~docs:s_execution ()
      $ no_reduce_arg $ one_way_arg $ no_fwk_arg
      $ strategy_arg ~docs:s_execution () $ exec_mode_arg ~docs:s_execution ()
      $ schedules_arg $ schedule_depth_arg
      $ jobs_arg $ batch_arg $ solver_cache_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg $ coverage_report_arg $ run_ledger_arg
      $ save_arg $ csv_arg $ curve_arg $ uncovered_arg $ annotate_arg
      $ trace_events_arg ~docs:s_telemetry () $ metrics_arg ~docs:s_telemetry ())

(* ------------------------------------------------------------------ *)
(* replay: saved test cases                                            *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let path_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  let run path =
    match Compi.Testcase.load ~path with
    | Error e ->
      Printf.eprintf
        "cannot load %s: %s (replay reads saved test cases; a --trace-events file \
         goes to report)\n"
        path e;
      exit 1
    | Ok cases ->
      List.iteri
        (fun k (c : Compi.Testcase.t) ->
          match Targets.Catalog.find c.Compi.Testcase.target with
          | None -> Printf.printf "case %d: unknown target %s\n" k c.Compi.Testcase.target
          | Some t -> (
            let info = Targets.Registry.instrument t in
            Printf.printf "case %d (%s, np=%d):\n" k c.Compi.Testcase.target
              c.Compi.Testcase.nprocs;
            match Compi.Testcase.replay c ~info () with
            | Error (`Platform_limit n) -> Printf.printf "  platform limit (%d procs)\n" n
            | Ok [] -> Printf.printf "  clean run (bug did not reproduce)\n"
            | Ok faults ->
              List.iter
                (fun (rank, f) ->
                  Printf.printf "  rank %d: %s\n" rank (Minic.Fault.to_string f))
                faults))
        cases
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay saved test cases (bug reproduction)")
    Term.(const run $ path_arg)

(* ------------------------------------------------------------------ *)
(* explain / report: the campaign observatory                          *)
(* ------------------------------------------------------------------ *)

(* Surface the lines a fold skipped loudly: a trace from a newer build
   folds, but silently dropping its events would make the views lie by
   omission. *)
let warn_skipped path (f : Obs.Fold.t) =
  (match f.Obs.Fold.unknown_kinds with
  | [] -> ()
  | skipped ->
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 skipped in
    Printf.eprintf
      "warning: %s: skipped %d event(s) of %d unknown kind(s) (%s) — likely a \
       trace from a newer build; counts below exclude them\n"
      path total (List.length skipped)
      (String.concat ", " (List.map fst skipped)));
  if f.Obs.Fold.malformed > 0 then
    Printf.eprintf "warning: %s: %d malformed line(s)\n" path f.Obs.Fold.malformed

(* Load a JSONL trace into the observatory fold. All explain/report/
   profile/watch analytics live in {!Obs.Fold}; the CLI only renders. *)
let load_fold path =
  let lines =
    try In_channel.with_open_text path In_channel.input_lines
    with Sys_error e ->
      Printf.eprintf "cannot read %s: %s\n" path e;
      exit 1
  in
  let f = Obs.Fold.of_lines lines in
  warn_skipped path f;
  if f.Obs.Fold.events = 0 then begin
    Printf.eprintf "%s: no parseable telemetry events\n" path;
    exit 1
  end;
  f

(* Annotate branch ids with the owning conditional and function when a
   target is named — "27 = cond 13 T in diffuse" beats a bare number. *)
let branch_labeler = function
  | None -> string_of_int
  | Some (t : Targets.Registry.t) ->
    let info = Targets.Registry.instrument t in
    let funcs = info.Minic.Branchinfo.func_of_cond in
    fun br ->
      let cond, dir = Minic.Branchinfo.cond_of_branch br in
      if cond >= 0 && cond < Array.length funcs then
        Printf.sprintf "%d (cond %d %s in %s)" br cond
          (if dir then "T" else "F")
          funcs.(cond)
      else string_of_int br

let trace_pos_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.jsonl")

let label_target_arg =
  Arg.(
    value
    & opt (some target_conv) None
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          "Annotate branch ids with their conditional, direction and function \
           (see $(b,compi-cli list))")

(* Root-first causal chain: seed → … → the test itself. *)
let print_chain (f : Obs.Fold.t) label tid =
  match Obs.Fold.chain f tid with
  | [] ->
    Printf.printf "test %d: not in this trace\n" tid;
    exit 1
  | nodes ->
    List.iter
      (fun (n : Obs.Fold.lineage_node) ->
        match n.Obs.Fold.ln_origin with
        | "negated" ->
          Printf.printf
            "  test %d <- negating constraint %d of test %d, targeting branch %s%s\n"
            n.Obs.Fold.ln_test n.Obs.Fold.ln_index n.Obs.Fold.ln_parent
            (label n.Obs.Fold.ln_branch)
            (if n.Obs.Fold.ln_cached then " [cached verdict]" else " [solver sat]")
        | "schedule" ->
          (* the (input, schedule) pair: same inputs as the parent, one
             wildcard match decision flipped *)
          Printf.printf
            "  test %d <- schedule fork of test %d: same inputs, wildcard choice \
             point %d delivers from local rank %d instead\n"
            n.Obs.Fold.ln_test n.Obs.Fold.ln_parent n.Obs.Fold.ln_index
            n.Obs.Fold.ln_branch
        | origin ->
          Printf.printf "  test %d: %s (fresh random inputs)\n" n.Obs.Fold.ln_test
            origin)
      (List.rev nodes)

let explain_branch (f : Obs.Fold.t) label br =
  match Obs.Fold.first_test_for_branch f br with
  | Some tid ->
    Printf.printf "branch %s: first covered by test %d, derived as:\n" (label br) tid;
    print_chain f label tid
  | None -> (
    match
      List.find_opt (fun s -> s.Obs.Fold.br_branch = br) f.Obs.Fold.branches
    with
    | None ->
      Printf.printf
        "branch %s: never targeted by a negation in this trace (either already \
         covered by chance, or never adjacent to an executed path)\n"
        (label br)
    | Some s ->
      Printf.printf "branch %s: plateau — %d negation attempt(s), no test reached it\n"
        (label br) s.Obs.Fold.br_attempts;
      Printf.printf "  verdicts: %d sat, %d unsat, %d unknown (%d from cache)\n"
        s.Obs.Fold.br_sat s.Obs.Fold.br_unsat s.Obs.Fold.br_unknown
        s.Obs.Fold.br_cached;
      if s.Obs.Fold.br_unsat = s.Obs.Fold.br_attempts then
        Printf.printf
          "  diagnosis: every attempt was unsat — the flip is infeasible along all \
           observed path prefixes\n"
      else if s.Obs.Fold.br_unknown > 0 && s.Obs.Fold.br_sat = 0 then
        Printf.printf
          "  diagnosis: solver gave up (%d unknown) — consider raising the solver \
           budget\n"
          s.Obs.Fold.br_unknown
      else if s.Obs.Fold.br_sat > 0 then
        Printf.printf
          "  diagnosis: %d sat verdict(s) produced derived tests, but none executed \
           this branch — the negated prefix did not pin the path (or the budget cut \
           the run)\n"
          s.Obs.Fold.br_sat)

let explain_summary (f : Obs.Fold.t) label =
  (match Obs.Fold.lineage_errors f with
  | [] -> ()
  | errs ->
    Printf.printf "lineage invariant violations (%d):\n" (List.length errs);
    List.iter (fun e -> Printf.printf "  %s\n" e) errs;
    print_newline ());
  let nodes = f.Obs.Fold.lineage in
  let count o = List.length (List.filter (fun n -> n.Obs.Fold.ln_origin = o) nodes) in
  Printf.printf "lineage: %d test(s) — %d seed, %d negated, %d schedule, %d restart\n"
    (List.length nodes) (count "seed") (count "negated") (count "schedule")
    (count "restart");
  let covered =
    List.filter (fun s -> s.Obs.Fold.br_first_test >= 0) f.Obs.Fold.branches
  in
  let plateau =
    List.filter
      (fun s -> s.Obs.Fold.br_first_test < 0 && s.Obs.Fold.br_attempts > 0)
      f.Obs.Fold.branches
  in
  Printf.printf "branches targeted by negations: %d reached, %d plateaued\n"
    (List.length covered) (List.length plateau);
  (match covered with
  | [] -> ()
  | s :: _ ->
    (* show the longest chain among first-covering tests, headed by the
       branch that test covers *)
    let best, _ =
      List.fold_left
        (fun (b, bd) c ->
          let d = List.length (Obs.Fold.chain f c.Obs.Fold.br_first_test) in
          if d > bd then (c, d) else (b, bd))
        (s, 0) covered
    in
    Printf.printf "\ndeepest example — branch %s:\n" (label best.Obs.Fold.br_branch);
    print_chain f label best.Obs.Fold.br_first_test);
  if plateau <> [] then begin
    Printf.printf "\nplateau branches (try --branch ID for a diagnosis):\n";
    List.iteri
      (fun i s ->
        if i < 12 then
          Printf.printf "  branch %s — %d attempt(s), %d unsat, %d unknown\n"
            (label s.Obs.Fold.br_branch) s.Obs.Fold.br_attempts s.Obs.Fold.br_unsat
            s.Obs.Fold.br_unknown)
      plateau;
    if List.length plateau > 12 then
      Printf.printf "  ... %d more\n" (List.length plateau - 12)
  end

let explain_cmd =
  let branch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "branch" ] ~docv:"ID"
          ~doc:"Explain how branch $(docv) was covered — or why it never was")
  in
  let testcase_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "testcase" ] ~docv:"ID"
          ~doc:"Print the seed-to-test derivation chain of test case $(docv)")
  in
  let run path branch testcase target =
    let f = load_fold path in
    let label = branch_labeler target in
    match (branch, testcase) with
    | Some br, _ -> explain_branch f label br
    | None, Some tid ->
      Printf.printf "test %d derivation:\n" tid;
      print_chain f label tid
    | None, None -> explain_summary f label
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a campaign from its $(b,--trace-events) JSONL: the causal \
          seed-to-branch chain behind a test case or a covered branch \
          ($(b,--testcase)/$(b,--branch)), and plateau diagnoses for branches \
          whose negations never produced a covering test")
    Term.(const run $ trace_pos_arg $ branch_arg $ testcase_arg $ label_target_arg)

let stable_arg =
  Arg.(
    value & flag
    & info [ "stable" ]
        ~doc:
          "Drop wall-clock-derived lines and worker/checkpoint census rows so the \
           report is byte-identical across $(b,--jobs) values and re-runs")

let report_cmd =
  let run path stable target =
    let f = load_fold path in
    print_string (Obs.Fold.to_text ~stable ~branch_label:(branch_labeler target) f)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Fold a $(b,--trace-events) JSONL trace into an ASCII campaign report: \
          coverage curve, per-branch hit table, solver/cache breakdown, rank-by-rank \
          communication matrix, lineage summary and deadlock witnesses")
    Term.(const run $ trace_pos_arg $ stable_arg $ label_target_arg)

let profile_cmd =
  let run path stable =
    let f = load_fold path in
    if f.Obs.Fold.spans = [] then begin
      Printf.eprintf
        "%s: no spans in this trace (re-run the campaign with --trace-events \
         using this build to record them)\n"
        path;
      exit 1
    end;
    print_string (Obs.Fold.profile_text ~stable f)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Fold the timeline spans of a $(b,--trace-events) JSONL trace into an ASCII \
          performance profile: per-kind wall breakdown, per-worker utilization, \
          pipeline queue wait, worker idle, pool join and per-round critical path")
    Term.(const run $ trace_pos_arg $ stable_arg)

(* ------------------------------------------------------------------ *)
(* watch: the live campaign monitor                                    *)
(* ------------------------------------------------------------------ *)

let watch_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll interval (default 1s)")
  in
  let once_arg =
    Arg.(value & flag & info [ "once" ] ~doc:"Render a single frame and exit")
  in
  let run path interval once =
    let interval = if interval < 0.05 then 0.05 else interval in
    let tty = Unix.isatty Unix.stdout in
    let show f =
      if tty && not once then
        (* full-screen dashboard: home + clear, then redraw *)
        print_string ("\027[H\027[2J" ^ Obs.Fold.watch_text f)
      else if tty || once then print_string (Obs.Fold.watch_text f)
      else print_endline (Obs.Fold.watch_line f);
      flush stdout
    in
    if once then show (load_fold path)
    else begin
      (* incremental fold over the growing trace: the state persists
         across polls, each poll steps only the complete lines appended
         since the last one (a torn tail waits for the next poll) *)
      let st = Obs.Fold.init () in
      let offset = ref 0 in
      let poll () =
        match open_in_bin path with
        | exception Sys_error _ -> ()
        | ic ->
          let len = in_channel_length ic in
          if len > !offset then begin
            seek_in ic !offset;
            let chunk = really_input_string ic (len - !offset) in
            match String.rindex_opt chunk '\n' with
            | None -> ()
            | Some k ->
              offset := !offset + k + 1;
              List.iter
                (fun l -> ignore (Obs.Fold.step_line st l))
                (String.split_on_char '\n' (String.sub chunk 0 k))
          end;
          close_in ic
      in
      let rec loop ~announced ~skipped =
        poll ();
        let f = Obs.Fold.finish st in
        if f.Obs.Fold.events > 0 then show f
        else if not announced then
          (* the campaign may not have written its first event yet *)
          Printf.eprintf "waiting for %s\n%!" path;
        (* after the frame, so a full-screen redraw does not wipe it *)
        let skipped' = (f.Obs.Fold.malformed, f.Obs.Fold.unknown_kinds) in
        if skipped' <> skipped then warn_skipped path f;
        if not (Obs.Fold.finished f) then begin
          Unix.sleepf interval;
          loop ~announced:true ~skipped:skipped'
        end
      in
      loop ~announced:false ~skipped:(0, [])
    end
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Live dashboard for a campaign's $(b,--trace-events) file: tails the \
          trace through the incremental observatory fold and renders coverage \
          against the reachable count, bugs, cache hit rate, schedule forks, \
          the plateau/ETA trend and the coverage curve until the campaign's \
          $(b,campaign_end) is folded. Full-screen on a tty; one compact line \
          per poll otherwise; $(b,--once) prints one frame of the trace as it \
          stands and exits")
    Term.(const run $ trace_pos_arg $ interval_arg $ once_arg)

(* ------------------------------------------------------------------ *)
(* history / compare: the run ledger                                   *)
(* ------------------------------------------------------------------ *)

let load_ledger path =
  match Obs.Ledger.load path with
  | Error e ->
    Printf.eprintf "cannot read ledger %s: %s\n" path e;
    exit 1
  | Ok store ->
    if store.Obs.Ledger.skipped > 0 then
      Printf.eprintf
        "warning: %s: skipped %d record(s) of a newer ledger version\n" path
        store.Obs.Ledger.skipped;
    if store.Obs.Ledger.malformed > 0 then
      Printf.eprintf "warning: %s: %d malformed line(s)\n" path
        store.Obs.Ledger.malformed;
    store

let history_cmd =
  let ledger_pos_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER.jsonl")
  in
  let target_filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME" ~doc:"Only show runs of target $(docv)")
  in
  let run path target =
    let store = load_ledger path in
    let records =
      match target with
      | None -> store.Obs.Ledger.records
      | Some t ->
        List.filter (fun (r : Obs.Ledger.record) -> r.target = t)
          store.Obs.Ledger.records
    in
    if records = [] then begin
      Printf.eprintf "no records%s in %s\n"
        (match target with Some t -> " for target " ^ t | None -> "")
        path;
      exit 1
    end;
    Printf.printf "%-18s %-8s %4s %9s %9s %4s %8s %6s %s\n" "run" "mode" "jobs"
      "executed" "coverage" "bugs" "wall" "cache" "trend";
    (* trend column: coverage direction vs the previous run of the same
       target, in ledger (append) order *)
    let prev = Hashtbl.create 8 in
    List.iter
      (fun (r : Obs.Ledger.record) ->
        let trend =
          match Hashtbl.find_opt prev r.target with
          | None -> ""
          | Some c when r.covered > c -> "+"
          | Some c when r.covered < c -> "-"
          | Some _ -> "="
        in
        Hashtbl.replace prev r.target r.covered;
        Printf.printf "%-18s %-8s %4d %9d %5d/%-3d %4d %7.1fs %5.0f%% %s\n" r.run
          r.exec_mode r.jobs r.executed r.covered r.reachable
          (List.length r.bugs) r.wall_s
          (100.0 *. Obs.Ledger.hit_rate r)
          trend)
      records
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "Per-target trend table over a $(b,--ledger) JSONL store: one row per \
          recorded campaign, with a coverage-direction marker against the \
          previous run of the same target")
    Term.(const run $ ledger_pos_arg $ target_filter_arg)

let compare_cmd =
  let sel_arg n docv =
    Arg.(
      required
      & pos n (some string) None
      & info [] ~docv
          ~doc:
            "Run selector: a run id like $(b,heat2d#3), or an index into the \
             ledger ($(b,-1) = latest, negative counts from the end)")
  in
  let ledger_opt_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "ledger" ] ~docv:"LEDGER.jsonl" ~doc:"The run-ledger JSONL store")
  in
  let tolerance_arg =
    Arg.(
      value & opt int 0
      & info [ "tolerance" ] ~docv:"N"
          ~doc:
            "Allow coverage to drop by up to $(docv) branch(es) before the exit \
             status reports a regression (default $(b,0))")
  in
  let run sel_a sel_b path tolerance =
    let store = load_ledger path in
    let resolve sel =
      match Obs.Ledger.find store sel with
      | Some r -> r
      | None ->
        Printf.eprintf "no run %s in %s (%d record(s))\n" sel path
          (List.length store.Obs.Ledger.records);
        exit 1
    in
    let a = resolve sel_a in
    let b = resolve sel_b in
    let d = Obs.Ledger.diff ~tolerance a b in
    let describe (r : Obs.Ledger.record) =
      Printf.sprintf "%s (%s, %d job(s), seed %d): covered %d/%d, %d bug(s)" r.run
        r.exec_mode r.jobs r.seed r.covered r.reachable (List.length r.bugs)
    in
    Printf.printf "A  %s\n" (describe a);
    Printf.printf "B  %s\n" (describe b);
    Printf.printf "settings   %s\n"
      (if d.Obs.Ledger.same_settings then
         "identical (fingerprint " ^ a.Obs.Ledger.fingerprint ^ ")"
       else "differ — deltas compare different campaigns");
    let pm n = if n >= 0 then "+" ^ string_of_int n else string_of_int n in
    Printf.printf "coverage   %s branch(es)  (%d -> %d)\n" (pm d.Obs.Ledger.d_covered)
      a.Obs.Ledger.covered b.Obs.Ledger.covered;
    Printf.printf "reachable  %s  (%d -> %d)\n" (pm d.Obs.Ledger.d_reachable)
      a.Obs.Ledger.reachable b.Obs.Ledger.reachable;
    Printf.printf "bugs       %s  (%d -> %d)\n" (pm d.Obs.Ledger.d_bugs)
      (List.length a.Obs.Ledger.bugs)
      (List.length b.Obs.Ledger.bugs);
    Printf.printf "executed   %s  (%d -> %d)\n" (pm d.Obs.Ledger.d_executed)
      a.Obs.Ledger.executed b.Obs.Ledger.executed;
    Printf.printf "wall       %+.2fs  (%.2fs -> %.2fs)  [informational]\n"
      d.Obs.Ledger.d_wall_s a.Obs.Ledger.wall_s b.Obs.Ledger.wall_s;
    Printf.printf "solver     %s call(s)  [informational]\n"
      (pm d.Obs.Ledger.d_solver_calls);
    Printf.printf "cache      %+.1f hit-rate point(s)  [informational]\n"
      (100.0 *. d.Obs.Ledger.d_hit_rate);
    if d.Obs.Ledger.regression then begin
      Printf.printf "verdict    COVERAGE REGRESSION: dropped %d branch(es), tolerance %d\n"
        (-d.Obs.Ledger.d_covered) tolerance;
      exit 1
    end
    else Printf.printf "verdict    ok\n"
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Diff two ledger runs: coverage, bug and perf deltas of B relative to \
          A. Exits non-zero when coverage regressed by more than \
          $(b,--tolerance) branches — wall time and solver work stay \
          informational, so identical-settings runs always compare clean")
    Term.(
      const run $ sel_arg 0 "RUN_A" $ sel_arg 1 "RUN_B" $ ledger_opt_arg
      $ tolerance_arg)

let random_cmd =
  let run t iterations time seed nprocs caps =
    let info, settings =
      settings_of t iterations time seed nprocs caps false false false `Dfs
    in
    report (Compi.Random_testing.run ~settings info)
  in
  Cmd.v
    (Cmd.info "random" ~doc:"Run the random-testing baseline on a target")
    Term.(
      const run $ target_arg $ iterations_arg () $ time_arg () $ seed_arg ()
      $ nprocs_arg () $ cap_arg ())

(* ------------------------------------------------------------------ *)
(* exec: one concrete run                                              *)
(* ------------------------------------------------------------------ *)

let exec_inputs_arg =
  Arg.(
    value & opt_all kv_conv []
    & info [ "input"; "i" ] ~docv:"NAME=VALUE" ~doc:"Set a marked input (repeatable)")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the communication timeline")

let trace_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write the run's telemetry trace as JSON Lines: one $(b,mpi_summary) \
           event with the per-rank and rank-to-rank message counts, plus any \
           deadlock and schedule-choice events")

let exec_cmd =
  let run (t : Targets.Registry.t) nprocs inputs trace trace_jsonl =
    let info = Targets.Registry.instrument t in
    let tracer = Mpisim.Trace.create () in
    let config =
      {
        (Compi.Runner.default_config ~info) with
        Compi.Runner.nprocs = Option.value nprocs ~default:4;
        inputs;
        step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
        on_event = (if trace then Mpisim.Trace.collector tracer else Mpisim.Trace.discard);
      }
    in
    let result =
      match trace_jsonl with
      | None -> Compi.Runner.run config
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Obs.Sink.with_sink (Obs.Sink.Channel_sink oc) (fun () ->
                Compi.Runner.run config))
    in
    match result with
    | Error (`Platform_limit n) -> Printf.printf "platform limit: %d processes\n" n
    | Ok res ->
      Printf.printf "covered %d branches across %d processes in %.1fms\n"
        (Concolic.Coverage.covered_branches res.Compi.Runner.coverage)
        config.Compi.Runner.nprocs
        (1000.0 *. res.Compi.Runner.wall_time);
      (match Compi.Runner.faults res with
      | [] -> Printf.printf "all processes completed cleanly\n"
      | faults ->
        List.iter
          (fun (rank, f) ->
            Printf.printf "rank %d: %s\n" rank (Minic.Fault.to_string f))
          faults);
      if res.Compi.Runner.deadlocked <> [] then
        Printf.printf "deadlocked ranks: %s\n"
          (String.concat ", " (List.map string_of_int res.Compi.Runner.deadlocked));
      if trace then begin
        Printf.printf "\ncommunication trace (%d events):\n" (Mpisim.Trace.length tracer);
        List.iter
          (fun (kind, n) -> Printf.printf "  %-12s %d\n" kind n)
          (Mpisim.Trace.summary tracer);
        print_string (Mpisim.Trace.timeline ~limit:60 tracer)
      end;
      Option.iter (Printf.printf "telemetry trace written to %s\n") trace_jsonl
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute a target once with concrete inputs")
    Term.(
      const run $ target_arg $ nprocs_arg () $ exec_inputs_arg $ trace_arg
      $ trace_jsonl_arg)

(* ------------------------------------------------------------------ *)
(* test-file: campaigns on Mini-C source files                          *)
(* ------------------------------------------------------------------ *)

let test_file_cmd =
  let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mc") in
  let run path iterations time seed nprocs caps =
    let src = In_channel.with_open_text path In_channel.input_all in
    match Minic.Parse.program src with
    | Error e ->
      Printf.eprintf "%s: %s\n" path (Format.asprintf "%a" Minic.Parse.pp_error e);
      exit 1
    | Ok program -> (
      match Minic.Check.check program with
      | _ :: _ as errors ->
        List.iter (fun err -> Printf.eprintf "%s: %s\n" path err) errors;
        exit 1
      | [] ->
        let info = Minic.Branchinfo.instrument (Minic.Opt.simplify_program program) in
        Printf.printf "%s: %d branches across %d functions\n\n" path
          info.Minic.Branchinfo.total_branches
          (List.length info.Minic.Branchinfo.funcs);
        let settings =
          {
            Compi.Driver.default_settings with
            Compi.Driver.iterations = (if time = None then iterations else max_int);
            time_budget = time;
            dfs_phase_iters = max 10 (iterations / 10);
            initial_nprocs = Option.value nprocs ~default:4;
            cap_overrides = caps;
            seed;
          }
        in
        let campaign =
          { Compi.Campaign.default_settings with Compi.Campaign.base = settings }
        in
        report (Compi.Campaign.run ~settings:campaign info).Compi.Campaign.summary)
  in
  Cmd.v
    (Cmd.info "test-file"
       ~doc:"Parse a Mini-C source file and run a COMPI campaign on it")
    Term.(
      const run $ path_arg $ iterations_arg () $ time_arg () $ seed_arg ()
      $ nprocs_arg () $ cap_arg ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "compi-cli" ~version:"1.0"
      ~doc:"COMPI: concolic testing for MPI applications (OCaml reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd; show_cmd; run_cmd; random_cmd; exec_cmd; replay_cmd;
            explain_cmd; report_cmd; profile_cmd; watch_cmd;
            history_cmd; compare_cmd; test_file_cmd;
          ]))
