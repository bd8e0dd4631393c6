(* Tests for the COMPI framework: inherent MPI-semantics constraints,
   conflict resolution (the paper's Figure 5 scenario), the test runner
   (two-way instrumentation, all-recorders), and the campaign driver. *)

open Concolic

(* ------------------------------------------------------------------ *)
(* Mpi_sem                                                             *)
(* ------------------------------------------------------------------ *)

let test_mpi_sem_families () =
  let tab = Symtab.create () in
  let x0 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let x1 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let y0 = Symtab.fresh_sem tab ~kind:(Symtab.Rank_comm 1) ~comm_size:3 ~concrete:0 () in
  let z0 = Symtab.fresh_sem tab ~kind:Symtab.Size_world ~concrete:8 () in
  let cs = Compi.Mpi_sem.constraints ~nprocs_cap:16 tab in
  (* A model violating x0 = x1 must be rejected; a consistent one passes. *)
  let consistent =
    Smt.Model.of_bindings [ (x0, 2); (x1, 2); (y0, 1); (z0, 4) ]
  in
  Alcotest.(check bool) "consistent model passes" true (Smt.Solver.holds_all consistent cs);
  let rank_mismatch = Smt.Model.of_bindings [ (x0, 2); (x1, 3); (y0, 1); (z0, 4) ] in
  Alcotest.(check bool) "rw equality enforced" false
    (Smt.Solver.holds_all rank_mismatch cs);
  let rank_too_big = Smt.Model.of_bindings [ (x0, 4); (x1, 4); (y0, 1); (z0, 4) ] in
  Alcotest.(check bool) "x0 < z0 enforced" false (Smt.Solver.holds_all rank_too_big cs);
  let rc_too_big = Smt.Model.of_bindings [ (x0, 2); (x1, 2); (y0, 3); (z0, 4) ] in
  Alcotest.(check bool) "rc < comm size enforced" false
    (Smt.Solver.holds_all rc_too_big cs);
  let size_over_cap = Smt.Model.of_bindings [ (x0, 2); (x1, 2); (y0, 1); (z0, 17) ] in
  Alcotest.(check bool) "sw cap enforced" false (Smt.Solver.holds_all size_over_cap cs)

let test_mpi_sem_empty () =
  let tab = Symtab.create () in
  Alcotest.(check (list reject)) "no vars, no constraints" []
    (List.map (fun _ -> ()) (Compi.Mpi_sem.constraints ~nprocs_cap:16 tab))

(* ------------------------------------------------------------------ *)
(* Conflict resolution — the paper's Figure 5                          *)
(* ------------------------------------------------------------------ *)

(* Figure 5 setup: 3 processes, focus has global rank 0; it belongs to
   MPI_COMM_WORLD (x0) and two local communicators (y0 in comm 1, y1 in
   comm 2). Negating y0 = 0 yields y0 = 1; with comm 1's row [0; 2] the
   new focus must be global rank 2. (The paper's table uses different
   membership; the mechanism is the same.) *)
let test_conflict_rc_translates_via_table2 () =
  let tab = Symtab.create () in
  let _x0 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let y0 = Symtab.fresh_sem tab ~kind:(Symtab.Rank_comm 1) ~comm_size:2 ~concrete:0 () in
  let _y1 = Symtab.fresh_sem tab ~kind:(Symtab.Rank_comm 2) ~comm_size:2 ~concrete:0 () in
  let mapping = [ (1, [| 0; 2 |]); (2, [| 0; 1 |]) ] in
  let result =
    {
      Smt.Solver.model = Smt.Model.of_bindings [ (y0, 1) ];
      fresh = Smt.Model.of_bindings [ (y0, 1) ];
      resolved = Smt.Varid.Set.singleton y0;
      changed = Smt.Varid.Set.singleton y0;
    }
  in
  let d =
    Compi.Conflict.resolve ~prev_nprocs:3 ~prev_focus:0 ~mapping ~symtab:tab ~result
  in
  Alcotest.(check int) "focus shifts to global 2" 2 d.Compi.Conflict.focus;
  Alcotest.(check int) "nprocs stays" 3 d.Compi.Conflict.nprocs;
  Alcotest.(check bool) "moved" true d.Compi.Conflict.moved

let test_conflict_rw_takes_priority () =
  let tab = Symtab.create () in
  let x0 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let y0 = Symtab.fresh_sem tab ~kind:(Symtab.Rank_comm 1) ~comm_size:2 ~concrete:0 () in
  let result =
    {
      Smt.Solver.model = Smt.Model.of_bindings [ (x0, 1); (y0, 1) ];
      fresh = Smt.Model.of_bindings [ (x0, 1); (y0, 1) ];
      resolved = Smt.Varid.Set.of_list [ x0; y0 ];
      changed = Smt.Varid.Set.of_list [ x0; y0 ];
    }
  in
  let d =
    Compi.Conflict.resolve ~prev_nprocs:4 ~prev_focus:0 ~mapping:[ (1, [| 0; 3 |]) ]
      ~symtab:tab ~result
  in
  (* rw's new value IS the global rank: 1, not the rc translation 3 *)
  Alcotest.(check int) "rw wins" 1 d.Compi.Conflict.focus

let test_conflict_stale_values_ignored () =
  (* Nothing changed: focus must stay even though the model binds ranks. *)
  let tab = Symtab.create () in
  let x0 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:2 () in
  let result =
    {
      Smt.Solver.model = Smt.Model.of_bindings [ (x0, 2) ];
      fresh = Smt.Model.empty;
      resolved = Smt.Varid.Set.empty;
      changed = Smt.Varid.Set.empty;
    }
  in
  let d =
    Compi.Conflict.resolve ~prev_nprocs:4 ~prev_focus:2 ~mapping:[] ~symtab:tab ~result
  in
  Alcotest.(check int) "focus unchanged" 2 d.Compi.Conflict.focus;
  Alcotest.(check bool) "not moved" false d.Compi.Conflict.moved

let test_conflict_nprocs_from_sw () =
  let tab = Symtab.create () in
  let z0 = Symtab.fresh_sem tab ~kind:Symtab.Size_world ~concrete:8 () in
  let result =
    {
      Smt.Solver.model = Smt.Model.of_bindings [ (z0, 3) ];
      fresh = Smt.Model.of_bindings [ (z0, 3) ];
      resolved = Smt.Varid.Set.singleton z0;
      changed = Smt.Varid.Set.singleton z0;
    }
  in
  let d =
    Compi.Conflict.resolve ~prev_nprocs:8 ~prev_focus:5 ~mapping:[] ~symtab:tab ~result
  in
  Alcotest.(check int) "nprocs derived" 3 d.Compi.Conflict.nprocs;
  Alcotest.(check bool) "focus clamped into range" true (d.Compi.Conflict.focus < 3)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let fig2_info = lazy (Targets.Registry.instrument Targets.Toy.fig2)

let test_runner_records_all_processes () =
  let info = Lazy.force fig2_info in
  let config =
    { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 4; focus = 0 }
  in
  match Compi.Runner.run config with
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
  | Ok res ->
    (* branch 4 (rank != 0, y < 100) is only seen by non-focus ranks;
       all-recorders must have it *)
    let all = res.Compi.Runner.coverage in
    let only_focus =
      let config = { config with Compi.Runner.record_all = false } in
      match Compi.Runner.run config with
      | Ok r -> r.Compi.Runner.coverage
      | Error _ -> Alcotest.fail "rerun failed"
    in
    Alcotest.(check bool) "all-recorders sees more" true
      (Coverage.covered_branches all > Coverage.covered_branches only_focus)

let test_runner_two_way_log_sizes () =
  let info = Lazy.force fig2_info in
  let base = { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 4 } in
  let two_way =
    match Compi.Runner.run base with Ok r -> r | Error _ -> Alcotest.fail "run"
  in
  let one_way =
    match Compi.Runner.run { base with Compi.Runner.two_way = false } with
    | Ok r -> r
    | Error _ -> Alcotest.fail "run"
  in
  Alcotest.(check bool) "one-way non-focus logs are much bigger" true
    (one_way.Compi.Runner.nonfocus_log_bytes > 2 * two_way.Compi.Runner.nonfocus_log_bytes);
  Alcotest.(check bool) "focus log unchanged in kind" true
    (two_way.Compi.Runner.focus_log_bytes > 0)

(* [Runner.run_raw] reads every rendered log back and fails with
   [Invalid_argument] unless it finds one record per branch event: the
   focus log in both modes, and each non-focus rank's heavy log one-way. *)
let test_runner_log_read_back_checked () =
  let info = Targets.Registry.instrument Targets.Npb_cg.target in
  List.iter
    (fun two_way ->
      let config =
        { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 4; two_way }
      in
      match Compi.Runner.run config with
      | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
      | Ok res ->
        Alcotest.(check bool) "focus log rendered" true (res.Compi.Runner.focus_log_bytes > 0);
        Alcotest.(check bool) "no faults" true (Compi.Runner.faults res = []))
    [ true; false ]

(* Byte oracle for [Pathlog.serialize]: the straightforward renderer,
   one [Buffer] and one [string_of_int] per integer, reading the
   constraint path as an array. [events] are each branch event's id and
   whether it kept a constraint, oldest first. *)
let buffer_serialize events kept =
  let buf = Buffer.create 256 in
  let next = ref 0 in
  List.iter
    (fun (branch, has_constr) ->
      Buffer.add_string buf (string_of_int branch);
      if has_constr then begin
        let c = snd kept.(!next) in
        incr next;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (Smt.Constr.rel_to_string c.Smt.Constr.rel);
        List.iter
          (fun (coeff, var) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int coeff);
            Buffer.add_char buf '*';
            Buffer.add_string buf (string_of_int var))
          (Smt.Linexp.terms c.Smt.Constr.exp);
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int (Smt.Linexp.constant c.Smt.Constr.exp))
      end;
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* One np-4 execution of [target] with default inputs and every rank
   heavily instrumented, as in a one-way run: rank 0's log plays the
   focus log, ranks 1-3's the one-way heavy logs. Inputs and MPI
   semantics values are symbolic. Each log comes with its event stream,
   oldest first, for the oracle. *)
let heavy_executions ~reduce target =
  let info = Targets.Registry.instrument target in
  let nprocs = 4 in
  let logs = Array.init nprocs (fun _ -> Pathlog.create ~reduce) in
  let events = Array.make nprocs [] in
  let gen = Smt.Varid.make_gen () in
  let fresh _ _ = Some (Smt.Linexp.var (Smt.Varid.fresh gen)) in
  let sched =
    Mpisim.Scheduler.run ~nprocs (fun ~rank ~mpi ->
        let log = logs.(rank) in
        let on_branch ~id ~taken ~constr =
          let before = Pathlog.constraint_count log in
          Pathlog.record log ~cond_id:id ~taken ~constr;
          events.(rank) <-
            (Minic.Branchinfo.branch_of_cond id taken, Pathlog.constraint_count log > before)
            :: events.(rank)
        in
        Minic.Interp.run
          {
            (Minic.Interp.plain_hooks ~mpi ()) with
            Minic.Interp.mode = Minic.Interp.Heavy;
            on_input = fresh;
            on_mpi_sem = fresh;
            on_branch;
          }
          info.Minic.Branchinfo.program)
  in
  Alcotest.(check bool) "every rank finished" true
    (Array.for_all Result.is_ok sched.Mpisim.Scheduler.outcomes);
  List.init nprocs (fun rank -> (logs.(rank), List.rev events.(rank)))

let test_pathlog_serialize_matches_buffer_oracle () =
  List.iter
    (fun target ->
      List.iter
        (fun reduce ->
          List.iteri
            (fun rank (log, events) ->
              let what =
                Printf.sprintf "%s rank %d %s" target.Targets.Registry.name rank
                  (if reduce then "reduced" else "unreduced")
              in
              Alcotest.(check bool) (what ^ ": symbolic") true
                (Pathlog.constraint_count log > 0);
              Alcotest.(check string) what
                (buffer_serialize events (Pathlog.constraints log))
                (Pathlog.serialize log))
            (heavy_executions ~reduce target))
        [ true; false ])
    Targets.[ Susy_hmc.target; Hpl.target; Npb_cg.target; Imb_mpi1.target ]

let test_runner_platform_limit () =
  let info = Lazy.force fig2_info in
  let config =
    { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 99; max_procs = 16 }
  in
  match Compi.Runner.run config with
  | Error (`Platform_limit 99) -> ()
  | Error (`Platform_limit n) -> Alcotest.failf "wrong limit %d" n
  | Ok _ -> Alcotest.fail "expected platform limit"

let test_runner_auto_marking () =
  (* fig2 reads rank and size from MPI_COMM_WORLD: the symbol table must
     contain one rw and one sw variable automatically. *)
  let info = Lazy.force fig2_info in
  let config = { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 3 } in
  match Compi.Runner.run config with
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
  | Ok res ->
    let tab = res.Compi.Runner.execution.Execution.symtab in
    Alcotest.(check int) "one rw" 1 (List.length (Compi.Mpi_sem.rw_vars tab));
    Alcotest.(check int) "one sw" 1 (List.length (Compi.Mpi_sem.sw_vars tab));
    Alcotest.(check bool) "inherent constraints present" true
      (res.Compi.Runner.execution.Execution.extra <> [])

let test_runner_no_marking_when_disabled () =
  let info = Lazy.force fig2_info in
  let config =
    { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 3; mark_mpi_sem = false }
  in
  match Compi.Runner.run config with
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
  | Ok res ->
    let tab = res.Compi.Runner.execution.Execution.symtab in
    Alcotest.(check int) "no rw" 0 (List.length (Compi.Mpi_sem.rw_vars tab));
    Alcotest.(check int) "no sw" 0 (List.length (Compi.Mpi_sem.sw_vars tab))

let test_runner_inputs_respected () =
  let info = Lazy.force fig2_info in
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs = 2;
      inputs = [ ("x", 7); ("y", 3) ];
    }
  in
  match Compi.Runner.run config with
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
  | Ok res ->
    let tab = res.Compi.Runner.execution.Execution.symtab in
    (match Symtab.find_input tab "x" with
    | Some e -> Alcotest.(check int) "x concrete" 7 e.Symtab.concrete
    | None -> Alcotest.fail "x not marked");
    Alcotest.(check bool) "no faults" true (Compi.Runner.faults res = [])

(* Rank 1 calls a function per input value it reads; rank 0, the focus,
   calls none. Conditionals are numbered depth-first in program order:
   0 [rank = 1], 1 [a = 3], 2 [a = 4], 3 [b = 9]. *)
let input_probe_info =
  lazy
    (let open Minic in
     let open Builder in
     Branchinfo.instrument
       (Check.check_exn
          (program
             [
               func "main" []
                 [
                   input ~default:5 "a";
                   input ~default:9 "b";
                   decl "rank" (i 0);
                   comm_rank Ast.World "rank";
                   if_
                     (v "rank" =: i 1)
                     [
                       if_ (v "a" =: i 3) [ call "first" []; call "first" [] ] [];
                       if_ (v "a" =: i 4) [ call "second" [] ] [];
                       if_ (v "b" =: i 9) [ call "dflt" []; call "first" [] ] [];
                     ]
                     [];
                 ];
               func "first" [] [];
               func "second" [] [];
               func "dflt" [] [];
             ])))

(* Every rank reads the run's one input table: a duplicated name takes
   its first binding and an absent one its declared default, in the
   focus's symbolic record and in a light rank's calls alike. The
   coverage is the union over ranks with all-recorders and the focus's
   own without, exactly. *)
let test_runner_input_table_and_coverage () =
  let info = Lazy.force input_probe_info in
  List.iter
    (fun mode ->
      let name = Compi.Runner.exec_mode_name mode in
      let run record_all =
        let config =
          {
            (Compi.Runner.default_config ~info) with
            Compi.Runner.nprocs = 2;
            focus = 0;
            record_all;
            inputs = [ ("a", 3); ("a", 4) ];
            compiled = Compi.Runner.prepare mode info;
          }
        in
        match Compi.Runner.run config with
        | Ok res -> res
        | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
      in
      let all = run true and focus_only = run false in
      let tab = all.Compi.Runner.execution.Execution.symtab in
      let concrete input =
        match Symtab.find_input tab input with
        | Some e -> e.Symtab.concrete
        | None -> Alcotest.failf "%s: %s not marked" name input
      in
      Alcotest.(check int) (name ^ ": first binding wins") 3 (concrete "a");
      Alcotest.(check int) (name ^ ": absent input takes its default") 9 (concrete "b");
      let check_cov what ~branches ~funcs cov =
        Alcotest.(check (list int))
          (Printf.sprintf "%s, %s: branches" name what)
          branches (Coverage.branch_list cov);
        Alcotest.(check (list string))
          (Printf.sprintf "%s, %s: functions" name what)
          funcs
          (Coverage.encountered_functions cov)
      in
      check_cov "all recorders" ~branches:[ 0; 1; 2; 5; 6 ]
        ~funcs:[ "dflt"; "first"; "main" ] all.Compi.Runner.coverage;
      check_cov "focus only" ~branches:[ 1 ] ~funcs:[ "main" ]
        focus_only.Compi.Runner.coverage)
    [ Compi.Runner.Exec_compiled; Compi.Runner.Exec_interp ]

(* ------------------------------------------------------------------ *)
(* Campaign end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let quick_settings iters =
  {
    Compi.Driver.default_settings with
    Compi.Driver.iterations = iters;
    dfs_phase_iters = 5;
    initial_nprocs = 4;
    seed = 7;
  }

let campaign settings info =
  let settings = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  (Compi.Campaign.run ~settings info).Compi.Campaign.summary

let test_campaign_full_coverage_fig1 () =
  let info = Targets.Registry.instrument Targets.Toy.fig1 in
  let r = campaign (quick_settings 30) info in
  Alcotest.(check int) "100%% of fig1" 4 r.Compi.Driver.covered_branches;
  (* every bug carries the focus's failure context, ending at the buggy
     conditional's true side (cond 0, x == 100) *)
  List.iter
    (fun (b : Compi.Driver.bug) ->
      match List.rev b.Compi.Driver.bug_context with
      | (cond, taken) :: _ ->
        Alcotest.(check (pair int bool)) "context ends at the bug" (0, true) (cond, taken)
      | [] -> Alcotest.fail "bug without context")
    r.Compi.Driver.bugs;
  Alcotest.(check bool) "finds the hidden bug" true
    (List.exists
       (fun (b : Compi.Driver.bug) ->
         match b.Compi.Driver.bug_fault with
         | Minic.Fault.Abort_called _ -> true
         | _ -> false)
       r.Compi.Driver.bugs)

let test_campaign_beats_random_on_fig2 () =
  let info = Lazy.force fig2_info in
  let compi = campaign (quick_settings 60) info in
  let random = Compi.Random_testing.run ~settings:(quick_settings 60) info in
  Alcotest.(check bool) "compi >= random coverage" true
    (compi.Compi.Driver.covered_branches >= random.Compi.Driver.covered_branches);
  Alcotest.(check bool) "compi nearly complete" true
    (compi.Compi.Driver.covered_branches >= 14)

let test_campaign_framework_varies_focus () =
  (* fig2 branches on rank: negating rank = 0 must shift the focus *)
  let info = Lazy.force fig2_info in
  let r = campaign (quick_settings 60) info in
  let focus_seen =
    List.sort_uniq Int.compare
      (List.map (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.focus) r.Compi.Driver.stats)
  in
  Alcotest.(check bool) "multiple focus processes tried" true (List.length focus_seen > 1)

let test_campaign_framework_varies_nprocs () =
  (* susy-hmc branches on size (nt >= size, size == 1, size == 2, ...):
     the framework must end up varying the process count *)
  let info = Targets.Registry.instrument Targets.Susy_hmc.target in
  let settings = { (quick_settings 120) with Compi.Driver.dfs_phase_iters = 30 } in
  let r = campaign settings info in
  let nprocs_seen =
    List.sort_uniq Int.compare
      (List.map (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.nprocs) r.Compi.Driver.stats)
  in
  Alcotest.(check bool) "multiple process counts tried" true (List.length nprocs_seen > 1)

let test_campaign_no_fwk_fixed_nprocs () =
  let info = Lazy.force fig2_info in
  let settings = { (quick_settings 40) with Compi.Driver.framework = false } in
  let r = campaign settings info in
  let nprocs_seen =
    List.sort_uniq Int.compare
      (List.map (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.nprocs) r.Compi.Driver.stats)
  in
  Alcotest.(check (list int)) "always the initial count" [ 4 ] nprocs_seen

let test_campaign_two_phase_derives_bound () =
  let info = Lazy.force fig2_info in
  let r = campaign (quick_settings 20) info in
  match r.Compi.Driver.derived_bound with
  | Some b -> Alcotest.(check bool) "bound above observed max" true (b > r.Compi.Driver.max_constraint_set / 2)
  | None -> Alcotest.fail "two-phase should derive a bound"

let test_campaign_time_budget_respected () =
  let info = Targets.Registry.instrument Targets.Susy_hmc.target in
  let settings =
    { (quick_settings max_int) with Compi.Driver.time_budget = Some 0.5; iterations = max_int }
  in
  let t0 = Unix.gettimeofday () in
  let r = campaign settings info in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stopped within ~3x budget" true (elapsed < 1.5);
  Alcotest.(check bool) "ran some iterations" true (r.Compi.Driver.iterations_run > 0)

let test_campaign_distinct_bugs_dedupe () =
  let info = Targets.Registry.instrument Targets.Toy.fig1 in
  let r = campaign (quick_settings 30) info in
  let distinct = Compi.Driver.distinct_bugs r in
  let keys = List.map Compi.Driver.bug_key distinct in
  Alcotest.(check int) "unique keys" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_focus_shift_end_to_end () =
  (* The paper's Figure 3 walkthrough: run fig2, find the rank = 0
     constraint on the focus's path, negate it, solve with the inherent
     MPI constraints, and check conflict resolution derives a non-zero
     focus for the next test. *)
  let info = Lazy.force fig2_info in
  let config = { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 4 } in
  match Compi.Runner.run config with
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
  | Ok res -> (
    let ex = res.Compi.Runner.execution in
    let rw =
      match Compi.Mpi_sem.rw_vars ex.Execution.symtab with
      | e :: _ -> e.Symtab.var
      | [] -> Alcotest.fail "no rw variable marked"
    in
    (* find the path position whose constraint mentions the rw var *)
    let position = ref None in
    for idx = 0 to Execution.length ex - 1 do
      if
        !position = None
        && Smt.Varid.Set.mem rw (Smt.Constr.vars (Execution.constr_at ex idx))
      then position := Some idx
    done;
    match !position with
    | None -> Alcotest.fail "no rank-dependent constraint on the path"
    | Some idx -> (
      match Execution.solve_negation ex idx with
      | Error _ -> Alcotest.fail "rank negation should be satisfiable"
      | Ok solved ->
        let d =
          Compi.Conflict.resolve ~prev_nprocs:4 ~prev_focus:0
            ~mapping:ex.Execution.mapping ~symtab:ex.Execution.symtab ~result:solved
        in
        Alcotest.(check bool) "focus moved off rank 0" true (d.Compi.Conflict.focus <> 0);
        Alcotest.(check bool) "focus within bounds" true
          (d.Compi.Conflict.focus >= 0 && d.Compi.Conflict.focus < d.Compi.Conflict.nprocs)))

let test_campaign_deterministic_given_seed () =
  let info = Lazy.force fig2_info in
  let run () = campaign (quick_settings 40) info in
  let a = run () and b = run () in
  Alcotest.(check int) "same coverage" a.Compi.Driver.covered_branches
    b.Compi.Driver.covered_branches;
  Alcotest.(check int) "same iterations" a.Compi.Driver.iterations_run
    b.Compi.Driver.iterations_run;
  Alcotest.(check (list int)) "same per-iteration nprocs"
    (List.map (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.nprocs) a.Compi.Driver.stats)
    (List.map (fun (s : Compi.Driver.iter_stat) -> s.Compi.Driver.nprocs) b.Compi.Driver.stats)

let test_runner_one_way_same_coverage () =
  (* instrumentation mode must not change WHAT is covered, only cost *)
  let info = Lazy.force fig2_info in
  let cover two_way =
    let config =
      {
        (Compi.Runner.default_config ~info) with
        Compi.Runner.nprocs = 4;
        inputs = [ ("x", 10); ("y", 150) ];
        two_way;
      }
    in
    match Compi.Runner.run config with
    | Ok res -> Concolic.Coverage.branch_list res.Compi.Runner.coverage
    | Error _ -> Alcotest.fail "run failed"
  in
  Alcotest.(check (list int)) "identical coverage" (cover true) (cover false)

let test_variants_apply () =
  let base = Compi.Driver.default_settings in
  let nr = Compi.Variants.apply (Compi.Variants.No_reduction_bounded 300) base in
  Alcotest.(check bool) "reduce off" false nr.Compi.Driver.reduce;
  Alcotest.(check (option int)) "bound set" (Some 300) nr.Compi.Driver.depth_bound;
  let nf = Compi.Variants.apply Compi.Variants.No_framework base in
  Alcotest.(check bool) "framework off" false nf.Compi.Driver.framework;
  Alcotest.(check bool) "reduce untouched" true nf.Compi.Driver.reduce;
  let ow = Compi.Variants.apply Compi.Variants.One_way base in
  Alcotest.(check bool) "two-way off" false ow.Compi.Driver.two_way;
  Alcotest.(check string) "names distinct" "no-fwk" (Compi.Variants.name Compi.Variants.No_framework)

(* ------------------------------------------------------------------ *)
(* Testcase store and report                                           *)
(* ------------------------------------------------------------------ *)

let test_testcase_roundtrip () =
  let case =
    {
      Compi.Testcase.target = "susy-hmc";
      nprocs = 2;
      focus = 1;
      inputs = [ ("nx", 2); ("nz", 2) ];
      fault = Some "floating-point-exception";
    }
  in
  match Compi.Testcase.of_string (Compi.Testcase.to_string case) with
  | Ok parsed ->
    Alcotest.(check string) "target" case.Compi.Testcase.target
      parsed.Compi.Testcase.target;
    Alcotest.(check int) "nprocs" 2 parsed.Compi.Testcase.nprocs;
    Alcotest.(check (list (pair string int))) "inputs" case.Compi.Testcase.inputs
      parsed.Compi.Testcase.inputs;
    Alcotest.(check (option string)) "fault" case.Compi.Testcase.fault
      parsed.Compi.Testcase.fault
  | Error e -> Alcotest.fail e

let test_testcase_save_load () =
  let path = Filename.temp_file "compi" ".cases" in
  let mk k =
    {
      Compi.Testcase.target = "toy-fig1";
      nprocs = k;
      focus = 0;
      inputs = [ ("x", 100 + k) ];
      fault = None;
    }
  in
  Compi.Testcase.save ~path [ mk 1; mk 2; mk 3 ];
  (match Compi.Testcase.load ~path with
  | Ok cases ->
    Alcotest.(check int) "three cases" 3 (List.length cases);
    Alcotest.(check int) "second nprocs" 2 (List.nth cases 1).Compi.Testcase.nprocs
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_testcase_rejects_garbage () =
  (match Compi.Testcase.of_string "nonsense without colon" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject");
  match Compi.Testcase.of_string "nprocs: 4" with
  | Error _ -> ()  (* missing target *)
  | Ok _ -> Alcotest.fail "should reject missing target"

let test_testcase_replay_reproduces_bug () =
  let info = Targets.Registry.instrument Targets.Toy.fig1 in
  let case =
    {
      Compi.Testcase.target = "toy-fig1";
      nprocs = 1;
      focus = 0;
      inputs = [ ("x", 100); ("y", 50) ];
      fault = Some "abort";
    }
  in
  match Compi.Testcase.replay case ~info () with
  | Ok ((_, Minic.Fault.Abort_called _) :: _) -> ()
  | Ok faults -> Alcotest.failf "wrong faults (%d)" (List.length faults)
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"

let test_report_uncovered_and_annotate () =
  let info = Lazy.force fig2_info in
  let r = campaign (quick_settings 60) info in
  let misses = Compi.Report.uncovered info r.Compi.Driver.coverage in
  (* fig2's [total > 0] false side is infeasible (sanity forces x > 0),
     so exactly that branch remains *)
  Alcotest.(check int) "one uncovered branch" 1 (List.length misses);
  (match misses with
  | [ (_, dir, func) ] ->
    Alcotest.(check bool) "false side" false dir;
    Alcotest.(check string) "in main" "main" func
  | _ -> Alcotest.fail "unexpected");
  let listing = Compi.Report.annotate info r.Compi.Driver.coverage in
  let contains needle =
    let nh = String.length listing and nn = String.length needle in
    let rec go k = k + nn <= nh && (String.sub listing k nn = needle || go (k + 1)) in
    go 0
  in
  Alcotest.(check bool) "covered marker present" true (contains "T+ F+");
  Alcotest.(check bool) "uncovered marker present" true (contains "F-")

let test_runner_reports_leaks () =
  (* rank 1 sends a message nobody receives *)
  let open Minic in
  let open Builder in
  let p =
    program
      [
        func "main" []
          [
            decl "rank" (i 0);
            comm_rank Ast.World "rank";
            if_ (v "rank" =: i 1) [ send ~dest:(i 0) ~tag:(i 3) (i 42) ] [];
          ];
      ]
  in
  let info = Branchinfo.instrument (Check.check_exn p) in
  let config = { (Compi.Runner.default_config ~info) with Compi.Runner.nprocs = 2 } in
  match Compi.Runner.run config with
  | Ok res -> Alcotest.(check int) "one leaked message" 1 res.Compi.Runner.leaked_messages
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"

let test_report_outputs () =
  let info = Targets.Registry.instrument Targets.Toy.fig1 in
  let r = campaign (quick_settings 20) info in
  let csv = Compi.Report.stats_csv r in
  Alcotest.(check bool) "csv has header + rows" true
    (List.length (String.split_on_char '\n' csv) > r.Compi.Driver.iterations_run);
  let curve = Compi.Report.coverage_curve ~points:5 r in
  Alcotest.(check bool) "curve non-empty" true (curve <> []);
  Alcotest.(check bool) "curve monotone" true
    (let covs = List.map snd curve in
     List.sort compare covs = covs);
  let ascii =
    Obs.Fold.ascii_curve
      (List.map
         (fun st -> (st.Compi.Driver.iteration, st.Compi.Driver.covered_after))
         r.Compi.Driver.stats)
  in
  Alcotest.(check bool) "ascii plot drawn" true (String.length ascii > 100);
  let bugs_csv = Compi.Report.bugs_csv r in
  Alcotest.(check bool) "bug csv mentions abort" true
    (List.exists
       (fun line ->
         List.exists (fun f -> f = "abort") (String.split_on_char ',' line))
       (String.split_on_char '\n' bugs_csv))

let unit_tests =
  [
    ("mpi_sem families", `Quick, test_mpi_sem_families);
    ("mpi_sem empty", `Quick, test_mpi_sem_empty);
    ("conflict rc via Table II (fig 5)", `Quick, test_conflict_rc_translates_via_table2);
    ("conflict rw priority", `Quick, test_conflict_rw_takes_priority);
    ("conflict stale ignored", `Quick, test_conflict_stale_values_ignored);
    ("conflict nprocs from sw", `Quick, test_conflict_nprocs_from_sw);
    ("runner all recorders", `Quick, test_runner_records_all_processes);
    ("runner two-way log sizes", `Quick, test_runner_two_way_log_sizes);
    ("runner log read-back checked", `Quick, test_runner_log_read_back_checked);
    ("pathlog serialize = Buffer renderer", `Quick, test_pathlog_serialize_matches_buffer_oracle);
    ("runner platform limit", `Quick, test_runner_platform_limit);
    ("runner auto marking", `Quick, test_runner_auto_marking);
    ("runner marking disabled", `Quick, test_runner_no_marking_when_disabled);
    ("runner inputs respected", `Quick, test_runner_inputs_respected);
    ("runner input table and coverage", `Quick, test_runner_input_table_and_coverage);
    ("driver fig1 complete + bug", `Quick, test_campaign_full_coverage_fig1);
    ("driver beats random (fig2)", `Quick, test_campaign_beats_random_on_fig2);
    ("driver varies focus", `Quick, test_campaign_framework_varies_focus);
    ("driver varies nprocs", `Quick, test_campaign_framework_varies_nprocs);
    ("driver No_Fwk fixed nprocs", `Quick, test_campaign_no_fwk_fixed_nprocs);
    ("driver two-phase bound", `Quick, test_campaign_two_phase_derives_bound);
    ("driver time budget", `Quick, test_campaign_time_budget_respected);
    ("driver bug dedupe", `Quick, test_campaign_distinct_bugs_dedupe);
    ("focus shift end-to-end (fig 3)", `Quick, test_focus_shift_end_to_end);
    ("driver deterministic", `Quick, test_campaign_deterministic_given_seed);
    ("runner one-way same coverage", `Quick, test_runner_one_way_same_coverage);
    ("variants apply", `Quick, test_variants_apply);
    ("testcase roundtrip", `Quick, test_testcase_roundtrip);
    ("testcase save/load", `Quick, test_testcase_save_load);
    ("testcase rejects garbage", `Quick, test_testcase_rejects_garbage);
    ("testcase replay bug", `Quick, test_testcase_replay_reproduces_bug);
    ("report outputs", `Quick, test_report_outputs);
    ("report uncovered/annotate", `Quick, test_report_uncovered_and_annotate);
    ("runner reports message leaks", `Quick, test_runner_reports_leaks);
  ]

let suite = [ ("compi:unit", unit_tests) ]
