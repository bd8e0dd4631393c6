(* Checkpoint subsystem: the headline guarantee (an interrupted-and-
   resumed campaign reports byte-identically to an uninterrupted one,
   at any worker count), snapshot save/load round-trips, the load-error
   taxonomy on damaged files, and settings fingerprinting. *)

let tmp_counter = ref 0

(* A fresh per-test scratch directory; Checkpoint.save creates it. *)
let fresh_dir () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "compi-ckpt-test-%d-%d" (Unix.getpid ()) !tmp_counter)

let campaign ?(jobs = 1) ?(iterations = 30) ?(seed = 11) ?checkpoint ?(every = 5)
    ?(resume = false) info =
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations;
          dfs_phase_iters = 8;
          initial_nprocs = 2;
          seed;
        };
      jobs;
      batch = 3;
      checkpoint;
      checkpoint_every = every;
      resume;
    }
  in
  Compi.Campaign.run ~settings ~label:"toy-fig1" info

let toy () = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig1")

(* --- the determinism guarantee ------------------------------------- *)

let test_resume_equals_uninterrupted () =
  let info = toy () in
  let full = campaign ~iterations:30 info in
  let dir = fresh_dir () in
  let part = campaign ~iterations:13 ~checkpoint:dir info in
  Alcotest.(check bool)
    "interrupted run wrote snapshots" true
    (part.Compi.Campaign.checkpoints_written > 0);
  Alcotest.(check bool)
    "budget stop is not an interruption" false part.Compi.Campaign.interrupted;
  let resumed = campaign ~iterations:30 ~checkpoint:dir ~resume:true info in
  Alcotest.(check string)
    "resumed report equals uninterrupted"
    (Compi.Campaign.coverage_report full)
    (Compi.Campaign.coverage_report resumed);
  (* solver and cache counts are over merged attempts, so the tail the
     snapshot re-dispatches is counted once *)
  Alcotest.(check int)
    "resumed solver calls equal uninterrupted" full.Compi.Campaign.solver_calls
    resumed.Compi.Campaign.solver_calls;
  let hits_misses (r : Compi.Campaign.result) =
    Option.map (fun cs -> (cs.Smt.Cache.hits, cs.Smt.Cache.misses)) r.Compi.Campaign.cache
  in
  Alcotest.(check (option (pair int int)))
    "resumed cache hits and misses equal uninterrupted" (hits_misses full)
    (hits_misses resumed);
  (* the per-test stats come from the restored fold: equal but for the
     wall-clock times *)
  let stats (r : Compi.Campaign.result) =
    List.map
      (fun (st : Compi.Driver.iter_stat) ->
        { st with Compi.Driver.exec_time = 0.0; solve_time = 0.0 })
      r.Compi.Campaign.summary.Compi.Driver.stats
  in
  Alcotest.(check bool) "resumed stats equal uninterrupted" true (stats full = stats resumed);
  let summary (r : Compi.Campaign.result) = r.Compi.Campaign.summary in
  Alcotest.(check int)
    "resumed max constraint set equals uninterrupted"
    (summary full).Compi.Driver.max_constraint_set
    (summary resumed).Compi.Driver.max_constraint_set;
  Alcotest.(check (option int))
    "resumed derived bound equals uninterrupted" (summary full).Compi.Driver.derived_bound
    (summary resumed).Compi.Driver.derived_bound;
  let bug_keys (r : Compi.Campaign.result) =
    List.map Compi.Driver.bug_key (summary r).Compi.Driver.bugs
  in
  Alcotest.(check (list string))
    "resumed bug keys equal uninterrupted" (bug_keys full) (bug_keys resumed);
  Alcotest.(check int)
    "resumed executed equals uninterrupted" full.Compi.Campaign.executed
    resumed.Compi.Campaign.executed;
  (* the cut falls mid-round: the resumed tail finishes a round the
     snapshot already counted *)
  Alcotest.(check int)
    "resumed rounds equal uninterrupted" full.Compi.Campaign.rounds
    resumed.Compi.Campaign.rounds

let test_resume_across_job_counts () =
  (* interrupt at jobs=2, resume at jobs=1; compare against an
     uninterrupted jobs=2 run — neither the cut nor the worker count
     may show up in the report *)
  let info = toy () in
  let full = campaign ~jobs:2 ~iterations:30 info in
  let dir = fresh_dir () in
  let _ = campaign ~jobs:2 ~iterations:13 ~checkpoint:dir info in
  let resumed =
    campaign ~jobs:1 ~iterations:30 ~checkpoint:dir ~resume:true info
  in
  Alcotest.(check string)
    "kill at jobs=2, resume at jobs=1"
    (Compi.Campaign.coverage_report full)
    (Compi.Campaign.coverage_report resumed)

let test_resume_same_budget_is_noop () =
  let info = toy () in
  let dir = fresh_dir () in
  let first = campaign ~iterations:20 ~checkpoint:dir info in
  let again = campaign ~iterations:20 ~checkpoint:dir ~resume:true info in
  Alcotest.(check string)
    "re-running at the same budget replays the finished report"
    (Compi.Campaign.coverage_report first)
    (Compi.Campaign.coverage_report again);
  (* [executed] is cumulative across the checkpoint, so a no-op resume
     reports the first run's count — and not one execution more *)
  Alcotest.(check int)
    "no extra executions" first.Compi.Campaign.executed
    again.Compi.Campaign.executed

(* The ledger record of a resumed run equals the uninterrupted run's:
   it reads the campaign's own event fold, which the snapshot carries.
   Schedule mode, so the schedule-fork count is part of what must
   survive the cut. *)
let test_resume_equals_uninterrupted_ledger () =
  let t = Targets.Catalog.find_exn "wc-race" in
  let info = Targets.Registry.instrument t in
  let tn = t.Targets.Registry.tuning in
  let run ~iterations ?checkpoint ?(resume = false) ~ledger () =
    let settings =
      {
        Compi.Campaign.default_settings with
        Compi.Campaign.base =
          {
            Compi.Driver.default_settings with
            Compi.Driver.iterations;
            dfs_phase_iters = tn.Targets.Registry.dfs_phase;
            initial_nprocs = tn.Targets.Registry.initial_nprocs;
            step_limit = tn.Targets.Registry.step_limit;
            schedules = true;
            seed = 3;
          };
        checkpoint;
        checkpoint_every = 10;
        resume;
        ledger;
      }
    in
    ignore (Compi.Campaign.run ~settings ~label:"wc-race" info)
  in
  let file () =
    let dir = fresh_dir () in
    Unix.mkdir dir 0o755;
    Filename.concat dir "ledger.jsonl"
  in
  let full_ledger = file () in
  run ~iterations:60 ~ledger:(Some full_ledger) ();
  let cut_ledger = file () in
  let dir = fresh_dir () in
  run ~iterations:30 ~checkpoint:dir ~ledger:None ();
  run ~iterations:60 ~checkpoint:dir ~resume:true ~ledger:(Some cut_ledger) ();
  let ledger path =
    match Obs.Ledger.load path with
    | Ok { Obs.Ledger.records = [ r ]; _ } ->
      Obs.Json.to_string (Obs.Ledger.to_json { r with Obs.Ledger.run = ""; wall_s = 0.0 })
    | Ok _ -> Alcotest.failf "ledger %s: expected one record" path
    | Error e -> Alcotest.failf "ledger %s: %s" path e
  in
  Alcotest.(check string)
    "resumed ledger record equals uninterrupted" (ledger full_ledger) (ledger cut_ledger)

(* --- snapshot round-trip ------------------------------------------- *)

let test_snapshot_roundtrip () =
  let info = toy () in
  let dir = fresh_dir () in
  let _ = campaign ~iterations:13 ~checkpoint:dir info in
  match Compi.Checkpoint.load ~dir with
  | Error e -> Alcotest.failf "load: %s" (Compi.Checkpoint.error_to_string e)
  | Ok snap ->
    Alcotest.(check int) "iter restored" 13 snap.Compi.Checkpoint.iter;
    let dir2 = fresh_dir () in
    let bytes = Compi.Checkpoint.save ~dir:dir2 ~target:"toy-fig1" snap in
    Alcotest.(check bool) "payload nonempty" true (bytes > 0);
    (* the executed count is the fold's test count *)
    let executed (st : Compi.Checkpoint.state) =
      List.length (Obs.Fold.finish st.Compi.Checkpoint.fold).Obs.Fold.tests
    in
    (match Compi.Checkpoint.load ~dir:dir2 with
    | Error e -> Alcotest.failf "reload: %s" (Compi.Checkpoint.error_to_string e)
    | Ok snap2 ->
      Alcotest.(check int) "iter survives" snap.Compi.Checkpoint.iter
        snap2.Compi.Checkpoint.iter;
      Alcotest.(check int) "executed survives" (executed snap) (executed snap2);
      Alcotest.(check int) "work tail length survives"
        (List.length snap.Compi.Checkpoint.work)
        (List.length snap2.Compi.Checkpoint.work);
      Alcotest.(check (list (pair string string)))
        "fingerprint survives" snap.Compi.Checkpoint.fingerprint
        snap2.Compi.Checkpoint.fingerprint);
    (* the bug corpus rides along as human-readable test cases *)
    (match Compi.Testcase.load ~path:(Compi.Checkpoint.corpus_file ~dir:dir2) with
    | Error e -> Alcotest.failf "corpus: %s" e
    | Ok cases ->
      Alcotest.(check int)
        "corpus mirrors the snapshot's bugs"
        (List.length snap.Compi.Checkpoint.bugs)
        (List.length cases))

(* --- load-error taxonomy ------------------------------------------- *)

let expect_error name pred = function
  | Ok _ -> Alcotest.failf "%s: expected a load error" name
  | Error e ->
    if not (pred e) then
      Alcotest.failf "%s: wrong error: %s" name (Compi.Checkpoint.error_to_string e);
    Alcotest.(check bool)
      (name ^ ": diagnostic nonempty") true
      (String.length (Compi.Checkpoint.error_to_string e) > 0)

(* Write [content] as dir/campaign.ckpt, creating dir. *)
let plant dir content =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin (Compi.Checkpoint.file ~dir) (fun oc ->
      Out_channel.output_string oc content)

let real_checkpoint_bytes () =
  let dir = fresh_dir () in
  let _ = campaign ~iterations:13 ~checkpoint:dir (toy ()) in
  In_channel.with_open_bin (Compi.Checkpoint.file ~dir) In_channel.input_all

let test_load_missing () =
  expect_error "missing dir"
    (function Compi.Checkpoint.No_checkpoint _ -> true | _ -> false)
    (Compi.Checkpoint.load ~dir:(fresh_dir ()))

let test_load_garbage () =
  let dir = fresh_dir () in
  plant dir "definitely not a checkpoint\nmore noise\n";
  expect_error "garbage file"
    (function Compi.Checkpoint.Bad_magic _ -> true | _ -> false)
    (Compi.Checkpoint.load ~dir)

(* A future version, and v5, whose coverage is a balanced set and
   not the byte map this build would unmarshal it as: both must be
   refused, not misread. *)
let test_load_version_mismatch () =
  let raw = real_checkpoint_bytes () in
  let nl = String.index raw '\n' in
  List.iter
    (fun v ->
      let dir = fresh_dir () in
      plant dir (Printf.sprintf "COMPI-CKPT %d%s" v (String.sub raw nl (String.length raw - nl)));
      expect_error
        (Printf.sprintf "version %d" v)
        (function
          | Compi.Checkpoint.Version_mismatch { found; expected } ->
            found = v && expected = Compi.Checkpoint.version
          | _ -> false)
        (Compi.Checkpoint.load ~dir))
    [ Compi.Checkpoint.version + 41; 5 ]

let test_load_truncated () =
  let raw = real_checkpoint_bytes () in
  let dir = fresh_dir () in
  (* a SIGKILL mid-write on a non-atomic filesystem: tail cut off *)
  plant dir (String.sub raw 0 (String.length raw - 7));
  expect_error "truncated payload"
    (function Compi.Checkpoint.Truncated _ -> true | _ -> false)
    (Compi.Checkpoint.load ~dir)

let test_load_corrupted () =
  let raw = real_checkpoint_bytes () in
  let b = Bytes.of_string raw in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
  let dir = fresh_dir () in
  plant dir (Bytes.to_string b);
  expect_error "flipped payload byte"
    (function Compi.Checkpoint.Checksum_mismatch -> true | _ -> false)
    (Compi.Checkpoint.load ~dir)

(* --- settings fingerprint ------------------------------------------ *)

let test_resume_rejects_other_seed () =
  let info = toy () in
  let dir = fresh_dir () in
  let _ = campaign ~iterations:13 ~seed:11 ~checkpoint:dir info in
  match campaign ~iterations:30 ~seed:12 ~checkpoint:dir ~resume:true info with
  | _ -> Alcotest.fail "resume under a different seed must be refused"
  | exception
      Compi.Checkpoint.Load_error
        (Compi.Checkpoint.Settings_mismatch [ ("seed", "11", "12") ]) ->
    ()

let test_mismatches () =
  let stored = [ ("a", "1"); ("b", "2") ] in
  let current = [ ("a", "1"); ("b", "3"); ("c", "4") ] in
  Alcotest.(check (list (triple string string string)))
    "divergent and missing keys reported"
    [ ("b", "2", "3"); ("c", "<absent>", "4") ]
    (Compi.Checkpoint.mismatches ~stored ~current)

(* --- layout guard ---------------------------------------------------- *)

(* A small state from fixed values that reaches the nested types a
   snapshot marshals: an execution with its closure index built, a
   cache holding a key with each verdict, coverage, a folded [test]
   event, a bug, the strategy and both kinds of work item. Its
   marshalled bytes change exactly when one of those layouts (or this
   probe) changes. *)
let probe_state () =
  let open Smt in
  let tab = Concolic.Symtab.create () in
  let x = Concolic.Symtab.fresh_input tab ~name:"x" ~concrete:3 () in
  let y = Concolic.Symtab.fresh_input tab ~name:"y" ~concrete:4 () in
  let record =
    {
      Concolic.Execution.constraints =
        [|
          (0, Constr.make (Linexp.of_terms [ (1, x) ] 0) Constr.Gt);
          (2, Constr.cmp (Linexp.var y) Constr.Gt (Linexp.var x));
        |];
      symtab = tab;
      model = Concolic.Symtab.model tab;
      domains = Concolic.Symtab.domains tab;
      extra = [ Constr.make (Linexp.of_terms [ (1, y) ] (-1)) Constr.Ge ];
      nprocs = 2;
      focus = 0;
      mapping = [ (0, [| 0; 1 |]) ];
      exec_id = 0;
      exec_schedule = [];
      closure_index = None;
    }
  in
  let cache = Cache.create ~capacity:4 () in
  Cache.add cache
    (Concolic.Execution.prepared_key (Concolic.Execution.prepare_negation record 1))
    Cache.Unsat;
  Cache.add cache
    (Concolic.Execution.prepared_key (Concolic.Execution.prepare_negation record 0))
    (Cache.Sat (Model.of_bindings [ (x, 0) ]));
  let coverage = Concolic.Coverage.create () in
  Concolic.Coverage.add_branch coverage 3;
  Concolic.Coverage.add_func coverage "main";
  let strategy = Concolic.Strategy.create ~seed:1 (Concolic.Strategy.Bounded_dfs 10) in
  Concolic.Strategy.observe strategy ~depth:0 record;
  let fold = Obs.Fold.init () in
  ignore
    (Obs.Fold.step fold
       (Obs.Event.Test
          {
            test = 0;
            parent = -1;
            origin = "seed";
            branch = -1;
            index = -1;
            cached = false;
            nprocs = 2;
            focus = 0;
            covered = 1;
            reachable = 4;
            cs_size = 2;
            faults = 1;
            restarted = false;
            exec_s = 0.0;
            solve_s = 0.0;
          }));
  let pending =
    {
      Compi.Driver.p_inputs = [ ("x", 3); ("y", 4) ];
      p_nprocs = 2;
      p_focus = 0;
      p_depth = 1;
      p_origin = Compi.Driver.O_negated { parent = 0; branch = 3; index = 1; cached = false };
      p_schedule = [ 1 ];
    }
  in
  {
    Compi.Checkpoint.fingerprint = [ ("target", "probe") ];
    iter = 1;
    rounds = 1;
    speculated = 0;
    fold;
    max_cs = 2;
    last_improvement = 0;
    barren = 0;
    last_np = (2, 0);
    derived_bound = Some 12;
    rng = Random.State.make [| 1 |];
    strategy;
    coverage;
    cache = Some cache;
    bugs =
      [
        {
          Compi.Driver.bug_iteration = 0;
          bug_rank = 1;
          bug_fault = Minic.Fault.Fpe { func = "main" };
          bug_inputs = [ ("x", 3) ];
          bug_nprocs = 2;
          bug_focus = 0;
          bug_context = [ (1, true) ];
        };
      ];
    forced = [ pending ];
    stagnated_round = false;
    schedules = [];
    work =
      [
        Compi.Checkpoint.W_negate { Concolic.Strategy.record; index = 1 };
        Compi.Checkpoint.W_fresh pending;
      ];
  }

let test_layout_guard () =
  (* randomized hash tables (OCAMLRUNPARAM=R) marshal a random seed *)
  if Hashtbl.is_randomized () then Alcotest.skip ();
  let digest = Digest.to_hex (Digest.string (Marshal.to_string (probe_state ()) [])) in
  let recorded_version, recorded = Compi.Checkpoint.layout_digest in
  if recorded_version <> Compi.Checkpoint.version || digest <> recorded then
    Alcotest.failf
      "the marshalled layout of Checkpoint.state reads %s under version %d; recorded: %s \
       under version %d. A layout change must bump Checkpoint.version and record (version, \
       digest) in Checkpoint.layout_digest"
      digest Compi.Checkpoint.version recorded recorded_version

let suite =
  [
    ( "checkpoint:resume",
      [
        Alcotest.test_case "resume equals uninterrupted" `Quick
          test_resume_equals_uninterrupted;
        Alcotest.test_case "resume across job counts" `Quick
          test_resume_across_job_counts;
        Alcotest.test_case "same-budget resume is a no-op" `Quick
          test_resume_same_budget_is_noop;
        Alcotest.test_case "resume equals uninterrupted on the ledger record" `Quick
          test_resume_equals_uninterrupted_ledger;
      ] );
    ( "checkpoint:format",
      [
        Alcotest.test_case "snapshot round-trip + corpus" `Quick
          test_snapshot_roundtrip;
        Alcotest.test_case "missing checkpoint" `Quick test_load_missing;
        Alcotest.test_case "garbage file rejected" `Quick test_load_garbage;
        Alcotest.test_case "version mismatch rejected" `Quick
          test_load_version_mismatch;
        Alcotest.test_case "truncated file rejected" `Quick test_load_truncated;
        Alcotest.test_case "bit rot rejected" `Quick test_load_corrupted;
        Alcotest.test_case "different seed refused" `Quick
          test_resume_rejects_other_seed;
        Alcotest.test_case "fingerprint mismatches" `Quick test_mismatches;
        Alcotest.test_case "layout change bumps the version" `Quick test_layout_guard;
      ] );
  ]
