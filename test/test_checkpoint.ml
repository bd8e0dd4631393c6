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
    (hits_misses resumed)

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

(* The status file and ledger record of a resumed run equal the
   uninterrupted run's: both read the campaign's own event fold, which
   the snapshot carries. Schedule mode, so the schedule-fork count is
   part of what must survive the cut. *)
let test_resume_equals_uninterrupted_status_ledger () =
  let t = Targets.Catalog.find_exn "wc-race" in
  let info = Targets.Registry.instrument t in
  let tn = t.Targets.Registry.tuning in
  let run ~iterations ?checkpoint ?(resume = false) ~status ~ledger () =
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
        status_file = status;
        ledger;
      }
    in
    ignore (Compi.Campaign.run ~settings ~label:"wc-race" info)
  in
  let files () =
    let dir = fresh_dir () in
    Unix.mkdir dir 0o755;
    (Filename.concat dir "status.json", Filename.concat dir "ledger.jsonl")
  in
  let full_status, full_ledger = files () in
  run ~iterations:60 ~status:(Some full_status) ~ledger:(Some full_ledger) ();
  let cut_status, cut_ledger = files () in
  let dir = fresh_dir () in
  run ~iterations:30 ~checkpoint:dir ~status:None ~ledger:None ();
  run ~iterations:60 ~checkpoint:dir ~resume:true ~status:(Some cut_status)
    ~ledger:(Some cut_ledger) ();
  let status path =
    match Obs.Status.read path with
    | Ok st ->
      (* engine-only measures: the pool's timing and depth of this process *)
      Obs.Json.to_string
        (Obs.Status.to_json { st with Obs.Status.utilization = 0.0; queue_depth = 0 })
    | Error e -> Alcotest.failf "status %s: %s" path e
  in
  let ledger path =
    match Obs.Ledger.load path with
    | Ok { Obs.Ledger.records = [ r ]; _ } ->
      Obs.Json.to_string (Obs.Ledger.to_json { r with Obs.Ledger.run = ""; wall_s = 0.0 })
    | Ok _ -> Alcotest.failf "ledger %s: expected one record" path
    | Error e -> Alcotest.failf "ledger %s: %s" path e
  in
  Alcotest.(check string)
    "resumed final status equals uninterrupted" (status full_status) (status cut_status);
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
    Alcotest.(check int) "iter restored" 13 snap.Compi.Checkpoint.ck_iter;
    let dir2 = fresh_dir () in
    let bytes = Compi.Checkpoint.save ~dir:dir2 ~target:"toy-fig1" snap in
    Alcotest.(check bool) "payload nonempty" true (bytes > 0);
    (match Compi.Checkpoint.load ~dir:dir2 with
    | Error e -> Alcotest.failf "reload: %s" (Compi.Checkpoint.error_to_string e)
    | Ok snap2 ->
      Alcotest.(check int) "iter survives" snap.Compi.Checkpoint.ck_iter
        snap2.Compi.Checkpoint.ck_iter;
      Alcotest.(check int) "executed survives" snap.Compi.Checkpoint.ck_executed
        snap2.Compi.Checkpoint.ck_executed;
      Alcotest.(check int) "work tail length survives"
        (List.length snap.Compi.Checkpoint.ck_work)
        (List.length snap2.Compi.Checkpoint.ck_work);
      Alcotest.(check (list (pair string string)))
        "fingerprint survives" snap.Compi.Checkpoint.ck_fingerprint
        snap2.Compi.Checkpoint.ck_fingerprint);
    (* the bug corpus rides along as human-readable test cases *)
    (match Compi.Testcase.load ~path:(Compi.Checkpoint.corpus_file ~dir:dir2) with
    | Error e -> Alcotest.failf "corpus: %s" e
    | Ok cases ->
      Alcotest.(check int)
        "corpus mirrors the snapshot's bugs"
        (List.length snap.Compi.Checkpoint.ck_bugs)
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

(* A future version, and v5, whose [ck_coverage] is a balanced set and
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
        Alcotest.test_case "resume equals uninterrupted on status and ledger" `Quick
          test_resume_equals_uninterrupted_status_ledger;
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
      ] );
  ]
