(* The live campaign monitor and the run ledger: incremental-fold
   equivalence with the batch fold (the streaming-folds tentpole),
   status snapshot round trips and plateau/ETA estimates, ledger
   persistence/triage/diffing, and a live jobs-2 campaign whose final
   status snapshot must agree with the post-hoc replay census. *)

let tmp_file suffix = Filename.temp_file "compi-live" suffix

(* ------------------------------------------------------------------ *)
(* incremental fold == batch fold, on every renderer                    *)
(* ------------------------------------------------------------------ *)

(* A pool of events covering every aggregation path in the fold: the
   qcheck properties draw arbitrary streams (any order, any length,
   with repetition) from it, so they exercise arbitrary permutations
   and prefixes of a realistic event vocabulary. *)
let summary ?(sends = [ 0; 0; 0; 0 ]) ?(recvs = [ 0; 0; 0; 0 ]) ?(colls = [ 0; 0; 0; 0 ])
    ?(blocked = [ 0; 0; 0; 0 ]) ?(matrix = List.init 16 (fun _ -> 0)) ?(collectives = []) ()
    =
  Obs.Event.Mpi_summary { nprocs = 4; sends; recvs; colls; blocked; matrix; collectives }

let test ?(parent = -1) ?(origin = "seed") ?(branch = -1) ?(index = -1) ?(cached = false)
    ?(restarted = false) ~covered id =
  Obs.Event.Test
    {
      test = id;
      parent;
      origin;
      branch;
      index;
      cached;
      nprocs = 4;
      focus = 0;
      covered;
      reachable = 12;
      cs_size = 5 + id;
      faults = (if id = 1 then 1 else 0);
      restarted;
      exec_s = 0.01 *. float_of_int (id + 1);
      solve_s = (if origin = "negated" then 0.01 else 0.0);
    }

let pool : Obs.Event.t array =
  [|
    Campaign_start { target = "toy"; iterations = 40; seed = 7; nprocs = 4; solver_cache = true };
    Campaign_end { iterations_run = 40; covered = 9; reachable = 12; bugs = 1; wall_s = 0.8 };
    test ~covered:3 0;
    test ~parent:0 ~origin:"negated" ~branch:7 ~index:2 ~restarted:true ~covered:5 1;
    Lineage_negation
      { parent = 1; index = 2; branch = 7; outcome = Obs.Event.Sat; cached = false };
    Lineage_negation
      { parent = 0; index = 4; branch = 5; outcome = Obs.Event.Unsat; cached = false };
    Lineage_negation
      { parent = 2; index = 0; branch = 11; outcome = Obs.Event.Unknown; cached = false };
    Restart { iteration = 3; reason = "stagnation" };
    summary ~sends:[ 1; 0; 0; 0 ] ();
    Sched_deadlock { ranks = [ 1; 2 ] };
    Fault { iteration = 4; rank = 1; kind = "assert"; detail = "boom" };
    test ~parent:1 ~origin:"schedule" ~branch:2 ~index:0 ~covered:6 2;
    test ~origin:"restart" ~covered:7 3;
    Lineage_negation
      { parent = 3; index = 1; branch = 5; outcome = Obs.Event.Sat; cached = true };
    Lineage_negation
      { parent = 4; index = 2; branch = 13; outcome = Obs.Event.Unsat; cached = false };
    Cache_evict { dropped = 1; entries = 8 };
    Checkpoint_write { iteration = 5; path = "/tmp/c"; bytes = 100 };
    Checkpoint_load { iteration = 5; path = "/tmp/c" };
    test ~parent:3 ~origin:"negated" ~branch:9 ~index:3 ~cached:true ~covered:7 4;
    Lineage_negation
      { parent = 1; index = 3; branch = 9; outcome = Obs.Event.Unsat; cached = true };
    Lineage_negation
      { parent = 0; index = 1; branch = 7; outcome = Obs.Event.Sat; cached = false };
    summary ~recvs:[ 0; 1; 0; 0 ] ~matrix:(List.init 16 (fun i -> if i = 1 then 1 else 0)) ();
    summary ~colls:[ 1; 1; 1; 1 ] ~collectives:[ (0, "barrier", 1) ] ();
    summary ~blocked:[ 0; 0; 1; 0 ] ();
    Deadlock_witness { rank = 1; comm = 0; kind = "recv"; peer = 2 };
    Schedule_choice { rank = 0; comm = 0; tag = 3; chosen = 2; alts = [ 1; 2 ]; point = 0 };
    Schedule_enum { parent = 1; points = 2; emitted = 1; pruned = 1 };
    Span { domain = 0; kind = "merge"; t0 = 500; t1 = 900 };
    Span { domain = 1; kind = "exec"; t0 = 1_000; t1 = 2_000 };
    Span { domain = 1; kind = "idle"; t0 = 2_000; t1 = 2_400 };
    Ledger_append
      { path = "/tmp/l.jsonl"; run = "toy#0"; covered = 9; reachable = 12; bugs = 1 };
  |]

let events_of_indices ixs = List.map (fun i -> pool.(i mod Array.length pool)) ixs

(* Byte-level agreement across every renderer: if the folds differ
   anywhere a renderer reads, some string differs. *)
let renderings (f : Obs.Fold.t) =
  [
    ("to_text", Obs.Fold.to_text f);
    ("to_text stable", Obs.Fold.to_text ~stable:true f);
    ("to_html", Obs.Fold.to_html f);
    ("profile_text", Obs.Fold.profile_text f);
    ("profile_text stable", Obs.Fold.profile_text ~stable:true f);
    ("ascii_curve", Obs.Fold.ascii_curve f.Obs.Fold.curve);
  ]

let check_equal_folds ~what (batch : Obs.Fold.t) (incr : Obs.Fold.t) =
  if batch <> incr then
    QCheck.Test.fail_reportf "%s: structural mismatch" what;
  List.iter2
    (fun (name, b) (_, i) ->
      if b <> i then
        QCheck.Test.fail_reportf "%s: renderer %s differs" what name)
    (renderings batch) (renderings incr);
  true

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

(* Arbitrary streams and split points: finishing mid-stream must leave
   the state intact (each finish equals a batch fold of the prefix
   consumed so far), and the full-stream finish must equal the batch
   fold of the whole stream. *)
let prop_incremental_equals_batch =
  QCheck.Test.make ~name:"fold: incremental == batch on any stream prefix"
    ~count:150
    QCheck.(pair (list_of_size Gen.(int_range 0 80) (int_bound 1_000)) small_nat)
    (fun (ixs, split) ->
      let events = events_of_indices ixs in
      let n = List.length events in
      let k = if n = 0 then 0 else split mod (n + 1) in
      let st = Obs.Fold.init () in
      List.iter (fun ev -> ignore (Obs.Fold.step st ev)) (take k events);
      let mid = Obs.Fold.finish st in
      ignore (check_equal_folds ~what:"prefix" (Obs.Fold.fold (take k events)) mid);
      List.iter
        (fun ev -> ignore (Obs.Fold.step st ev))
        (List.filteri (fun i _ -> i >= k) events);
      check_equal_folds ~what:"full" (Obs.Fold.fold events) (Obs.Fold.finish st))

(* Same property at the raw-line layer, with forward-compat noise mixed
   in: unknown kinds and malformed lines must be counted identically by
   the streaming and batch paths. *)
let prop_step_line_equals_of_lines =
  QCheck.Test.make ~name:"fold: step_line == of_lines with triage noise"
    ~count:100
    QCheck.(pair (list_of_size Gen.(int_range 0 60) (int_bound 1_000)) small_nat)
    (fun (ixs, split) ->
      let lines =
        List.map
          (fun i ->
            match i mod 10 with
            | 0 -> "{\"ev\": \"from_the_future\", \"x\": 1}"
            | 1 -> "not json at all"
            | 2 -> ""
            | _ ->
              Obs.Json.to_string
                (Obs.Event.to_json ~t:0.25 pool.(i mod Array.length pool)))
          ixs
      in
      let n = List.length lines in
      let k = if n = 0 then 0 else split mod (n + 1) in
      let st = Obs.Fold.init () in
      List.iter (fun l -> ignore (Obs.Fold.step_line st l)) (take k lines);
      ignore
        (check_equal_folds ~what:"line prefix"
           (Obs.Fold.of_lines (take k lines))
           (Obs.Fold.finish st));
      List.iter
        (fun l -> ignore (Obs.Fold.step_line st l))
        (List.filteri (fun i _ -> i >= k) lines);
      check_equal_folds ~what:"line full" (Obs.Fold.of_lines lines)
        (Obs.Fold.finish st))

(* ------------------------------------------------------------------ *)
(* status snapshots                                                    *)
(* ------------------------------------------------------------------ *)

let sample_status : Obs.Status.t =
  {
    Obs.Status.target = "toy";
    budget = 100;
    rounds = 12;
    executed = 48;
    covered = 9;
    reachable = 12;
    bugs = 1;
    queue_depth = 3;
    utilization = 0.75;
    cache_hit_rate = 0.5;
    schedule_forks = 2;
    plateau = false;
    eta_iterations = 40;
    finished = false;
  }

let test_status_roundtrip () =
  match Obs.Status.of_json (Obs.Status.to_json sample_status) with
  | Ok st -> Alcotest.(check bool) "round-trips" true (st = sample_status)
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_status_publish_read () =
  let path = tmp_file ".json" in
  Obs.Status.publish path sample_status;
  (match Obs.Status.read path with
  | Ok st -> Alcotest.(check bool) "published then read" true (st = sample_status)
  | Error e -> Alcotest.failf "read failed: %s" e);
  (* publish is tmp+rename: no stray temp file survives *)
  Alcotest.(check bool) "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_status_forward_compat () =
  (* a v2 producer adds a field: the v1 core must still read *)
  let extended =
    match Obs.Status.to_json sample_status with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function "v", _ -> ("v", Obs.Json.Int 2) | kv -> kv)
           fields
        @ [ ("novelty", Obs.Json.Str "ignored") ])
    | _ -> Alcotest.fail "status json is not an object"
  in
  (match Obs.Status.of_json extended with
  | Ok st -> Alcotest.(check bool) "newer version readable" true (st = sample_status)
  | Error e -> Alcotest.failf "v2 rejected: %s" e);
  match Obs.Status.of_json (Obs.Json.Obj [ ("v", Obs.Json.Int 0) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a v0 document"

let test_status_estimate () =
  let check name expect got =
    Alcotest.(check (pair bool int)) name expect got
  in
  check "empty curve" (false, -1) (Obs.Status.estimate ~reachable:10 []);
  check "fully covered" (false, 0)
    (Obs.Status.estimate ~reachable:10 [ (0, 2); (30, 10) ]);
  check "too little history" (false, -1)
    (Obs.Status.estimate ~reachable:10 [ (0, 2); (5, 3) ]);
  (* 2 branches gained over 40 iterations: slope 0.05, 6 remaining ->
     ceil(6 / 0.05) = 120 *)
  check "slope extrapolates" (false, 120)
    (Obs.Status.estimate ~reachable:10 [ (0, 2); (40, 4) ]);
  check "flat window is a plateau" (true, -1)
    (Obs.Status.estimate ~reachable:10 [ (0, 4); (40, 4) ])

(* ------------------------------------------------------------------ *)
(* run ledger                                                          *)
(* ------------------------------------------------------------------ *)

let sample_record ?(covered = 9) ?(fingerprint = "abc123") () : Obs.Ledger.record =
  {
    Obs.Ledger.run = "";
    target = "toy";
    fingerprint;
    exec_mode = "compiled";
    jobs = 2;
    seed = 7;
    budget = 40;
    executed = 40;
    rounds = 11;
    covered;
    reachable = 12;
    bugs = [ { Obs.Ledger.bug_test = 5; bug_rank = 1; bug_kind = "assert" } ];
    curve = [ (0, 3); (5, 7); (39, covered) ];
    wall_s = 0.5;
    solver_calls = 30;
    cache_hits = 20;
    cache_misses = 10;
    schedule_forks = 0;
  }

let test_ledger_roundtrip () =
  let r = { (sample_record ()) with Obs.Ledger.run = "toy#0" } in
  match Obs.Ledger.of_json (Obs.Ledger.to_json r) with
  | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r')
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_ledger_append_assigns_ids () =
  let path = tmp_file ".jsonl" in
  Sys.remove path;
  let w0 = Obs.Ledger.append path (sample_record ()) in
  let w1 = Obs.Ledger.append path (sample_record ~covered:10 ()) in
  Alcotest.(check string) "first id" "toy#0" w0.Obs.Ledger.run;
  Alcotest.(check string) "second id" "toy#1" w1.Obs.Ledger.run;
  (match Obs.Ledger.load path with
  | Ok store ->
    Alcotest.(check int) "two records" 2 (List.length store.Obs.Ledger.records);
    Alcotest.(check int) "no skips" 0 store.Obs.Ledger.skipped;
    (* selectors: by index (negative from the end) and by run id *)
    (match Obs.Ledger.find store "-1" with
    | Some r -> Alcotest.(check string) "find -1 is latest" "toy#1" r.Obs.Ledger.run
    | None -> Alcotest.fail "find -1 failed");
    (match Obs.Ledger.find store "toy#0" with
    | Some r -> Alcotest.(check int) "find by id" 9 r.Obs.Ledger.covered
    | None -> Alcotest.fail "find by id failed");
    Alcotest.(check bool) "find miss" true (Obs.Ledger.find store "toy#9" = None)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_ledger_triage () =
  let path = tmp_file ".jsonl" in
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string
       (Obs.Ledger.to_json { (sample_record ()) with Obs.Ledger.run = "toy#0" }));
  output_string oc "\n{\"v\": 99, \"run\": \"future#0\"}\nnot json\n";
  close_out oc;
  (match Obs.Ledger.load path with
  | Ok store ->
    Alcotest.(check int) "one readable record" 1
      (List.length store.Obs.Ledger.records);
    Alcotest.(check int) "newer version skipped" 1 store.Obs.Ledger.skipped;
    Alcotest.(check int) "bad line malformed" 1 store.Obs.Ledger.malformed;
    (* appends keep ids unique past lines this build cannot parse *)
    let w = Obs.Ledger.append path (sample_record ()) in
    Alcotest.(check string) "seq counts every line" "toy#3" w.Obs.Ledger.run
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_ledger_diff () =
  let a = { (sample_record ()) with Obs.Ledger.run = "toy#0" } in
  let same = { (sample_record ()) with Obs.Ledger.run = "toy#1" } in
  let d = Obs.Ledger.diff a same in
  Alcotest.(check int) "zero coverage delta" 0 d.Obs.Ledger.d_covered;
  Alcotest.(check int) "zero bug delta" 0 d.Obs.Ledger.d_bugs;
  Alcotest.(check bool) "same settings" true d.Obs.Ledger.same_settings;
  Alcotest.(check bool) "no regression" false d.Obs.Ledger.regression;
  let worse = { (sample_record ~covered:7 ()) with Obs.Ledger.run = "toy#2" } in
  Alcotest.(check bool) "drop of 2 regresses" true
    (Obs.Ledger.diff a worse).Obs.Ledger.regression;
  Alcotest.(check bool) "tolerance absorbs the drop" false
    (Obs.Ledger.diff ~tolerance:2 a worse).Obs.Ledger.regression;
  (* wall time and solver work never gate *)
  let slow = { (sample_record ()) with Obs.Ledger.run = "toy#3"; wall_s = 99.0 } in
  Alcotest.(check bool) "slower is not a regression" false
    (Obs.Ledger.diff a slow).Obs.Ledger.regression;
  let diff_settings =
    { (sample_record ~fingerprint:"zzz" ()) with Obs.Ledger.run = "toy#4" }
  in
  Alcotest.(check bool) "fingerprints differ" false
    (Obs.Ledger.diff a diff_settings).Obs.Ledger.same_settings

let test_ledger_digest_stable () =
  let fp = [ ("target", "toy"); ("seed", "7") ] in
  Alcotest.(check string) "digest is deterministic" (Obs.Ledger.digest fp)
    (Obs.Ledger.digest fp);
  Alcotest.(check bool) "digest depends on values" true
    (Obs.Ledger.digest fp <> Obs.Ledger.digest [ ("target", "toy"); ("seed", "8") ])

(* A directory where a file is expected is a read failure, not an
   exception: on Linux opening one succeeds and the read itself fails. *)
let test_status_read_directory () =
  match Obs.Status.read (Filename.get_temp_dir_name ()) with
  | Error e -> Alcotest.(check bool) "diagnostic nonempty" true (e <> "")
  | Ok _ -> Alcotest.fail "a directory read as a status snapshot"

let test_ledger_load_directory () =
  match Obs.Ledger.load (Filename.get_temp_dir_name ()) with
  | Error e -> Alcotest.(check bool) "diagnostic nonempty" true (e <> "")
  | Ok _ -> Alcotest.fail "a directory read as a ledger"

(* ------------------------------------------------------------------ *)
(* live jobs-2 campaign: status snapshot vs post-hoc replay census     *)
(* ------------------------------------------------------------------ *)

let test_live_campaign_status_matches_replay () =
  let status_path = tmp_file ".json" in
  let trace_path = tmp_file ".jsonl" in
  let ledger_path = tmp_file ".jsonl" in
  Sys.remove ledger_path;
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig1") in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 40;
          dfs_phase_iters = 12;
          initial_nprocs = 2;
          seed = 11;
        };
      jobs = 2;
      status_file = Some status_path;
      ledger = Some ledger_path;
    }
  in
  let oc = open_out trace_path in
  Obs.Sink.install (Obs.Sink.Channel_sink oc);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.uninstall ();
        close_out oc)
      (fun () -> Compi.Campaign.run ~settings ~label:"toy-fig1" info)
  in
  let summary = result.Compi.Campaign.summary in
  (* the final snapshot is the campaign's own closing publish *)
  let st =
    match Obs.Status.read status_path with
    | Ok st -> st
    | Error e -> Alcotest.failf "status unreadable: %s" e
  in
  Alcotest.(check bool) "finished flag set" true st.Obs.Status.finished;
  Alcotest.(check string) "target" "toy-fig1" st.Obs.Status.target;
  (* the snapshot agrees with the post-hoc replay census of the trace *)
  let f =
    Obs.Fold.of_lines (In_channel.with_open_text trace_path In_channel.input_lines)
  in
  Alcotest.(check (option int))
    "covered agrees with replay" (Some st.Obs.Status.covered)
    f.Obs.Fold.final_covered;
  Alcotest.(check (option int))
    "reachable agrees with replay" (Some st.Obs.Status.reachable)
    f.Obs.Fold.final_reachable;
  Alcotest.(check int) "bugs agree with replay" f.Obs.Fold.bugs st.Obs.Status.bugs;
  Alcotest.(check int)
    "executed agrees with replay" f.Obs.Fold.iterations st.Obs.Status.executed;
  (* and with the in-process result *)
  Alcotest.(check int) "covered agrees with result"
    summary.Compi.Driver.covered_branches st.Obs.Status.covered;
  Alcotest.(check int) "executed agrees with result"
    result.Compi.Campaign.executed st.Obs.Status.executed;
  (* the trace carries the ledger breadcrumb *)
  let census kind =
    match List.assoc_opt kind f.Obs.Fold.census with Some n -> n | None -> 0
  in
  Alcotest.(check int) "one ledger append traced" 1 (census "ledger_append");
  (* the ledger record mirrors the same final numbers *)
  (match Obs.Ledger.load ledger_path with
  | Ok { Obs.Ledger.records = [ r ]; skipped = 0; malformed = 0 } ->
    Alcotest.(check string) "run id" "toy-fig1#0" r.Obs.Ledger.run;
    Alcotest.(check int) "ledger covered" st.Obs.Status.covered r.Obs.Ledger.covered;
    Alcotest.(check int) "ledger executed" st.Obs.Status.executed r.Obs.Ledger.executed;
    Alcotest.(check int) "ledger bugs" st.Obs.Status.bugs
      (List.length r.Obs.Ledger.bugs);
    Alcotest.(check string) "ledger exec mode" "compiled" r.Obs.Ledger.exec_mode
  | Ok s ->
    Alcotest.failf "expected exactly one clean ledger record, got %d (+%d/%d)"
      (List.length s.Obs.Ledger.records)
      s.Obs.Ledger.skipped s.Obs.Ledger.malformed
  | Error e -> Alcotest.failf "ledger unreadable: %s" e);
  List.iter Sys.remove [ status_path; trace_path; ledger_path ]

let suite =
  [
    ( "live",
      [
        Alcotest.test_case "status: json round trip" `Quick test_status_roundtrip;
        Alcotest.test_case "status: publish/read" `Quick test_status_publish_read;
        Alcotest.test_case "status: forward compat" `Quick test_status_forward_compat;
        Alcotest.test_case "status: plateau/eta estimate" `Quick test_status_estimate;
        Alcotest.test_case "status: a directory is an error" `Quick
          test_status_read_directory;
        Alcotest.test_case "ledger: json round trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "ledger: append assigns ids" `Quick
          test_ledger_append_assigns_ids;
        Alcotest.test_case "ledger: version triage" `Quick test_ledger_triage;
        Alcotest.test_case "ledger: diff and regression gate" `Quick test_ledger_diff;
        Alcotest.test_case "ledger: digest stability" `Quick test_ledger_digest_stable;
        Alcotest.test_case "ledger: a directory is an error" `Quick
          test_ledger_load_directory;
        Alcotest.test_case "campaign: live status agrees with replay" `Quick
          test_live_campaign_status_matches_replay;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_incremental_equals_batch; prop_step_line_equals_of_lines ] );
  ]
