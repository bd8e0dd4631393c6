(* Campaign observatory: the trace fold (lineage graph, comm matrix,
   deadlock witnesses, renderers) and the unified Trace/Obs wire
   format, exercised end to end — events are emitted by real campaign
   and scheduler runs, serialized as JSONL, and folded back. *)

open Minic
open Mpisim

(* substring containment, for checking rendered reports *)
let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* line triage and forward compatibility                               *)
(* ------------------------------------------------------------------ *)

let test_classify_lines () =
  (match Obs.Fold.classify_line "   " with
  | `Blank -> ()
  | _ -> Alcotest.fail "blank line not classified as blank");
  (match Obs.Fold.classify_line "{\"ev\":\"restart\",\"iteration\":3,\"reason\":\"x\"}" with
  | `Event (Obs.Event.Restart { iteration = 3; reason = "x" }) -> ()
  | _ -> Alcotest.fail "valid event not classified");
  (* a kind minted by a future build: skipped, not an error *)
  (match Obs.Fold.classify_line "{\"ev\":\"hologram\",\"t\":1.0,\"shade\":4}" with
  | `Unknown "hologram" -> ()
  | `Unknown k -> Alcotest.failf "wrong unknown kind %s" k
  | _ -> Alcotest.fail "unknown kind not skipped");
  (* known kind with missing fields is malformed, not unknown *)
  (match Obs.Fold.classify_line "{\"ev\":\"restart\"}" with
  | `Malformed _ -> ()
  | _ -> Alcotest.fail "truncated event not flagged malformed");
  match Obs.Fold.classify_line "{not json" with
  | `Malformed _ -> ()
  | _ -> Alcotest.fail "bad JSON not flagged malformed"

let test_unknown_kinds_counted () =
  let lines =
    [
      "{\"ev\":\"hologram\",\"x\":1}";
      "";
      "{\"ev\":\"restart\",\"iteration\":0,\"reason\":\"seed\"}";
      "{\"ev\":\"hologram\",\"x\":2}";
      "{\"ev\":\"chrono\",\"y\":3}";
      "garbage";
    ]
  in
  let f = Obs.Fold.of_lines lines in
  Alcotest.(check int) "events" 1 f.Obs.Fold.events;
  Alcotest.(check int) "malformed" 1 f.Obs.Fold.malformed;
  Alcotest.(check (list (pair string int)))
    "unknown kinds"
    [ ("chrono", 1); ("hologram", 2) ]
    f.Obs.Fold.unknown_kinds;
  (* the report surfaces the skip count *)
  let txt = Obs.Fold.to_text f in
  Alcotest.(check bool)
    "skip count rendered" true
    (contains ~needle:"skipped 3 event(s) of unknown kind" txt)

(* ------------------------------------------------------------------ *)
(* emit -> parse -> fold round trip for every event kind               *)
(* ------------------------------------------------------------------ *)

let all_kind_samples : Obs.Event.t list =
  [
    Campaign_start { target = "toy"; iterations = 10; seed = 1; nprocs = 4 };
    Campaign_end { iterations_run = 10; covered = 5; reachable = 8; bugs = 1; wall_s = 0.5 };
    Iter_start { iteration = 0; nprocs = 4; focus = 0 };
    Iter_end
      {
        iteration = 0;
        covered = 5;
        reachable = 8;
        cs_size = 3;
        faults = 1;
        restarted = false;
        exec_s = 0.01;
        solve_s = 0.02;
      };
    Solver_call
      {
        incremental = true;
        outcome = Obs.Event.Sat;
        nodes = 12;
        vars = 3;
        constraints = 4;
        time_s = 0.001;
      };
    Negation { iteration = 0; index = 2; sat = true };
    Restart { iteration = 3; reason = "stagnation" };
    Sched_step { kind = "send"; rank = 0; comm = 0; detail = "dest=1 tag=0" };
    Sched_step { kind = "recv"; rank = 1; comm = 0; detail = "src=0 tag=0" };
    Sched_deadlock { ranks = [ 1; 2 ] };
    Fault { iteration = 0; rank = 1; kind = "assert"; detail = "boom" };
    Coverage_delta { iteration = 0; covered_before = 0; covered_after = 5 };
    Worker_spawn { worker = 1 };
    Worker_task { worker = 1; task = 2; time_s = 0.1 };
    Worker_exit { worker = 1; tasks = 2 };
    Cache_lookup { hit = true; constraints = 4; entries = 9 };
    Cache_evict { dropped = 1; entries = 8 };
    Checkpoint_write { iteration = 5; path = "/tmp/c"; bytes = 100 };
    Checkpoint_load { iteration = 5; path = "/tmp/c" };
    Lineage_test { test = 1; parent = 0; origin = "negated"; branch = 7; index = 2; cached = false };
    Lineage_negation { parent = 1; index = 3; branch = 9; outcome = Obs.Event.Unsat; cached = true };
    Msg_matched { src = 0; dst = 1; comm = 0; tag = 0 };
    Coll_done { comm = 0; signature = "barrier"; ranks = [ 0; 1; 2; 3 ] };
    Rank_blocked { rank = 2; comm = 0; kind = "recv"; peer = 0 };
    Deadlock_witness { rank = 1; comm = 0; kind = "recv"; peer = 2 };
    Span { domain = 1; kind = "exec"; t0 = 1_000; t1 = 2_000 };
    Status_snapshot
      { rounds = 3; executed = 10; covered = 5; reachable = 8; bugs = 1;
        queue = 2; path = "/tmp/status.json" };
    Ledger_append
      { path = "/tmp/ledger.jsonl"; run = "toy#0"; covered = 5; reachable = 8; bugs = 1 };
  ]

let test_roundtrip_fold_every_kind () =
  let lines =
    List.map (fun ev -> Obs.Json.to_string (Obs.Event.to_json ~t:0.5 ev)) all_kind_samples
  in
  let f = Obs.Fold.of_lines lines in
  Alcotest.(check int) "no skips" 0 (List.length f.Obs.Fold.unknown_kinds);
  Alcotest.(check int) "no malformed" 0 f.Obs.Fold.malformed;
  Alcotest.(check int) "all lines folded" (List.length lines) f.Obs.Fold.events;
  (* every one of the 27 kinds appears in the census *)
  Alcotest.(check int) "27 kinds in census" 27 (List.length f.Obs.Fold.census);
  (* spot-check the aggregation paths fed by the new kinds *)
  Alcotest.(check int) "matrix has the matched pair" 1
    (List.length f.Obs.Fold.matrix);
  Alcotest.(check int) "collective counted" 1 (List.length f.Obs.Fold.collectives);
  Alcotest.(check int) "witness edge kept" 1 (List.length f.Obs.Fold.witness);
  Alcotest.(check int) "deadlock counted" 1 f.Obs.Fold.deadlocks;
  Alcotest.(check int) "lineage node kept" 1 (List.length f.Obs.Fold.lineage);
  Alcotest.(check int) "span kept" 1 (List.length f.Obs.Fold.spans);
  Alcotest.(check (list (pair string int))) "restart reasons" [ ("stagnation", 1) ]
    f.Obs.Fold.restarts

(* ------------------------------------------------------------------ *)
(* lineage invariants on a real campaign trace                         *)
(* ------------------------------------------------------------------ *)

let heat2d () =
  match Targets.Catalog.find "heat2d" with
  | Some t -> Targets.Registry.instrument t
  | None -> Alcotest.fail "heat2d target missing"

let campaign_fold ~jobs ~iterations =
  let buf = Buffer.create 65536 in
  let info = heat2d () in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations;
          dfs_phase_iters = 10;
          initial_nprocs = 4;
          seed = 7;
        };
      jobs;
    }
  in
  ignore
    (Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
         Compi.Campaign.run ~settings ~label:"heat2d" info));
  Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf))

let test_lineage_invariants () =
  let f = campaign_fold ~jobs:2 ~iterations:25 in
  Alcotest.(check (list string)) "lineage structurally sound" [] (Obs.Fold.lineage_errors f);
  Alcotest.(check int) "one lineage node per iteration" f.Obs.Fold.iterations
    (List.length f.Obs.Fold.lineage);
  (* acyclic by construction (parent < test); every chain ends at a root
     whose origin is a seed or restart *)
  List.iter
    (fun (n : Obs.Fold.lineage_node) ->
      match Obs.Fold.chain f n.Obs.Fold.ln_test with
      | [] -> Alcotest.failf "test %d has no chain" n.Obs.Fold.ln_test
      | chain -> (
        let root = List.nth chain (List.length chain - 1) in
        Alcotest.(check int) "root has no parent" (-1) root.Obs.Fold.ln_parent;
        match root.Obs.Fold.ln_origin with
        | "seed" | "restart" -> ()
        | o -> Alcotest.failf "root of test %d is %s" n.Obs.Fold.ln_test o))
    f.Obs.Fold.lineage;
  (* every branch a negation first covered is reachable through lineage:
     its first test exists in the graph *)
  List.iter
    (fun (s : Obs.Fold.branch_stat) ->
      if s.Obs.Fold.br_first_test >= 0 then
        match Obs.Fold.node f s.Obs.Fold.br_first_test with
        | Some _ -> ()
        | None ->
          Alcotest.failf "branch %d first test %d missing from lineage"
            s.Obs.Fold.br_branch s.Obs.Fold.br_first_test)
    f.Obs.Fold.branches

(* ------------------------------------------------------------------ *)
(* deadlock witness: the edges name the wait-for cycle                 *)
(* ------------------------------------------------------------------ *)

let test_deadlock_witness () =
  (* rank 0 finishes; 1 and 2 wait on each other — the classic cycle *)
  let tracer = Trace.create () in
  let r =
    Scheduler.run ~nprocs:3 ~on_event:(Trace.collector tracer)
      (fun ~rank ~mpi ->
        if rank = 0 then Ok ()
        else if rank = 1 then
          match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 2; tag = None }) with
          | _ -> Ok ()
        else
          match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None }) with
          | _ -> Ok ())
  in
  Alcotest.(check (list int)) "ranks 1,2 deadlocked" [ 1; 2 ] r.Scheduler.deadlocked;
  (* fold the trace through the unified JSONL wire format *)
  let f =
    Obs.Fold.of_lines (String.split_on_char '\n' (Trace.to_jsonl tracer))
  in
  Alcotest.(check int) "one deadlock" 1 f.Obs.Fold.deadlocks;
  let edge rank peer =
    List.exists
      (fun ((e : Obs.Fold.witness_edge), _) ->
        e.Obs.Fold.we_rank = rank && e.Obs.Fold.we_peer = peer
        && e.Obs.Fold.we_kind = "recv")
      f.Obs.Fold.witness
  in
  Alcotest.(check bool) "edge 1 waits on 2" true (edge 1 2);
  Alcotest.(check bool) "edge 2 waits on 1" true (edge 2 1);
  (match Obs.Fold.witness_cycle f with
  | None -> Alcotest.fail "no wait-for cycle found"
  | Some cycle ->
    Alcotest.(check (list int)) "cycle names ranks 1 and 2" [ 1; 2 ]
      (List.sort compare cycle));
  (* the rendered reports name the cycle *)
  let txt = Obs.Fold.to_text f in
  Alcotest.(check bool) "text report names the cycle" true
    (contains ~needle:"wait-for cycle" txt);
  let html = Obs.Fold.to_html f in
  Alcotest.(check bool) "html report names the cycle" true
    (contains ~needle:"wait-for cycle" html)

let test_collective_witness_no_false_cycle () =
  (* rank 0 never joins the barrier: 1 and 2 block in the collective.
     Witness edges point at the absent rank — no directed cycle. *)
  let tracer = Trace.create () in
  let r =
    Scheduler.run ~nprocs:3 ~on_event:(Trace.collector tracer)
      (fun ~rank ~mpi ->
        if rank = 0 then Ok ()
        else match mpi (Mpi_iface.Barrier Mpi_iface.world) with _ -> Ok ())
  in
  Alcotest.(check (list int)) "ranks 1,2 deadlocked" [ 1; 2 ] r.Scheduler.deadlocked;
  let f = Obs.Fold.of_lines (String.split_on_char '\n' (Trace.to_jsonl tracer)) in
  Alcotest.(check bool) "witness edges present" true (f.Obs.Fold.witness <> []);
  List.iter
    (fun ((e : Obs.Fold.witness_edge), _) ->
      Alcotest.(check string) "collective kind" "collective:barrier" e.Obs.Fold.we_kind;
      Alcotest.(check int) "waiting on the absent rank" 0 e.Obs.Fold.we_peer)
    f.Obs.Fold.witness;
  match Obs.Fold.witness_cycle f with
  | None -> ()
  | Some c ->
    Alcotest.failf "no cycle expected, got %s"
      (String.concat "," (List.map string_of_int c))

(* ------------------------------------------------------------------ *)
(* comm matrix from a real run                                         *)
(* ------------------------------------------------------------------ *)

let test_comm_matrix_ring () =
  (* 4-rank ring: each rank sends one message to (rank+1) mod 4 *)
  let tracer = Trace.create () in
  let r =
    Scheduler.run ~nprocs:4 ~on_event:(Trace.collector tracer)
      (fun ~rank ~mpi ->
        let next = (rank + 1) mod 4 in
        let prev = (rank + 3) mod 4 in
        match
          mpi (Mpi_iface.Send { comm = Mpi_iface.world; dest = next; tag = 0; data = Value.Vint rank })
        with
        | _ -> (
          match
            mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some prev; tag = None })
          with
          | _ -> Ok ()))
  in
  Alcotest.(check (list int)) "no deadlock" [] r.Scheduler.deadlocked;
  let f = Obs.Fold.of_lines (String.split_on_char '\n' (Trace.to_jsonl tracer)) in
  Alcotest.(check int) "four matrix cells" 4 (List.length f.Obs.Fold.matrix);
  List.iter
    (fun src ->
      let dst = (src + 1) mod 4 in
      Alcotest.(check (option int))
        (Printf.sprintf "cell %d->%d" src dst)
        (Some 1)
        (List.assoc_opt (src, dst) f.Obs.Fold.matrix))
    [ 0; 1; 2; 3 ];
  (* sends/recvs balance per rank *)
  List.iter
    (fun rank ->
      Alcotest.(check (option int)) "one send" (Some 1)
        (List.assoc_opt rank f.Obs.Fold.rank_sends);
      Alcotest.(check (option int)) "one recv" (Some 1)
        (List.assoc_opt rank f.Obs.Fold.rank_recvs))
    [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* report determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_stable_report_jobs_invariant () =
  let f1 = campaign_fold ~jobs:1 ~iterations:20 in
  let f4 = campaign_fold ~jobs:4 ~iterations:20 in
  Alcotest.(check string) "stable text identical across jobs"
    (Obs.Fold.to_text ~stable:true f1)
    (Obs.Fold.to_text ~stable:true f4);
  Alcotest.(check string) "stable html identical across jobs"
    (Obs.Fold.to_html ~stable:true f1)
    (Obs.Fold.to_html ~stable:true f4);
  (* re-rendering the same fold is byte-identical *)
  Alcotest.(check string) "re-render stable" (Obs.Fold.to_html f1) (Obs.Fold.to_html f1);
  (* the html is a full page with the curve *)
  let html = Obs.Fold.to_html f1 in
  Alcotest.(check bool) "doctype" true (String.length html >= 15 && String.sub html 0 15 = "<!DOCTYPE html>");
  Alcotest.(check bool) "has polyline" true (contains ~needle:"<polyline" html);
  Alcotest.(check bool) "closes html" true (contains ~needle:"</html>" html)

let suite =
  [
    ( "observatory",
      [
        Alcotest.test_case "line triage" `Quick test_classify_lines;
        Alcotest.test_case "unknown kinds skipped+counted" `Quick test_unknown_kinds_counted;
        Alcotest.test_case "roundtrip fold all kinds" `Quick test_roundtrip_fold_every_kind;
        Alcotest.test_case "lineage invariants" `Quick test_lineage_invariants;
        Alcotest.test_case "deadlock witness cycle" `Quick test_deadlock_witness;
        Alcotest.test_case "collective witness no cycle" `Quick
          test_collective_witness_no_false_cycle;
        Alcotest.test_case "comm matrix ring" `Quick test_comm_matrix_ring;
        Alcotest.test_case "stable report determinism" `Quick
          test_stable_report_jobs_invariant;
      ] );
  ]
