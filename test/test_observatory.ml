(* Campaign observatory: the trace fold (lineage graph, comm matrix,
   deadlock witnesses, renderers) exercised end to end — events are
   emitted by real campaign and scheduler runs, serialized as JSONL, and
   folded back; each run's one mpi_summary must fold to what its
   per-message scheduler events add up to. *)

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
  (* lines of deleted kinds skip like a newer producer's; an old
     campaign_start without solver_cache is malformed *)
  (match Obs.Fold.classify_line "{\"ev\":\"cache_lookup\",\"hit\":true}" with
  | `Unknown "cache_lookup" -> ()
  | _ -> Alcotest.fail "deleted kind not skipped");
  (match
     Obs.Fold.classify_line
       "{\"ev\":\"campaign_start\",\"target\":\"t\",\"iterations\":1,\"seed\":1,\"nprocs\":1}"
   with
  | `Malformed _ -> ()
  | _ -> Alcotest.fail "campaign_start without solver_cache not flagged malformed");
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
    Campaign_start { target = "toy"; iterations = 10; seed = 1; nprocs = 4; solver_cache = true };
    Campaign_end { iterations_run = 10; covered = 5; reachable = 8; bugs = 1; wall_s = 0.5 };
    Compile { target = "toy"; funcs = 2; conds = 4; slots = 6; time_s = 0.001 };
    Test
      {
        test = 1;
        parent = 0;
        origin = "negated";
        branch = 7;
        index = 2;
        cached = false;
        nprocs = 4;
        focus = 0;
        covered = 5;
        reachable = 8;
        cs_size = 3;
        faults = 1;
        restarted = false;
        exec_s = 0.01;
        solve_s = 0.02;
      };
    Lineage_negation { parent = 1; index = 2; branch = 7; outcome = Obs.Event.Sat; cached = false };
    Restart { iteration = 3; reason = "stagnation" };
    Sched_deadlock { ranks = [ 1; 2 ] };
    Fault { iteration = 0; rank = 1; kind = "assert"; detail = "boom" };
    Lineage_negation { parent = 0; index = 1; branch = 9; outcome = Obs.Event.Unsat; cached = false };
    Cache_evict { dropped = 1; entries = 8 };
    Checkpoint_write { iteration = 5; path = "/tmp/c"; bytes = 100 };
    Checkpoint_load { iteration = 5; path = "/tmp/c" };
    Lineage_negation { parent = 1; index = 3; branch = 9; outcome = Obs.Event.Unsat; cached = true };
    Mpi_summary
      {
        nprocs = 4;
        sends = [ 1; 0; 0; 0 ];
        recvs = [ 0; 1; 0; 0 ];
        colls = [ 1; 1; 1; 1 ];
        blocked = [ 0; 0; 1; 0 ];
        matrix = List.init 16 (fun i -> if i = 1 then 1 else 0);
        collectives = [ (0, "barrier", 1) ];
      };
    Deadlock_witness { rank = 1; comm = 0; kind = "recv"; peer = 2 };
    Schedule_choice { rank = 0; comm = 0; tag = 1; chosen = 2; alts = [ 1; 2 ]; point = 0 };
    Schedule_enum { parent = 1; points = 1; emitted = 1; pruned = 0 };
    Span { domain = 1; kind = "exec"; t0 = 1_000; t1 = 2_000 };
    Ledger_append
      { path = "/tmp/ledger.jsonl"; run = "toy#0"; covered = 5; reachable = 8; bugs = 1 };
  ]

let test_roundtrip_fold_every_kind () =
  let lines =
    List.map (Obs.Event.to_line ~t:0.5) all_kind_samples
  in
  let f = Obs.Fold.of_lines lines in
  Alcotest.(check int) "no skips" 0 (List.length f.Obs.Fold.unknown_kinds);
  Alcotest.(check int) "no malformed" 0 f.Obs.Fold.malformed;
  Alcotest.(check int) "all lines folded" (List.length lines) f.Obs.Fold.events;
  (* every one of the 17 kinds appears in the census *)
  Alcotest.(check int) "17 kinds in census" 17 (List.length f.Obs.Fold.census);
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

(* Run under a buffer sink and fold what the sink wrote: the path of
   `compi-cli exec --trace-jsonl` and `run --trace-events`. *)
let traced f =
  let buf = Buffer.create 65536 in
  let r = Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) f in
  (r, Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf)))

let heat2d_campaign ~jobs ~iterations =
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
  traced (fun () -> Compi.Campaign.run ~settings ~label:"heat2d" info)

let campaign_fold ~jobs ~iterations = snd (heat2d_campaign ~jobs ~iterations)

(* A target under its own tuning, as `compi-cli run --target NAME --seed
   SEED` runs it *)
let tuned_campaign ?(schedules = false) ?(solver_cache = true) ?ledger ~name ~seed ~jobs
    ~iterations () =
  let t = Targets.Catalog.find_exn name in
  let tn = t.Targets.Registry.tuning in
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
          seed;
          schedules;
        };
      jobs;
      solver_cache;
      ledger;
    }
  in
  traced (fun () -> Compi.Campaign.run ~settings ~label:name (Targets.Registry.instrument t))

let wc_race_campaign ~jobs ~iterations =
  tuned_campaign ~schedules:true ~name:"wc-race" ~seed:1 ~jobs ~iterations ()

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

(* A schedule fork's branch slot holds the source rank it delivers
   from, so only negated tests may cover a branch: each row's first
   test is the smallest negated node that targeted its branch. *)
let test_first_test_negated_only () =
  let _, f = wc_race_campaign ~jobs:1 ~iterations:60 in
  Alcotest.(check bool) "trace has schedule forks" true
    (List.exists (fun n -> n.Obs.Fold.ln_origin = "schedule") f.Obs.Fold.lineage);
  Alcotest.(check bool) "trace has branch rows" true (f.Obs.Fold.branches <> []);
  List.iter
    (fun (s : Obs.Fold.branch_stat) ->
      let br = s.Obs.Fold.br_branch in
      let expected =
        List.find_opt
          (fun n -> n.Obs.Fold.ln_origin = "negated" && n.Obs.Fold.ln_branch = br)
          f.Obs.Fold.lineage
        |> Option.map (fun n -> n.Obs.Fold.ln_test)
      in
      Alcotest.(check int)
        (Printf.sprintf "branch %d first test" br)
        (Option.value expected ~default:(-1))
        s.Obs.Fold.br_first_test;
      Alcotest.(check (option int))
        (Printf.sprintf "branch %d first_test_for_branch" br)
        expected
        (Obs.Fold.first_test_for_branch f br))
    f.Obs.Fold.branches

(* One [test] event per merged execution, checked against the
   in-process result: the census, the coverage curve and the lineage
   ids all come from that one event. *)
let test_per_test_census () =
  let check name (r, f) =
    let census k = Option.value (List.assoc_opt k f.Obs.Fold.census) ~default:0 in
    Alcotest.(check int) (name ^ ": one test event per execution")
      r.Compi.Campaign.executed (census "test");
    List.iter
      (fun k -> Alcotest.(check int) (name ^ ": no " ^ k) 0 (census k))
      [ "iter_start"; "iter_end"; "lineage_test"; "coverage_delta"; "negation";
        "worker_spawn"; "worker_task"; "worker_exit"; "status_snapshot" ];
    Alcotest.(check (list (pair string int))) (name ^ ": no unknown kinds") []
      f.Obs.Fold.unknown_kinds;
    let stats =
      List.sort
        (fun a b -> compare a.Compi.Driver.iteration b.Compi.Driver.iteration)
        r.Compi.Campaign.summary.Compi.Driver.stats
    in
    Alcotest.(check (list (pair int int))) (name ^ ": curve = stats")
      (List.map (fun st -> (st.Compi.Driver.iteration, st.Compi.Driver.covered_after)) stats)
      f.Obs.Fold.curve;
    Alcotest.(check (list int)) (name ^ ": lineage ids = stats iterations")
      (List.map (fun st -> st.Compi.Driver.iteration) stats)
      (List.map (fun n -> n.Obs.Fold.ln_test) f.Obs.Fold.lineage);
    Alcotest.(check (list string)) (name ^ ": lineage sound") [] (Obs.Fold.lineage_errors f)
  in
  check "heat2d jobs 1" (heat2d_campaign ~jobs:1 ~iterations:40);
  check "heat2d jobs 2" (heat2d_campaign ~jobs:2 ~iterations:40);
  check "wc-race schedules" (wc_race_campaign ~jobs:1 ~iterations:60)

(* Every solver and cache count is over merged negation attempts, so the
   run result, the ledger record and the trace fold agree; a candidate
   dropped at the budget edge shows in none of them. *)
let test_accounting_views_agree () =
  let check ~jobs ~solver_cache =
    let name = Printf.sprintf "jobs %d, cache %b" jobs solver_cache in
    let ledger = Filename.temp_file "compi-accounting" ".jsonl" in
    Sys.remove ledger;
    let r, f =
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          tuned_campaign ~solver_cache ~ledger ~name:"susy-hmc" ~seed:2 ~jobs ~iterations:60 ())
    in
    let record =
      match Obs.Ledger.load ledger with
      | Ok { Obs.Ledger.records = [ rc ]; _ } -> rc
      | Ok _ -> Alcotest.failf "%s: expected one ledger record" name
      | Error e -> Alcotest.failf "%s: ledger: %s" name e
    in
    Sys.remove ledger;
    let calls = r.Compi.Campaign.solver_calls in
    Alcotest.(check int) (name ^ ": fold calls = result") calls f.Obs.Fold.solver_calls;
    Alcotest.(check int) (name ^ ": ledger calls = result") calls record.Obs.Ledger.solver_calls;
    Alcotest.(check int) (name ^ ": sat + unsat + unknown = calls") calls
      (f.Obs.Fold.solver_sat + f.Obs.Fold.solver_unsat + f.Obs.Fold.solver_unknown);
    let attempts =
      List.fold_left (fun acc br -> acc + br.Obs.Fold.br_attempts) 0 f.Obs.Fold.branches
    in
    (match r.Compi.Campaign.cache with
    | Some cs ->
      let hits = cs.Smt.Cache.hits and misses = cs.Smt.Cache.misses in
      Alcotest.(check int) (name ^ ": fold hits = result") hits f.Obs.Fold.cache_hits;
      Alcotest.(check int) (name ^ ": fold misses = result") misses f.Obs.Fold.cache_misses;
      Alcotest.(check int) (name ^ ": ledger hits = result") hits record.Obs.Ledger.cache_hits;
      Alcotest.(check int) (name ^ ": ledger misses = result") misses
        record.Obs.Ledger.cache_misses;
      Alcotest.(check int) (name ^ ": misses = calls") calls misses;
      Alcotest.(check int) (name ^ ": probes = attempts") attempts (hits + misses)
    | None ->
      Alcotest.(check int) (name ^ ": no fold hits") 0 f.Obs.Fold.cache_hits;
      Alcotest.(check int) (name ^ ": no fold misses") 0 f.Obs.Fold.cache_misses;
      Alcotest.(check bool) (name ^ ": no cache line") false
        (contains ~needle:"cache:" (Obs.Fold.to_text f)));
    let census k = Option.value (List.assoc_opt k f.Obs.Fold.census) ~default:0 in
    Alcotest.(check int) (name ^ ": no cache_lookup") 0 (census "cache_lookup");
    Alcotest.(check int) (name ^ ": no solver_call") 0 (census "solver_call");
    Alcotest.(check bool) (name ^ ": spans recorded") true (f.Obs.Fold.spans <> []);
    Alcotest.(check bool) (name ^ ": no solver.call span") false
      (List.exists (fun sp -> sp.Obs.Fold.sp_kind = "solver.call") f.Obs.Fold.spans)
  in
  List.iter
    (fun (jobs, solver_cache) -> check ~jobs ~solver_cache)
    [ (1, true); (2, true); (1, false); (2, false) ]

(* ------------------------------------------------------------------ *)
(* deadlock witness: the edges name the wait-for cycle                 *)
(* ------------------------------------------------------------------ *)

(* rank 0 finishes; 1 and 2 wait on each other — the classic cycle *)
let cycle_deadlock ~rank ~mpi =
  if rank = 0 then Ok ()
  else if rank = 1 then
    match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 2; tag = None }) with
    | _ -> Ok ()
  else
    match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None }) with
    | _ -> Ok ()

(* rank 0 never joins the barrier: 1 and 2 block in the collective *)
let barrier_deadlock ~rank ~mpi =
  if rank = 0 then Ok () else match mpi (Mpi_iface.Barrier Mpi_iface.world) with _ -> Ok ()

let test_deadlock_witness () =
  let r, f = traced (fun () -> Scheduler.run ~nprocs:3 cycle_deadlock) in
  Alcotest.(check (list int)) "ranks 1,2 deadlocked" [ 1; 2 ] r.Scheduler.deadlocked;
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
    (contains ~needle:"wait-for cycle" txt)

let test_collective_witness_no_false_cycle () =
  (* witness edges point at the absent rank — no directed cycle *)
  let r, f = traced (fun () -> Scheduler.run ~nprocs:3 barrier_deadlock) in
  Alcotest.(check (list int)) "ranks 1,2 deadlocked" [ 1; 2 ] r.Scheduler.deadlocked;
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
  let r, f =
    traced (fun () ->
        Scheduler.run ~nprocs:4 (fun ~rank ~mpi ->
            let next = (rank + 1) mod 4 in
            let prev = (rank + 3) mod 4 in
            match
              mpi
                (Mpi_iface.Send
                   { comm = Mpi_iface.world; dest = next; tag = 0; data = Value.Vint rank })
            with
            | _ -> (
              match
                mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some prev; tag = None })
              with
              | _ -> Ok ())))
  in
  Alcotest.(check (list int)) "no deadlock" [] r.Scheduler.deadlocked;
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
(* summary oracle: one mpi_summary equals the per-message events       *)
(* ------------------------------------------------------------------ *)

type aggregates = {
  a_matrix : ((int * int) * int) list;
  a_sends : (int * int) list;
  a_recvs : (int * int) list;
  a_colls : (int * int) list;
  a_blocked : (int * int) list;
  a_collectives : ((int * string) * int) list;
  a_deadlocks : int;
  a_witness : (Obs.Fold.witness_edge * int) list;
  a_choices : int;
  a_forks : int;
}

(* The reference: the fold arms of the per-message trace vocabulary
   (sched_step send/recv, msg_matched, coll_done, rank_blocked) applied
   to the scheduler's own event stream, together with the per-occurrence
   deadlock, witness and schedule-choice arms. *)
let reference_aggregates events =
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0) in
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
  let matrix = Hashtbl.create 16 and sends = Hashtbl.create 8 and recvs = Hashtbl.create 8 in
  let colls = Hashtbl.create 8 and blocked = Hashtbl.create 8 in
  let sigs = Hashtbl.create 8 and witness = Hashtbl.create 8 in
  let deadlocks = ref 0 and choices = ref 0 and forks = ref 0 in
  List.iter
    (function
      | Trace.Matched { src; dst; _ } -> bump matrix (src, dst)
      | Trace.Send { from_rank; _ } -> bump sends from_rank
      | Trace.Recv_matched { rank; _ } -> bump recvs rank
      | Trace.Collective { comm; signature; ranks } ->
        bump sigs (comm, signature);
        List.iter (bump colls) ranks
      | Trace.Blocked { rank; _ } -> bump blocked rank
      | Trace.Deadlock _ -> incr deadlocks
      | Trace.Witness { rank; comm; kind; peer } ->
        bump witness { Obs.Fold.we_rank = rank; we_kind = kind; we_peer = peer; we_comm = comm }
      | Trace.Schedule_choice { alts; _ } ->
        incr choices;
        if List.length alts > 1 then incr forks
      | Trace.Finished _ -> ())
    events;
  {
    a_matrix = sorted matrix;
    a_sends = sorted sends;
    a_recvs = sorted recvs;
    a_colls = sorted colls;
    a_blocked = sorted blocked;
    a_collectives = sorted sigs;
    a_deadlocks = !deadlocks;
    a_witness = sorted witness;
    a_choices = !choices;
    a_forks = !forks;
  }

let fold_aggregates (f : Obs.Fold.t) =
  {
    a_matrix = f.Obs.Fold.matrix;
    a_sends = f.Obs.Fold.rank_sends;
    a_recvs = f.Obs.Fold.rank_recvs;
    a_colls = f.Obs.Fold.rank_colls;
    a_blocked = f.Obs.Fold.rank_blocked;
    a_collectives = f.Obs.Fold.collectives;
    a_deadlocks = f.Obs.Fold.deadlocks;
    a_witness = f.Obs.Fold.witness;
    a_choices = f.Obs.Fold.schedule_choices;
    a_forks = f.Obs.Fold.schedule_forks;
  }

let render_aggregates a =
  let cells fmt l = String.concat " " (List.map fmt l) in
  let rank (r, n) = Printf.sprintf "%d:%d" r n in
  String.concat "\n"
    [
      "matrix " ^ cells (fun ((s, d), n) -> Printf.sprintf "%d>%d:%d" s d n) a.a_matrix;
      "sends " ^ cells rank a.a_sends;
      "recvs " ^ cells rank a.a_recvs;
      "colls " ^ cells rank a.a_colls;
      "blocked " ^ cells rank a.a_blocked;
      "collectives " ^ cells (fun ((c, s), n) -> Printf.sprintf "%d/%s:%d" c s n) a.a_collectives;
      Printf.sprintf "deadlocks %d choices %d forks %d" a.a_deadlocks a.a_choices a.a_forks;
      "witness "
      ^ cells
          (fun ((e : Obs.Fold.witness_edge), n) ->
            Printf.sprintf "%d-%s->%d@%d:%d" e.Obs.Fold.we_rank e.Obs.Fold.we_kind
              e.Obs.Fold.we_peer e.Obs.Fold.we_comm n)
          a.a_witness;
    ]

(* [run on_event] executes once; the collector's per-message events and
   the sink's one summary must fold to the same aggregates. *)
let check_summary_oracle name run =
  let tracer = Trace.create () in
  let (), f = traced (fun () -> run (Trace.collector tracer)) in
  Alcotest.(check (option int)) (name ^ ": one mpi_summary") (Some 1)
    (List.assoc_opt "mpi_summary" f.Obs.Fold.census);
  let reference = reference_aggregates (Trace.events tracer) in
  Alcotest.(check string) (name ^ ": summary = per-message fold")
    (render_aggregates reference)
    (render_aggregates (fold_aggregates f));
  reference

let test_summary_oracle () =
  let runner name ?(inputs = []) ?schedule ~nprocs () =
    let t = Targets.Catalog.find_exn name in
    let info = Targets.Registry.instrument t in
    check_summary_oracle name (fun on_event ->
        match
          Compi.Runner.run
            {
              (Compi.Runner.default_config ~info) with
              Compi.Runner.nprocs;
              inputs;
              schedule;
              step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
              on_event;
            }
        with
        | Ok _ -> ()
        | Error (`Platform_limit n) -> Alcotest.failf "%s: platform limit %d" name n)
  in
  List.iter
    (fun name ->
      let a = runner name ~nprocs:4 () in
      Alcotest.(check bool) (name ^ ": messages or collectives seen") true
        (a.a_matrix <> [] || a.a_collectives <> []))
    [ "susy-hmc"; "hpl"; "imb-mpi1"; "npb-cg" ];
  (* the wildcard race under a prescription that picks rank 2 first *)
  let wc = runner "wc-race" ~inputs:[ ("x", 7) ] ~schedule:[ 2 ] ~nprocs:3 () in
  Alcotest.(check bool) "wc-race: choice served" true (wc.a_choices > 0);
  Alcotest.(check int) "wc-race: deadlocked" 1 wc.a_deadlocks;
  List.iter
    (fun (name, body) ->
      let a =
        check_summary_oracle name (fun on_event ->
            ignore (Scheduler.run ~nprocs:3 ~on_event body))
      in
      Alcotest.(check int) (name ^ ": deadlocked") 1 a.a_deadlocks)
    [ ("cycle deadlock", cycle_deadlock); ("barrier deadlock", barrier_deadlock) ]

(* ------------------------------------------------------------------ *)
(* wire bytes golden                                                   *)
(* ------------------------------------------------------------------ *)

(* Strings, ints, lists and floats at the edges of what the encoder
   writes: quotes, backslashes, every escaped control byte, raw
   non-ASCII bytes, the int extremes, empty lists and the floats that
   need care (signed zero, nan, integral, shortest round trip). *)
let edge_samples : Obs.Event.t list =
  let hostile = "q\"b\\s/\n\r\t\b\012\000\001\031\127 \xc3\xa9\xe2\x82\xac\xff" in
  let test ~exec_s ~solve_s =
    Obs.Event.Test
      {
        test = max_int;
        parent = min_int;
        origin = hostile;
        branch = -1;
        index = -10;
        cached = true;
        nprocs = 0;
        focus = -999_999;
        covered = 1_000_000;
        reachable = 9;
        cs_size = 10;
        faults = 99;
        restarted = true;
        exec_s;
        solve_s;
      }
  in
  [
    test ~exec_s:0.0 ~solve_s:1e-7;
    test ~exec_s:(-0.0) ~solve_s:(0.1 +. 0.2);
    test ~exec_s:Float.nan ~solve_s:2.0;
    test ~exec_s:5e-324 ~solve_s:1e300;
    Campaign_start
      { target = hostile; iterations = min_int; seed = max_int; nprocs = -1; solver_cache = false };
    Compile { target = ""; funcs = 0; conds = -7; slots = 123_456_789; time_s = 123456789.0 };
    Campaign_end
      { iterations_run = 0; covered = -5; reachable = 8; bugs = 0; wall_s = Float.infinity };
    Fault { iteration = -3; rank = max_int; kind = "\"\""; detail = hostile };
    Restart { iteration = min_int; reason = "\\" };
    Sched_deadlock { ranks = [] };
    Sched_deadlock { ranks = [ min_int; -1; 0; max_int ] };
    Mpi_summary
      { nprocs = 0; sends = []; recvs = []; colls = []; blocked = []; matrix = []; collectives = [] };
    Mpi_summary
      {
        nprocs = 1;
        sends = [ max_int ];
        recvs = [ 0 ];
        colls = [ 10 ];
        blocked = [ 100 ];
        matrix = [ 1000 ];
        collectives = [ (-1, hostile, 0); (max_int, "", 7) ];
      };
    Schedule_choice { rank = -1; comm = min_int; tag = max_int; chosen = 0; alts = []; point = -2 };
    Span { domain = -1; kind = hostile; t0 = min_int; t1 = max_int };
    Span_summary { rows = [] };
    Span_summary { rows = [ (0, "exec", 3, 4_200); (min_int, hostile, max_int, 0) ] };
    Checkpoint_write { iteration = 0; path = hostile; bytes = min_int };
    Checkpoint_load { iteration = max_int; path = "" };
    Ledger_append { path = "\x7f\x80"; run = hostile; covered = -1; reachable = min_int; bugs = max_int };
    Deadlock_witness { rank = 0; comm = -1; kind = "collective:\"bar\""; peer = min_int };
    Lineage_negation
      { parent = min_int; index = max_int; branch = -100; outcome = Obs.Event.Unknown; cached = true };
    Schedule_enum { parent = -1; points = 0; emitted = max_int; pruned = min_int };
    Cache_evict { dropped = 0; entries = -0 };
  ]

(* Beside the test executable, where dune copies the test's deps. *)
let event_golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden/event_lines.txt"

let test_event_lines_golden () =
  let actual =
    String.concat ""
      (List.map
         (fun ev -> Obs.Event.to_line ev ^ "\n")
         (all_kind_samples @ edge_samples))
  in
  let expected = In_channel.with_open_bin event_golden_file In_channel.input_all in
  if actual <> expected then begin
    Out_channel.with_open_bin "event_lines.actual" (fun oc -> Out_channel.output_string oc actual);
    Alcotest.failf "event lines differ from %s (%s); see event_lines.actual" event_golden_file
      (Test_matching.first_difference expected actual)
  end

(* ------------------------------------------------------------------ *)
(* report determinism                                                  *)
(* ------------------------------------------------------------------ *)

let test_stable_report_jobs_invariant () =
  let f1 = campaign_fold ~jobs:1 ~iterations:20 in
  let f4 = campaign_fold ~jobs:4 ~iterations:20 in
  Alcotest.(check string) "stable text identical across jobs"
    (Obs.Fold.to_text ~stable:true f1)
    (Obs.Fold.to_text ~stable:true f4);
  (* re-rendering the same fold is byte-identical *)
  Alcotest.(check string) "re-render" (Obs.Fold.to_text f1) (Obs.Fold.to_text f1);
  (* the curve section plots points: a '*' before the next blank line *)
  let rec curve_section = function
    | [] -> Alcotest.fail "no coverage curve section"
    | l :: rest when String.starts_with ~prefix:"coverage curve (" l ->
      let rec until_blank = function
        | "" :: _ | [] -> []
        | l :: rest -> l :: until_blank rest
      in
      until_blank rest
    | _ :: rest -> curve_section rest
  in
  let section = curve_section (String.split_on_char '\n' (Obs.Fold.to_text f1)) in
  Alcotest.(check bool) "curve has points" true
    (List.exists (fun l -> String.contains l '*') section)

let suite =
  [
    ( "observatory",
      [
        Alcotest.test_case "line triage" `Quick test_classify_lines;
        Alcotest.test_case "unknown kinds skipped+counted" `Quick test_unknown_kinds_counted;
        Alcotest.test_case "roundtrip fold all kinds" `Quick test_roundtrip_fold_every_kind;
        Alcotest.test_case "event lines golden" `Quick test_event_lines_golden;
        Alcotest.test_case "lineage invariants" `Quick test_lineage_invariants;
        Alcotest.test_case "schedule forks are not branch covers" `Quick
          test_first_test_negated_only;
        Alcotest.test_case "one test event per execution" `Quick test_per_test_census;
        Alcotest.test_case "solver and cache views agree" `Quick test_accounting_views_agree;
        Alcotest.test_case "deadlock witness cycle" `Quick test_deadlock_witness;
        Alcotest.test_case "collective witness no cycle" `Quick
          test_collective_witness_no_false_cycle;
        Alcotest.test_case "comm matrix ring" `Quick test_comm_matrix_ring;
        Alcotest.test_case "mpi_summary = per-message fold" `Quick test_summary_oracle;
        Alcotest.test_case "stable report determinism" `Quick
          test_stable_report_jobs_invariant;
      ] );
  ]
