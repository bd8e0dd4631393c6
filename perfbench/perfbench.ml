(* Campaign benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   --trace 0 measures the end-to-end metrics through [Compi.Campaign.run],
   the path `compi-cli run` takes. --trace 1 splits one test's cost across
   the layers: a benchmark-owned replica of the campaign's jobs-1 loop
   calls each layer's public functions and times every call from here, so
   the program itself carries no extra instrumentation. The replica must
   render the same [Campaign.coverage_report] as the real campaign, which
   proves it measured the same work.

   Human-readable lines go first; the last line of standard output is one
   JSON object {"correct", "attempted", "failed", "metrics"}. A failed
   output check is reported on standard error, sets "correct" to false and
   makes the exit code 1. *)

open Compi
module Strategy = Concolic.Strategy
module Execution = Concolic.Execution
module Coverage = Concolic.Coverage

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  target : string;
  jobs : int;  (* of the per-layer run's campaigns; end to end runs one *)
  sink : bool;  (* JSONL sink installed as `compi-cli run --trace-events` does *)
  budget : int;  (* tests per campaign *)
  campaigns : int;  (* campaign seeds in the population *)
}

(* Each workload loads a different layer: negation dispatch and the cache
   (susy-search), MPI message and collective matching (imb-messages), rank
   compute (npb-compute), and the telemetry sink with, in the per-layer
   run, the worker pool (hpl-pipeline-traced, the only one that runs the
   sink or worker domains). Budgets and population sizes keep one timed
   pass over a workload's campaigns near three seconds on a 2-core host. *)
let workloads =
  [
    { name = "susy-search"; target = "susy-hmc"; jobs = 1; sink = false; budget = 200; campaigns = 6 };
    { name = "imb-messages"; target = "imb-mpi1"; jobs = 1; sink = false; budget = 80; campaigns = 4 };
    { name = "npb-compute"; target = "npb-cg"; jobs = 1; sink = false; budget = 50; campaigns = 5 };
    { name = "hpl-pipeline-traced"; target = "hpl"; jobs = 2; sink = true; budget = 200; campaigns = 4 };
  ]

let smoke_budget = 20
let setup_reps = 101
let min_passes = 3
let out_dir = Filename.concat "perfbench" "_out"
let out_file (w : workload) suffix = Filename.concat out_dir (w.name ^ "-" ^ suffix)

(* ------------------------------------------------------------------ *)
(* clock, statistics, checks                                           *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fastest = List.fold_left Float.min infinity

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0.0 else a /. float_of_int b

let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* campaigns through Campaign.run                                      *)
(* ------------------------------------------------------------------ *)

(* The settings `compi-cli run --target T --seed N --iterations B` builds. *)
let settings (t : Targets.Registry.t) ~seed ~iterations ~jobs =
  let tn = t.Targets.Registry.tuning in
  {
    Campaign.default_settings with
    Campaign.base =
      {
        Driver.default_settings with
        Driver.iterations;
        dfs_phase_iters = tn.Targets.Registry.dfs_phase;
        initial_nprocs = tn.Targets.Registry.initial_nprocs;
        step_limit = tn.Targets.Registry.step_limit;
        seed;
      };
    jobs;
  }

(* Everything before the first test can run. *)
let setup w =
  let t = Targets.Catalog.find_exn w.target in
  let info = Targets.Registry.instrument t in
  ignore (Runner.prepare ~target:t.Targets.Registry.name Runner.Exec_compiled info);
  (t, info)

let with_jsonl path f =
  let oc = open_out path in
  Obs.Sink.install (Obs.Sink.Channel_sink oc);
  Obs.Sink.set_autoflush ~events:512 ~seconds:0.5 ();
  Obs.Timeline.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Timeline.drain ();
      Obs.Timeline.disable ();
      Obs.Sink.uninstall ();
      close_out oc)
    f

let m_unknown = Obs.Metrics.counter "solver.unknown"

type run = { result : Campaign.result; wall : float; unknown : int }

let campaign ?sink (t : Targets.Registry.t) info ~seed ~iterations ~jobs =
  let settings = settings t ~seed ~iterations ~jobs in
  let go () =
    let u0 = Obs.Metrics.value m_unknown in
    let t0 = now_ns () in
    let result = Campaign.run ~settings ~label:t.Targets.Registry.name info in
    let wall = secs_since t0 in
    { result; wall; unknown = Obs.Metrics.value m_unknown - u0 }
  in
  match sink with None -> go () | Some path -> with_jsonl path go

let tests (r : Campaign.result) = r.Campaign.summary.Driver.iterations_run

(* Attempted operations are tests plus live solves; failed ones are
   platform-limited tests plus Unknown solves. *)
let attempted_ops r = tests r.result + r.result.Campaign.solver_calls
let failed_ops r = tests r.result - r.result.Campaign.executed + r.unknown

(* Iteration id of the test that last raised coverage. *)
let plateau_test (r : Campaign.result) =
  snd
    (List.fold_left
       (fun (best, last) (st : Driver.iter_stat) ->
         if st.Driver.covered_after > best then (st.Driver.covered_after, st.Driver.iteration)
         else (best, last))
       (0, 0) r.Campaign.summary.Driver.stats)

let distinct_bugs (r : Campaign.result) = Driver.distinct_bugs r.Campaign.summary

(* Every distinct bug must reproduce, on the interpreter, the same fault
   kind on the same rank. *)
let check_bugs (t : Targets.Registry.t) info (r : Campaign.result) =
  List.iter
    (fun (b : Driver.bug) ->
      let kind = Minic.Fault.kind_name b.Driver.bug_fault in
      let tc = Testcase.of_bug ~target:t.Targets.Registry.name b in
      let ok =
        match
          Testcase.replay tc ~info ~step_limit:t.Targets.Registry.tuning.Targets.Registry.step_limit
            ()
        with
        | Ok faults ->
          List.exists
            (fun (rank, f) -> rank = b.Driver.bug_rank && Minic.Fault.kind_name f = kind)
            faults
        | Error _ -> false
      in
      check ok "bug %s (test %d) does not replay to %s" (Driver.bug_key b)
        b.Driver.bug_iteration kind)
    (distinct_bugs r)

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory and written out when the run ends. A span's
   request id is the campaign round it belongs to; self time is its
   duration minus its children's. *)
type span = { id : int; parent : int; name : string; round : int; t0 : int; t1 : int }
type frame = { f_id : int; f_t0 : int; mutable f_child : int }
type agg = { mutable calls : int; mutable total : int; mutable self : int }

let spans : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0
let cur_round = ref 0
let root_ns = ref 0
let layers : (string, agg) Hashtbl.t = Hashtbl.create 16

let layer name =
  match Hashtbl.find_opt layers name with
  | Some a -> a
  | None ->
    let a = { calls = 0; total = 0; self = 0 } in
    Hashtbl.replace layers name a;
    a

let span name f =
  let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
  let fr = { f_id = !next_id; f_t0 = now_ns (); f_child = 0 } in
  incr next_id;
  stack := fr :: !stack;
  let finish () =
    let t1 = now_ns () in
    stack := List.tl !stack;
    let dur = t1 - fr.f_t0 in
    let a = layer name in
    a.calls <- a.calls + 1;
    a.total <- a.total + dur;
    a.self <- a.self + dur - fr.f_child;
    spans := { id = fr.f_id; parent; name; round = !cur_round; t0 = fr.f_t0; t1 } :: !spans;
    (* The enclosing span counts this span's bookkeeping after [t1] as
       covered, so its self time holds only work it does itself (about
       0.2 us a span, which would otherwise pile up in core.loop). *)
    let covered = now_ns () - fr.f_t0 in
    match !stack with
    | p :: _ -> p.f_child <- p.f_child + covered
    | [] -> root_ns := !root_ns + covered
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Out_channel.output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("id", Obs.Json.Int s.id); ("parent", Obs.Json.Int s.parent);
                    ("name", Obs.Json.Str s.name); ("round", Obs.Json.Int s.round);
                    ("t0_ns", Obs.Json.Int s.t0); ("t1_ns", Obs.Json.Int s.t1);
                  ]));
          Out_channel.output_char oc '\n')
        (List.rev !spans))

(* ------------------------------------------------------------------ *)
(* the traced replica of Campaign.run at jobs 1                        *)
(* ------------------------------------------------------------------ *)

type work = W_fresh of Driver.pending | W_negate of Strategy.candidate

type loop_counts = {
  mutable candidates : int;  (* negation candidates merged *)
  mutable useful : int;  (* candidates whose derived test executed *)
  mutable probes : int;
  mutable hits : int;
  mutable unknowns : int;
  mutable constraints : int;
  mutable log_bytes : int;
}

(* Same order as Campaign.run with one job: dispatch the round
   (prepare_negation + Cache.find), then per item solve or replay, derive
   and Runner.run, then merge (Cache.add, observe, absorb, restart and
   two-phase-bound rules). Telemetry emission is left out; it never
   changes the trajectory. *)
let traced_campaign w ~seed ~budget =
  let t, info =
    span "targets.instrument" (fun () ->
        let t = Targets.Catalog.find_exn w.target in
        (t, Targets.Registry.instrument t))
  in
  let cs = settings t ~seed ~iterations:budget ~jobs:1 in
  let s = cs.Campaign.base in
  let compiled =
    span "minic.compile" (fun () ->
        Runner.prepare ~target:t.Targets.Registry.name s.Driver.exec_mode info)
  in
  let base_runner =
    {
      (Runner.default_config ~info) with
      Runner.reduce = s.Driver.reduce;
      two_way = s.Driver.two_way;
      mark_mpi_sem = s.Driver.framework;
      record_all = s.Driver.framework;
      nprocs_cap = s.Driver.nprocs_cap;
      cap_overrides = s.Driver.cap_overrides;
      step_limit = s.Driver.step_limit;
      max_procs = s.Driver.max_procs;
      compiled;
    }
  in
  let n =
    {
      candidates = 0; useful = 0; probes = 0; hits = 0; unknowns = 0; constraints = 0;
      log_bytes = 0;
    }
  in
  let rng = Random.State.make [| s.Driver.seed |] in
  let program = info.Minic.Branchinfo.program in
  let coverage = Coverage.create () in
  let strategy = ref (Driver.make_strategy s info) in
  let cache = Smt.Cache.create ~capacity:cs.Campaign.cache_capacity () in
  let stats = ref [] and bugs = ref [] and max_cs = ref 0 and derived_bound = ref None in
  let iter = ref 0 and best_covered = ref 0 and last_improvement = ref 0 and barren = ref 0 in
  let last_np = ref (s.Driver.initial_nprocs, s.Driver.initial_focus) in
  let rounds = ref 0 and executed = ref 0 and solver_calls = ref 0 in
  let forced = ref [] and stagnated_round = ref false in
  let fresh_pending ~origin (nprocs, focus) =
    {
      Driver.p_inputs = Driver.random_inputs rng s program;
      p_nprocs = nprocs;
      p_focus = focus;
      p_depth = 0;
      p_origin = origin;
      p_schedule = [];
    }
  in
  let fresh_strategy () =
    match (s.Driver.strategy, !derived_bound) with
    | Driver.Two_phase_dfs, Some bound ->
      Strategy.create ~seed:(s.Driver.seed + !iter) (Strategy.Bounded_dfs bound)
    | (Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy), _ ->
      Driver.make_strategy s info
  in
  let exec (p : Driver.pending) =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    span "core.runner" (fun () ->
        Runner.run
          {
            base_runner with
            Runner.inputs = p.Driver.p_inputs;
            nprocs;
            focus = min p.Driver.p_focus (nprocs - 1);
            schedule = None;
          })
  in
  let derive ~cached (cand : Strategy.candidate) (sr : Smt.Solver.incremental_result) =
    span "core.derive" (fun () ->
        let record = cand.Strategy.record in
        let decision =
          Conflict.resolve ~prev_nprocs:record.Execution.nprocs
            ~prev_focus:record.Execution.focus ~mapping:record.Execution.mapping
            ~symtab:record.Execution.symtab ~result:sr
        in
        let inputs = Concolic.Symtab.input_values record.Execution.symtab sr.Smt.Solver.model in
        let nprocs, focus =
          if not s.Driver.framework then (s.Driver.initial_nprocs, s.Driver.initial_focus)
          else if s.Driver.resolve_conflicts then
            (decision.Conflict.nprocs, decision.Conflict.focus)
          else
            ( decision.Conflict.nprocs,
              min record.Execution.focus (decision.Conflict.nprocs - 1) )
        in
        {
          Driver.p_inputs = inputs;
          p_nprocs = nprocs;
          p_focus = focus;
          p_depth = cand.Strategy.index + 1;
          p_origin =
            Driver.O_negated
              {
                parent = record.Execution.exec_id;
                branch = Execution.branch_at record cand.Strategy.index lxor 1;
                index = cand.Strategy.index;
                cached;
              };
          p_schedule = record.Execution.exec_schedule;
        })
  in
  let merge_exec (p : Driver.pending) ~solve_s res =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    let focus = min p.Driver.p_focus (nprocs - 1) in
    (match res with
    | Error (`Platform_limit _) ->
      forced :=
        fresh_pending ~origin:Driver.O_restart (s.Driver.initial_nprocs, s.Driver.initial_focus)
        :: !forced
    | Ok (r : Runner.result) ->
      incr executed;
      r.Runner.execution.Execution.exec_id <- !iter;
      n.constraints <- n.constraints + r.Runner.constraint_set_size;
      n.log_bytes <- n.log_bytes + r.Runner.focus_log_bytes;
      span "concolic.coverage" (fun () -> Coverage.absorb ~into:coverage r.Runner.coverage);
      max_cs := max !max_cs r.Runner.constraint_set_size;
      last_np := (p.Driver.p_nprocs, p.Driver.p_focus);
      let faults = Runner.faults r in
      List.iter
        (fun (rank, fault) ->
          bugs :=
            {
              Driver.bug_iteration = !iter;
              bug_rank = rank;
              bug_fault = fault;
              bug_inputs = p.Driver.p_inputs;
              bug_nprocs = nprocs;
              bug_focus = focus;
              bug_context = r.Runner.focus_tail;
            }
            :: !bugs)
        faults;
      span "concolic.strategy" (fun () ->
          Strategy.observe !strategy ~depth:p.Driver.p_depth r.Runner.execution);
      (match s.Driver.strategy with
      | Driver.Two_phase_dfs when !iter + 1 = s.Driver.dfs_phase_iters ->
        let bound =
          match s.Driver.depth_bound with Some b -> b | None -> (!max_cs * 6 / 5) + 10
        in
        derived_bound := Some bound;
        strategy :=
          span "concolic.strategy" (fun () ->
              let st = Strategy.create ~seed:(s.Driver.seed + 1) (Strategy.Bounded_dfs bound) in
              Strategy.observe st ~depth:0 r.Runner.execution;
              st)
      | Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy -> ());
      let covered_now, reachable =
        span "concolic.coverage" (fun () ->
            ( Coverage.covered_branches coverage,
              Minic.Branchinfo.reachable_branches info
                ~encountered:(Coverage.encountered coverage) ))
      in
      if covered_now > !best_covered then begin
        best_covered := covered_now;
        last_improvement := !iter
      end;
      let stagnated =
        match s.Driver.stagnation_restart with
        | Some k -> !iter - !last_improvement >= k
        | None -> false
      in
      if stagnated then begin
        last_improvement := !iter;
        strategy := span "concolic.strategy" fresh_strategy;
        stagnated_round := true
      end;
      stats :=
        {
          Driver.iteration = !iter;
          nprocs;
          focus;
          constraint_set_size = r.Runner.constraint_set_size;
          covered_after = covered_now;
          reachable_after = reachable;
          faults_seen = List.length faults;
          restarted = stagnated;
          exec_time = r.Runner.wall_time;
          solve_time = solve_s;
        }
        :: !stats);
    incr iter
  in
  let merge_child (cand : Strategy.candidate) ~cached ~solve_s sr =
    let next = derive ~cached cand sr in
    let run = exec next in
    if Result.is_ok run then n.useful <- n.useful + 1;
    barren := 0;
    merge_exec next ~solve_s run
  in
  let process = function
    | `Fresh p -> merge_exec p ~solve_s:0.0 (exec p)
    | `Hit ((cand : Strategy.candidate), p, outcome) -> (
      n.candidates <- n.candidates + 1;
      match
        span "smt.replay" (fun () -> Execution.apply_prepared cand.Strategy.record p outcome)
      with
      | Error (`Unsat | `Unknown) -> incr barren
      | Ok sr -> merge_child cand ~cached:true ~solve_s:0.0 sr)
    | `Miss ((cand : Strategy.candidate), p) -> (
      n.candidates <- n.candidates + 1;
      incr solver_calls;
      let t0 = now_ns () in
      let outcome =
        span "smt.solve" (fun () ->
            Execution.solve_prepared ~budget:s.Driver.solver_budget cand.Strategy.record p)
      in
      let solve_s = secs_since t0 in
      let insert verdict =
        span "smt.cache.add" (fun () -> Smt.Cache.add cache (Execution.prepared_key p) verdict)
      in
      match outcome with
      | Error `Unsat ->
        insert Smt.Cache.Unsat;
        incr barren
      | Error `Unknown ->
        n.unknowns <- n.unknowns + 1;
        incr barren
      | Ok sr ->
        insert (Smt.Cache.Sat sr.Smt.Solver.fresh);
        merge_child cand ~cached:false ~solve_s sr)
  in
  let schedule () =
    let forced_items = List.rev_map (fun p -> W_fresh p) !forced in
    let restart () = forced_items @ [ W_fresh (fresh_pending ~origin:Driver.O_restart !last_np) ] in
    let exhausted () =
      barren := 0;
      restart ()
    in
    let work =
      if !stagnated_round then restart ()
      else if !barren >= s.Driver.max_solve_attempts then exhausted ()
      else
        match
          span "concolic.strategy" (fun () ->
              Strategy.next_batch !strategy ~coverage ~max:cs.Campaign.batch)
        with
        | [] -> exhausted ()
        | cands -> forced_items @ List.map (fun c -> W_negate c) cands
    in
    forced := [];
    stagnated_round := false;
    work
  in
  let t_start = now_ns () in
  let work =
    ref
      [
        W_fresh
          (fresh_pending ~origin:Driver.O_seed (s.Driver.initial_nprocs, s.Driver.initial_focus));
      ]
  in
  while !work <> [] && !iter < s.Driver.iterations do
    incr rounds;
    cur_round := !rounds;
    span "core.loop" (fun () ->
        let classified =
          List.map
            (function
              | W_fresh p -> `Fresh p
              | W_negate (cand : Strategy.candidate) -> (
                let p =
                  span "concolic.prepare" (fun () ->
                      Execution.prepare_negation cand.Strategy.record cand.Strategy.index)
                in
                n.probes <- n.probes + 1;
                match
                  span "smt.cache.find" (fun () ->
                      Smt.Cache.find cache (Execution.prepared_key p))
                with
                | Some outcome ->
                  n.hits <- n.hits + 1;
                  `Hit (cand, p, outcome)
                | None -> `Miss (cand, p)))
            !work
        in
        let rec go = function
          | item :: rest when !iter < s.Driver.iterations ->
            process item;
            go rest
          | _ -> ()
        in
        go classified;
        work := if !iter < s.Driver.iterations then schedule () else [])
  done;
  cur_round := 0;
  let covered, reachable =
    span "concolic.coverage" (fun () ->
        ( Coverage.covered_branches coverage,
          Minic.Branchinfo.reachable_branches info ~encountered:(Coverage.encountered coverage)
        ))
  in
  let result =
    {
      Campaign.summary =
        {
          Driver.coverage;
          stats = List.rev !stats;
          bugs = List.rev !bugs;
          total_branches = info.Minic.Branchinfo.total_branches;
          reachable_branches = reachable;
          covered_branches = covered;
          coverage_rate = ratio covered reachable;
          iterations_run = !iter;
          wall_time = secs_since t_start;
          max_constraint_set = !max_cs;
          derived_bound = !derived_bound;
        };
      rounds = !rounds;
      executed = !executed;
      speculated = 0;
      solver_calls = !solver_calls;
      cache = Some (Smt.Cache.stats cache);
      interrupted = false;
      checkpoints_written = 0;
      queue_depth = 0;
      worker_busy_s = 0.0;
    }
  in
  (result, n)

(* ------------------------------------------------------------------ *)
(* metric sets                                                         *)
(* ------------------------------------------------------------------ *)

(* The workload's campaign seeds: a fixed population 1..[campaigns], in an
   order drawn from --seed. Campaign cost varies about tenfold between
   campaign seeds (coefficient of variation near 1 per 100 tests on
   susy-hmc and imb-mpi1), so a population that changed with --seed
   would need tens of thousands of tests per run to be steady. With
   --held-out the population is the [campaigns] seeds after
   [campaigns * seed] instead, disjoint from the fixed one, so the output
   checks and the calibration can be tried on campaigns the benchmark was
   not built on; its times are not comparable between seeds. *)
let campaign_seeds ~held_out ~seed ~campaigns =
  let first = if held_out then campaigns * max 1 seed else 0 in
  let a = Array.init campaigns (fun j -> first + j + 1) in
  let rng = Random.State.make [| seed |] in
  for i = campaigns - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Remembers each campaign's report by (campaign seed, budget) and checks
   that every later run of the same campaign renders it byte for byte. *)
let same_reports () =
  let seen = Hashtbl.create 16 in
  fun ~seed ~budget (r : Campaign.result) ->
    let report = Campaign.coverage_report r in
    match Hashtbl.find_opt seen (seed, budget) with
    | None -> Hashtbl.replace seen (seed, budget) report
    | Some prev ->
      check (String.equal prev report)
        "campaign seed %d, %d tests: coverage reports differ between runs" seed budget

let covered (r : Campaign.result) = r.Campaign.summary.Driver.covered_branches

(* One campaign of the population across the timed passes. *)
type sample = {
  n : int;  (* tests run under the full budget *)
  plateau : int;  (* budget that ends at the test that last raised coverage *)
  cov : int;
  best : float array;  (* fastest exec + solve time of each test, by iteration *)
  mutable rest_full : float;  (* fastest wall outside the tests, full budget *)
  mutable rest_cut : float;  (* the same, for the run cut at the plateau test *)
}

(* Folds a timed run into its campaign's fastest per-test times and
   returns the run's wall outside its tests: dispatch, unsatisfiable
   solves, merge and the campaign's own bookkeeping. *)
let absorb_tests sm (r : run) =
  let in_tests =
    List.fold_left
      (fun acc (st : Driver.iter_stat) ->
        let x = st.Driver.exec_time +. st.Driver.solve_time in
        let i = st.Driver.iteration in
        if x < sm.best.(i) then sm.best.(i) <- x;
        acc +. x)
      0.0 r.result.Campaign.summary.Driver.stats
  in
  r.wall -. in_tests

(* Sum of the fastest times of the tests before [upto]; a test that never
   executed (platform-limited) has none. *)
let best_tests sm upto =
  let s = ref 0.0 in
  for i = 0 to upto - 1 do
    if Float.is_finite sm.best.(i) then s := !s +. sm.best.(i)
  done;
  !s

(* The host's speed drifts over minutes as well: ten 20 s runs of
   imb-messages, one after another, read 92 to 154 tests/s. No statistic
   within a run removes that, so every timed campaign run is preceded by a
   reference probe, a fixed piece of work owned by the benchmark: build an
   [Int_map] of 2^14 pseudo-random keys and update a quarter of it, the
   allocation, promotion and pointer chasing a campaign does. The timed
   figures are scaled by [probe_nominal_s] over the run's fastest probe, so
   they read as on a host where the probe takes 10 ms. The probe tracks
   the drift: over those ten runs the spread of tests_per_s fell from 0.17
   to 0.05 and of time_to_plateau_s from 0.18 to 0.06. The probe calls
   nothing in the program, so a change to the program moves the scaled
   figures as it moves the raw ones. Set-up, under a millisecond of mostly
   cold code, does not follow the probe (over five runs of susy-search its
   spread rose from 0.10 to 0.17 when scaled), so setup_s is not scaled. *)
module Int_map = Map.Make (Int)

let probe_keys = 1 lsl 14
let probe_nominal_s = 0.01

let probe () =
  let st = Random.State.make [| 17 |] in
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 1 to probe_keys do
    m := Int_map.add (Random.State.bits st) i !m
  done;
  for _ = 1 to probe_keys / 4 do
    let k = Random.State.bits st in
    m := Int_map.add k (Option.value ~default:0 (Int_map.find_opt k !m) + 1) !m
  done;
  ignore (Sys.opaque_identity !m);
  secs_since t0

(* --trace 0: timed passes over the campaign population until [seconds]
   have passed, at least [min_passes] of them. Each campaign runs to its
   test budget and again cut at its plateau test; the population's times
   are summed.

   On a shared host the core slows, in bursts of a few seconds, by up to
   half (the same campaign timed 0.92-1.46 s within one process, CPU time
   equal to wall, with identical GC counts). A run of 20 s holds only
   three or four passes, so a campaign that takes a second or more can be
   caught by a burst on every pass. Campaigns are deterministic, so every
   run of a campaign executes the same tests, and a run cut at the plateau
   test repeats the full run's first tests. A campaign's time is therefore
   assembled test by test: each test's fastest exec + solve time over all
   timed runs of its campaign, plus the fastest wall the campaign spent
   outside its tests, so a burst counts only if it covers the same test on
   every pass (over five runs of imb-messages: spread 0.09 with the
   fastest pass per campaign, 0.05 assembled).

   Campaigns here run at one job on every workload, hpl-pipeline-traced
   included. At two jobs the main domain waits, in merge order, for tasks
   a worker has claimed, and the hypervisor takes the second core away for
   seconds at a time: over ten runs at two jobs hpl-pipeline-traced read
   159 to 345 tests/s (spread 0.52). The probe on one core did not follow
   that; run on both cores at once it doubled under a competing process
   that left the campaign's speed unchanged. Tests also overlap across
   domains there, so the wall is not a sum of test times. The per-layer
   run keeps the workload's two jobs for the worker pool's metrics. *)
let end_to_end (w : workload) ~seeds ~seconds ~budget =
  let t, info = setup w in
  let sink = if w.sink then Some (out_file w "events.jsonl") else None in
  let campaigns = List.length seeds in
  let attempted = ref 0 and failed = ref 0 in
  let same = same_reports () in
  let probes = ref [] in
  let run ?(timed = false) ~seed iterations =
    (* every campaign starts from a compacted heap, as in a fresh
       `compi-cli run` process, so its time and heap peak do not depend
       on the garbage the campaigns before it left *)
    Gc.compact ();
    if timed then begin
      probes := probe () :: !probes;
      Gc.compact ()
    end;
    let r = campaign ?sink t info ~seed ~iterations ~jobs:1 in
    same ~seed ~budget:iterations r.result;
    attempted := !attempted + attempted_ops r;
    failed := !failed + failed_ops r;
    r
  in
  (* Untimed first pass in campaign-seed order: checks each campaign's
     plateau cut and bugs, and lets the heap grow to its working size,
     which [peak_heap_mb] reads before any timed pass can add to it. *)
  let samples =
    List.map
      (fun seed ->
        let full = run ~seed budget in
        let plateau = plateau_test full.result + 1 in
        let cut = run ~seed plateau in
        check
          (covered cut.result = covered full.result)
          "campaign seed %d cut at its plateau test %d covers %d branches, uncut %d" seed
          plateau (covered cut.result) (covered full.result);
        check_bugs t info full.result;
        let n = tests full.result in
        ( seed,
          {
            n; plateau; cov = covered full.result; best = Array.make n infinity;
            rest_full = infinity; rest_cut = infinity;
          } ))
      (List.sort compare seeds)
  in
  let peak_heap = peak_heap_mb () in
  (* Set-up is timed in every pass, like the campaigns, from a compacted
     heap: the median of a pass's set-ups, fastest pass taken. *)
  let setups = ref [] in
  let pass () =
    Gc.compact ();
    setups :=
      median
        (List.init setup_reps (fun _ ->
             let t0 = now_ns () in
             ignore (setup w);
             secs_since t0))
      :: !setups;
    List.iter
      (fun seed ->
        let sm = List.assoc seed samples in
        sm.rest_full <- Float.min sm.rest_full (absorb_tests sm (run ~timed:true ~seed budget));
        sm.rest_cut <- Float.min sm.rest_cut (absorb_tests sm (run ~timed:true ~seed sm.plateau)))
      seeds
  in
  let passes = ref 0 in
  let t0 = now_ns () in
  while !passes < min_passes || secs_since t0 < seconds do
    pass ();
    incr passes
  done;
  let total f = List.fold_left (fun acc (_, sm) -> acc +. f sm) 0.0 samples in
  let k = float_of_int campaigns in
  let tps =
    total (fun sm -> float_of_int sm.n) /. total (fun sm -> best_tests sm sm.n +. sm.rest_full)
  in
  let ttp = total (fun sm -> best_tests sm sm.plateau +. sm.rest_cut) /. k in
  let setup_s = fastest !setups in
  let scale = probe_nominal_s /. fastest !probes in
  Printf.printf "workload %s: %d campaigns of %d tests, %d timed passes\n" w.name campaigns
    budget !passes;
  Printf.printf
    "unscaled: tests_per_s %.3f, time_to_plateau_s %.6f; %d probes, fastest %.6f s, median \
     %.6f s\n"
    tps ttp (List.length !probes) (fastest !probes) (median !probes);
  ( !attempted,
    !failed,
    [
      ("setup_s", setup_s, "s");
      ("tests_per_s", tps /. scale, "1/s");
      ("time_to_plateau_s", ttp *. scale, "s");
      ("covered_branches", total (fun sm -> float_of_int sm.cov) /. k, "count");
      ("peak_heap_mb", peak_heap, "MB");
    ] )

let count_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go k = match In_channel.input_line ic with Some _ -> go (k + 1) | None -> k in
      go 0)

(* Layers whose self time the calibration line compares. *)
let layer_names =
  [
    "targets.instrument"; "minic.compile"; "core.loop"; "core.runner"; "core.derive";
    "concolic.prepare"; "concolic.strategy"; "concolic.coverage"; "smt.cache.find";
    "smt.cache.add"; "smt.solve"; "smt.replay";
  ]

let self_ns name = float_of_int (layer name).self

let calibration (w : workload) =
  let top =
    List.fold_left
      (fun best l -> if self_ns l > self_ns best then l else best)
      "core.loop" layer_names
  in
  let all = List.fold_left (fun acc l -> acc +. self_ns l) 0.0 layer_names in
  let share = if all = 0.0 then 0.0 else self_ns top /. all in
  let expect, ok =
    match w.name with
    | "imb-messages" | "npb-compute" -> ("core.runner", top = "core.runner")
    | "susy-search" ->
      ( "concolic.prepare + smt.cache.find ahead of smt.solve",
        self_ns "concolic.prepare" +. self_ns "smt.cache.find" > self_ns "smt.solve" )
    | _ -> ("no expectation", true)
  in
  Printf.printf "calibration %s: most self time in %s (%.1f%%); expected %s%s\n" w.name top
    (100.0 *. share) expect
    (if ok then "" else " -- WARNING: the workload does not load the layer it was chosen for")

(* One repetition of the traced run: the replica beside untraced
   campaigns with the sink on and off (and at jobs 1 when the workload
   runs more jobs). *)
type rep = {
  on : run;  (* sink installed *)
  off : run;  (* no sink *)
  jobs1 : run;  (* no sink, one job *)
  events : int;
  event_bytes : int;
  traced : Campaign.result;
  counts : loop_counts;
  traced_ns : int;
  steps : float;
  messages : int;
  collectives : int;
}

let m_steps = Obs.Metrics.histogram "compiled.steps_per_run"
let m_messages = Obs.Metrics.counter "sched.messages"
let m_collectives = Obs.Metrics.counter "sched.collectives"

let traced_rep w t info ~seed ~budget =
  let events_path = out_file w "events.jsonl" in
  let run ?sink jobs = campaign ?sink t info ~seed ~iterations:budget ~jobs in
  let on = run ~sink:events_path w.jobs in
  let events = count_lines events_path and event_bytes = (Unix.stat events_path).Unix.st_size in
  let off = run w.jobs in
  let jobs1 = if w.jobs = 1 then off else run 1 in
  spans := [];
  let s0 = Obs.Metrics.histogram_sum m_steps
  and g0 = Obs.Metrics.value m_messages
  and c0 = Obs.Metrics.value m_collectives in
  let w0 = now_ns () in
  let traced, counts = traced_campaign w ~seed ~budget in
  let traced_ns = now_ns () - w0 in
  {
    on; off; jobs1; events; event_bytes; traced; counts; traced_ns;
    steps = Obs.Metrics.histogram_sum m_steps -. s0;
    messages = Obs.Metrics.value m_messages - g0;
    collectives = Obs.Metrics.value m_collectives - c0;
  }

(* --trace 1: traced repetitions over the campaign population for
   [seconds]; every total sums over the repetitions. *)
let per_layer w ~seeds ~seconds ~budget =
  let t, info = setup w in
  Hashtbl.reset layers;
  root_ns := 0;
  let campaigns = List.length seeds in
  let seeds = Array.of_list seeds in
  let same = same_reports () in
  let reps = ref [] in
  let t0 = now_ns () in
  while !reps = [] || secs_since t0 < seconds do
    let seed = seeds.(List.length !reps mod campaigns) in
    let r = traced_rep w t info ~seed ~budget in
    List.iter (same ~seed ~budget) [ r.on.result; r.off.result; r.jobs1.result; r.traced ];
    reps := r :: !reps
  done;
  let reps = !reps in
  let last = List.hd reps in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reps in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 reps in
  let mean f = float_of_int (sum f) /. float_of_int (List.length reps) in
  check_bugs t info last.traced;
  write_spans (out_file w "spans.jsonl");
  calibration w;
  let tests_traced = sum (fun r -> tests r.traced) in
  let tests_off = sum (fun r -> tests r.off.result) in
  let per_test x = per x tests_traced in
  let total l = float_of_int (layer l).total in
  let ns_per_call l = per (total l) (layer l).calls in
  let c f = sum (fun r -> f r.counts) in
  let solves = (layer "smt.solve").calls in
  let runner_ms = total "core.runner" *. 1e-6 in
  let traced_ns = float_of_int (sum (fun r -> r.traced_ns)) in
  let off_wall = sumf (fun r -> r.off.wall) in
  let field f = sum (fun r -> f r.off.result) in
  let runs r = if w.jobs = 1 then [ r.on; r.off ] else [ r.on; r.off; r.jobs1 ] in
  let attempted = sum (fun r -> List.fold_left (fun a x -> a + attempted_ops x) 0 (runs r)) in
  let failed = sum (fun r -> List.fold_left (fun a x -> a + failed_ops x) 0 (runs r)) in
  ( attempted,
    failed,
    [
      ("targets.instrument_s", ns_per_call "targets.instrument" *. 1e-9, "s");
      ("minic.compile_s", ns_per_call "minic.compile" *. 1e-9, "s");
      ("core.runner.ns_per_test", per_test (total "core.runner"), "ns");
      ("minic.steps_per_test", per_test (sumf (fun r -> r.steps)), "count");
      ("mpisim.messages_per_test", per_test (float_of_int (sum (fun r -> r.messages))), "count");
      ( "mpisim.collectives_per_test",
        per_test (float_of_int (sum (fun r -> r.collectives))),
        "count" );
      ( "mpisim.ops_per_ms",
        (if runner_ms = 0.0 then 0.0
         else float_of_int (sum (fun r -> r.messages + r.collectives)) /. runner_ms),
        "1/ms" );
      ( "concolic.pathlog.constraints_per_test",
        per_test (float_of_int (c (fun n -> n.constraints))),
        "count" );
      ("concolic.pathlog.log_bytes_per_test", per_test (float_of_int (c (fun n -> n.log_bytes))), "bytes");
      ("concolic.prepare.ns_per_call", ns_per_call "concolic.prepare", "ns");
      ("concolic.prepare.calls_per_test", per_test (float_of_int (layer "concolic.prepare").calls), "count");
      ("smt.cache.find.ns_per_call", ns_per_call "smt.cache.find", "ns");
      ("smt.cache.add.ns_per_call", ns_per_call "smt.cache.add", "ns");
      ("smt.cache.probes_per_test", per_test (float_of_int (c (fun n -> n.probes))), "count");
      ("smt.cache.hit_ratio", ratio (c (fun n -> n.hits)) (c (fun n -> n.probes)), "ratio");
      ("smt.solve.ns_per_call", ns_per_call "smt.solve", "ns");
      ("smt.solve.calls_per_test", per_test (float_of_int solves), "count");
      ("smt.solve.unknown_ratio", ratio (c (fun n -> n.unknowns)) solves, "ratio");
      ("smt.replay.ns_per_call", ns_per_call "smt.replay", "ns");
      ("core.derive.ns_per_call", ns_per_call "core.derive", "ns");
      ("core.useful_ratio", ratio (c (fun n -> n.useful)) (c (fun n -> n.candidates)), "ratio");
      ("concolic.strategy.ns_per_test", per_test (total "concolic.strategy"), "ns");
      ("concolic.coverage.ns_per_test", per_test (total "concolic.coverage"), "ns");
      ("concolic.strategy.tests_to_plateau", mean (fun r -> plateau_test r.traced + 1), "count");
      ("core.loop.self_ns_per_test", per_test (float_of_int (layer "core.loop").self), "ns");
      ( "core.taskpool.utilization",
        sumf (fun r -> r.off.result.Campaign.worker_busy_s)
        /. (off_wall *. float_of_int w.jobs),
        "ratio" );
      ( "core.taskpool.queue_depth",
        float_of_int (List.fold_left (fun m r -> max m r.off.result.Campaign.queue_depth) 0 reps),
        "count" );
      ( "core.campaign.speculated_ratio",
        ratio (field (fun r -> r.Campaign.speculated)) (field (fun r -> r.Campaign.executed)),
        "ratio" );
      ("core.campaign.rounds_per_test", ratio (field (fun r -> r.Campaign.rounds)) tests_off, "count");
      ("obs.events_per_test", ratio (sum (fun r -> r.events)) (sum (fun r -> tests r.on.result)), "count");
      ( "obs.bytes_per_test",
        ratio (sum (fun r -> r.event_bytes)) (sum (fun r -> tests r.on.result)),
        "bytes" );
      ("obs.overhead_ratio", sumf (fun r -> r.on.wall) /. off_wall, "ratio");
      ( "smt.cache.entries",
        (match last.off.result.Campaign.cache with
        | Some cs -> float_of_int cs.Smt.Cache.entries
        | None -> 0.0),
        "count" );
      ("trace.unattributed_share", 1.0 -. (float_of_int !root_ns /. traced_ns), "ratio");
      (* the catch-all core.loop span hides untimed work from the share
         above; its self time shows it *)
      ("trace.loop_self_share", float_of_int (layer "core.loop").self /. traced_ns, "ratio");
      ( "trace.overhead_ratio",
        (traced_ns -. total "targets.instrument") *. 1e-9 /. sumf (fun r -> r.jobs1.wall),
        "ratio" );
      ("bugs_found", mean (fun r -> List.length (distinct_bugs r.off.result)), "count");
      ("failed_share", ratio failed attempted, "ratio");
    ] )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke = ref false and held_out = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N orders the workload's population of campaign seeds");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer table (1)");
      ("--smoke", Arg.Set smoke, " tiny campaigns, for the smoke test");
      ("--held-out", Arg.Set held_out, " campaign seeds drawn from --seed, outside the population");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--held-out]";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let budget, campaigns = if !smoke then (smoke_budget, 2) else (w.budget, w.campaigns) in
  let seeds = campaign_seeds ~held_out:!held_out ~seed:!seed ~campaigns in
  let attempted, failed, metrics =
    if !trace = 1 then per_layer w ~seeds ~seconds:!seconds ~budget
    else end_to_end w ~seeds ~seconds:!seconds ~budget
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %16.6f %s\n" name v unit) metrics;
  List.iter (Printf.eprintf "check failed: %s\n") (List.rev !failures);
  let correct = !failures = [] in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
