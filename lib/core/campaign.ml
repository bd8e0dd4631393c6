open Minic
open Concolic

(* The campaign engine: the paper's testing loop (run, negate, solve,
   derive, repeat) and the only one in the repository — the experiments,
   examples, tests and CLI all run it.

   A loop that interleaves "execute the pending test" and "derive the
   next test" makes each iteration depend on the previous one. This
   engine instead runs the campaign as a deterministic pipeline: each
   round's work list of independent items
   — fresh tests to execute, or branch negations to attempt — is
   published to a {!Taskpool} of persistent worker domains, and the
   main domain consumes results {e in work-list order as they stream
   in}, merging item k while the pool is still solving/executing items
   k+1, k+2, … Iteration ids are assigned at the merge. There is no
   round barrier: the only wait is the in-order consumer blocking on
   the single result it needs next (the [queue.wait] span). Because the
   work list of every round is a pure function of the merged state
   (strategy, coverage, RNG) and the merge order ignores completion
   order, the campaign trajectory is identical for any worker count:
   [--jobs] buys wall-clock time, never different results. Determinism
   holds under an iteration budget; a wall-clock [time_budget] cuts
   rounds off at a machine-speed-dependent point.

   The solver cache lives on the main domain only. Each negation is
   probed at dispatch (before its task is queued) and verdicts are
   inserted at merge, so cache state transitions also happen at
   deterministic points. Within one round two structurally identical
   negations both miss and both solve; the merge inserts the first
   verdict and drops the duplicate (first-verdict-wins).

   Negations are solved in {e canonical} mode (sorted closure, no
   preference model) whether the cache is on or off: the verdict is
   then a pure function of the cache key, so a hit replays exactly what
   a live solve would have returned even though the verdict was found
   under a different run's concrete model, and cache on/off cannot
   change the trajectory.

   Checkpointing piggybacks on the same structure. Every state mutation
   happens on the main domain at a merge position — after item k of the
   round, before item k+1 — so a {!Checkpoint.snapshot} taken there
   (merged state + the un-merged tail as work items) is a point the
   uninterrupted run also passes through with identical state. A resume
   re-dispatches the tail: executions are pure functions of their
   pending record and canonical verdicts are pure functions of their
   cache key, so the resumed trajectory — and the final coverage
   report — is byte-identical to the uninterrupted run's, at any
   worker count. (A tail negation may hit the cache where the original
   run solved live; canonical mode makes the replay equal to the solve,
   which is exactly the PR-2 invariant.) Snapshots are also taken when
   the iteration budget or a SIGINT/SIGTERM cuts the merge short, so a
   budget-capped run leaves a checkpoint a longer resume can continue
   from mid-round. *)

type settings = {
  base : Driver.settings;
  jobs : int;  (* worker domains, >= 1; main participates *)
  batch : int;  (* candidates drawn per round — NOT tied to [jobs] *)
  solver_cache : bool;
  cache_capacity : int;
  checkpoint : string option;  (* snapshot directory; None = no checkpointing *)
  checkpoint_every : int;  (* periodic snapshot cadence in iterations *)
  resume : bool;  (* load the snapshot under [checkpoint] before running *)
  status_file : string option;  (* live status snapshot path; None = off *)
  ledger : string option;  (* run-ledger JSONL store; None = off *)
}

let default_settings =
  {
    base = Driver.default_settings;
    jobs = 1;
    batch = 4;
    solver_cache = true;
    cache_capacity = Smt.Cache.default_capacity;
    checkpoint = None;
    checkpoint_every = 50;
    resume = false;
    status_file = None;
    ledger = None;
  }

type result = {
  summary : Driver.result;
  rounds : int;
  executed : int;  (* merged test executions *)
  speculated : int;  (* executions completed but dropped at the budget edge *)
  solver_calls : int;  (* live solves whose verdicts merged into the trajectory *)
  cache : Smt.Cache.stats option;
  interrupted : bool;  (* a SIGINT/SIGTERM stopped the campaign early *)
  checkpoints_written : int;
  queue_depth : int;  (* peak claimed-but-unmerged pipeline depth *)
  worker_busy_s : float;  (* cumulative task wall time across all domains *)
}

(* --- work items and task outcomes --------------------------------- *)

type exec_result = (Runner.result, [ `Platform_limit of int ]) Stdlib.result

(* The work-item type is owned by {!Checkpoint} so snapshots can carry
   the un-merged tail of a round. *)
type work = Checkpoint.work =
  | W_fresh of Driver.pending
  | W_negate of Strategy.candidate

type negated_outcome =
  | N_unsat
  | N_unknown
  | N_sat of { fresh : Smt.Model.t; next : Driver.pending; run : exec_result }

type done_item =
  | D_fresh of Driver.pending * exec_result
  | D_negated of {
      solved : bool;  (* live solver call (miss), as opposed to a cached replay *)
      key : Smt.Cache.key option;  (* insert verdict at merge when present *)
      solve_s : float;
      outcome : negated_outcome;
    }

(* --- telemetry ------------------------------------------------------ *)

let m_iterations = Obs.Metrics.counter "campaign.iterations"
let m_restarts = Obs.Metrics.counter "campaign.restarts"
let m_faults = Obs.Metrics.counter "campaign.faults"
let m_checkpoints = Obs.Metrics.counter "campaign.checkpoints"
let m_cs_size = Obs.Metrics.histogram "campaign.constraint_set"
let g_covered = Obs.Metrics.gauge "campaign.covered"
let g_reachable = Obs.Metrics.gauge "campaign.reachable"

(* Lineage: each merged test's [test] event records where it came from,
   each negation attempt its verdict against the candidate it negated. *)
let origin_fields = function
  | Driver.O_seed -> ("seed", -1, -1, -1, false)
  | Driver.O_restart -> ("restart", -1, -1, -1, false)
  | Driver.O_negated { parent; branch; index; cached } ->
    ("negated", parent, branch, index, cached)
  | Driver.O_schedule { parent; point; source } ->
    (* reuse the lineage slots: index = flipped choice point, branch =
       alternative source delivered *)
    ("schedule", parent, source, point, false)

let lineage_negation (cand : Strategy.candidate) ~outcome ~cached =
  Obs.Event.Lineage_negation
    {
      parent = cand.Strategy.record.Execution.exec_id;
      index = cand.Strategy.index;
      (* the *negated* branch: the flipped side of the conditional *)
      branch = Execution.branch_at cand.Strategy.record cand.Strategy.index lxor 1;
      outcome;
      cached;
    }

(* Derive the next test from a SAT negation — the input- and
   process-derivation step (conflict resolution included). Pure with
   respect to shared state, so workers run it. *)
let derive (s : Driver.settings) ~cached (cand : Strategy.candidate)
    (sr : Smt.Solver.incremental_result) =
  let record = cand.Strategy.record in
  let decision =
    Conflict.resolve ~prev_nprocs:record.Execution.nprocs
      ~prev_focus:record.Execution.focus ~mapping:record.Execution.mapping
      ~symtab:record.Execution.symtab ~result:sr
  in
  let inputs = Symtab.input_values record.Execution.symtab sr.Smt.Solver.model in
  let nprocs, focus =
    if not s.Driver.framework then (s.Driver.initial_nprocs, s.Driver.initial_focus)
    else if s.Driver.resolve_conflicts then
      (decision.Conflict.nprocs, decision.Conflict.focus)
    else
      (decision.Conflict.nprocs, min record.Execution.focus (decision.Conflict.nprocs - 1))
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
    (* the child replays its parent's wildcard-match prescription, so
       the negation varies only the input coordinate of the
       (input, schedule) pair *)
    p_schedule = record.Execution.exec_schedule;
  }

let run ?(settings = default_settings) ?(label = "") (info : Branchinfo.t) =
  let s = settings.base in
  let fp =
    Checkpoint.fingerprint ~label ~batch:settings.batch
      ~solver_cache:settings.solver_cache ~cache_capacity:settings.cache_capacity s
  in
  (* Load the snapshot up front: a resume that cannot proceed must fail
     before any campaign state (or telemetry) exists. *)
  let resumed =
    if not settings.resume then None
    else
      match settings.checkpoint with
      | None ->
        raise
          (Checkpoint.Load_error
             (Checkpoint.Corrupt "resume requested without a checkpoint directory"))
      | Some dir -> (
        match Checkpoint.load ~dir with
        | Error e -> raise (Checkpoint.Load_error e)
        | Ok snap -> (
          match Checkpoint.mismatches ~stored:snap.Checkpoint.ck_fingerprint ~current:fp with
          | [] -> Some (dir, snap)
          | ms -> raise (Checkpoint.Load_error (Checkpoint.Settings_mismatch ms))))
  in
  let snap_field f default = match resumed with Some (_, sn) -> f sn | None -> default in
  (* The campaign folds every event it emits. Its result, status
     snapshots and ledger record read this one fold, so they agree with
     a fold of the trace by construction, and a resume restores the
     fold with the rest of the merged state. *)
  let fold = snap_field (fun sn -> sn.Checkpoint.ck_fold) (Obs.Fold.init ()) in
  let emit ev =
    ignore (Obs.Fold.step fold ev);
    Obs.Sink.emit ev
  in
  let rng = snap_field (fun sn -> sn.Checkpoint.ck_rng) (Random.State.make [| s.Driver.seed |]) in
  let program = info.Branchinfo.program in
  let coverage = snap_field (fun sn -> sn.Checkpoint.ck_coverage) (Coverage.create ()) in
  let strategy =
    ref (snap_field (fun sn -> sn.Checkpoint.ck_strategy) (Driver.make_strategy s info))
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
      (* compiled once here, then shared read-only by every worker
         domain; per-run state lives in per-run frames. Deliberately NOT
         part of the checkpoint fingerprint: the two exec modes are
         observationally identical, so a snapshot written under either
         resumes under either. *)
      compiled = Runner.prepare ~target:label s.Driver.exec_mode info;
    }
  in
  let cache =
    if not settings.solver_cache then None
    else
      match snap_field (fun sn -> sn.Checkpoint.ck_cache) None with
      | Some c -> Some c
      | None -> Some (Smt.Cache.create ~capacity:settings.cache_capacity ())
  in
  (* The campaign owns the span timeline unless the caller (CLI, test
     harness) already enabled it. Enabling must precede pool creation so
     the worker domains' spans share the epoch. *)
  let tl_owner = Obs.Timeline.claim () in
  let campaign_tk = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
  let pool = Taskpool.create ~jobs:settings.jobs in
  (* A stop request from SIGINT/SIGTERM parks the campaign at the next
     merge position — the same cut the iteration budget uses — so the
     final flush below leaves a checkpoint a resume can continue from.
     Handlers are installed only when checkpointing is on; otherwise
     Ctrl-C keeps its default meaning. *)
  let stop = ref false in
  let old_handlers =
    match settings.checkpoint with
    | None -> []
    | Some _ ->
      List.filter_map
        (fun sg ->
          match Sys.signal sg (Sys.Signal_handle (fun _ -> stop := true)) with
          | old -> Some (sg, old)
          | exception (Invalid_argument _ | Sys_error _) -> None)
        [ Sys.sigint; Sys.sigterm ]
  in
  (* Any exception out of a round (a worker failure re-raised by
     Taskpool.next, a solver bug on the main domain) must still stop and
     join the spawned domains — otherwise they block on the pool's
     condition variable forever and the runtime hangs at exit waiting
     for them. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (sg, old) -> try Sys.set_signal sg old with Invalid_argument _ | Sys_error _ -> ()) old_handlers;
      Taskpool.shutdown pool;
      (* one umbrella "campaign" span closes over setup, every round
         and the teardown just done, so the profile can attribute the
         engine's full extent even where no finer span runs; then flush
         whatever the workers buffered (shutdown's join has already
         fenced them) and release the timeline if we own it *)
      if Obs.Timeline.on () then begin
        Obs.Timeline.record ~kind:"campaign" ~t0:campaign_tk
          ~t1:(Obs.Timeline.tick ());
        Obs.Timeline.drain ()
      end;
      if tl_owner then Obs.Timeline.disable ())
  @@ fun () ->
  (match resumed with
  | Some (dir, sn) ->
    emit
      (Obs.Event.Checkpoint_load
         { iteration = sn.Checkpoint.ck_iter; path = Checkpoint.file ~dir })
  | None -> ());
  emit
    (Obs.Event.Campaign_start
       {
         target = label;
         iterations = s.Driver.iterations;
         seed = s.Driver.seed;
         nprocs = s.Driver.initial_nprocs;
         solver_cache = settings.solver_cache;
       });
  let t_start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let time_ok () =
    match s.Driver.time_budget with Some b -> elapsed () < b | None -> true
  in
  let stats = ref (snap_field (fun sn -> sn.Checkpoint.ck_stats) []) in
  let bugs = ref (snap_field (fun sn -> sn.Checkpoint.ck_bugs) []) in
  let max_cs = ref (snap_field (fun sn -> sn.Checkpoint.ck_max_cs) 0) in
  let derived_bound = ref (snap_field (fun sn -> sn.Checkpoint.ck_derived_bound) None) in
  let iter = ref (snap_field (fun sn -> sn.Checkpoint.ck_iter) 0) in
  let best_covered = ref (snap_field (fun sn -> sn.Checkpoint.ck_best_covered) 0) in
  let last_improvement = ref (snap_field (fun sn -> sn.Checkpoint.ck_last_improvement) 0) in
  (* consecutive failed negations since a SAT one *)
  let barren = ref (snap_field (fun sn -> sn.Checkpoint.ck_barren) 0) in
  let last_np =
    ref
      (snap_field
         (fun sn -> sn.Checkpoint.ck_last_np)
         (s.Driver.initial_nprocs, s.Driver.initial_focus))
  in
  let rounds = ref (snap_field (fun sn -> sn.Checkpoint.ck_rounds) 0) in
  let executed = ref (snap_field (fun sn -> sn.Checkpoint.ck_executed) 0) in
  let speculated = ref (snap_field (fun sn -> sn.Checkpoint.ck_speculated) 0) in
  let emit_restart reason =
    Obs.Metrics.incr m_restarts;
    emit (Obs.Event.Restart { iteration = !iter; reason })
  in
  (* restart tests queued during the merge; consumed (and cleared) by
     the scheduling step, so mid-round snapshots carry exactly the
     items accumulated since the last schedule *)
  let forced = ref (snap_field (fun sn -> sn.Checkpoint.ck_forced) []) in
  let stagnated_round = ref (snap_field (fun sn -> sn.Checkpoint.ck_stagnated_round) false) in
  (* schedule forks enumerated during merges; consumed (and cleared) by
     the scheduling step, mirroring [forced] *)
  let schedules_q = ref (snap_field (fun sn -> sn.Checkpoint.ck_schedules) []) in
  let checkpoints_written = ref 0 in
  (* peak pipeline depth across rounds, for the result record *)
  let max_depth = ref 0 in
  let fresh_strategy () =
    match (s.Driver.strategy, !derived_bound) with
    | Driver.Two_phase_dfs, Some bound ->
      Strategy.create ~seed:(s.Driver.seed + !iter) (Strategy.Bounded_dfs bound)
    | (Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy), _ ->
      Driver.make_strategy s info
  in
  let fresh_pending ~origin ~nprocs ~focus () =
    {
      Driver.p_inputs = Driver.random_inputs rng s program;
      p_nprocs = nprocs;
      p_focus = focus;
      p_depth = 0;
      p_origin = origin;
      p_schedule = [];
    }
  in
  let exec (p : Driver.pending) =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    Runner.run
      {
        base_runner with
        Runner.inputs = p.Driver.p_inputs;
        nprocs;
        focus = min p.Driver.p_focus (nprocs - 1);
        schedule = (if s.Driver.schedules then Some p.Driver.p_schedule else None);
      }
  in
  (* Merge one completed execution: assigns the next iteration id and
     feeds every accumulator. *)
  let merge_exec (p : Driver.pending) ~solve_s (res : exec_result) =
    let nprocs = min p.Driver.p_nprocs s.Driver.max_procs in
    let focus = min p.Driver.p_focus (nprocs - 1) in
    (match res with
    | Error (`Platform_limit _) ->
      emit_restart "platform-limit";
      forced :=
        fresh_pending ~origin:Driver.O_restart ~nprocs:s.Driver.initial_nprocs
          ~focus:s.Driver.initial_focus ()
        :: !forced
    | Ok r ->
      incr executed;
      (* assign the campaign-wide test id before the strategy observes
         the execution, so every candidate carries a valid parent *)
      r.Runner.execution.Execution.exec_id <- !iter;
      (* schedule enumeration: fork this run's recorded wildcard
         decisions into alternative prescriptions (POR-pruned — only
         non-prescribed choice points with >1 eligible source fork).
         Runs at the merge position, so the fork set and its order are
         a pure function of the merged trajectory: identical at any
         worker count. *)
      if s.Driver.schedules then begin
        let prefix_len = List.length p.Driver.p_schedule in
        let choices = r.Runner.choices in
        let alts =
          Mpisim.Schedule.alternatives ~depth:s.Driver.schedule_depth ~prefix_len
            choices
        in
        List.iter
          (fun (a : Mpisim.Schedule.alt) ->
            schedules_q :=
              {
                Driver.p_inputs = p.Driver.p_inputs;
                p_nprocs = p.Driver.p_nprocs;
                p_focus = p.Driver.p_focus;
                p_depth = p.Driver.p_depth;
                p_origin =
                  Driver.O_schedule
                    {
                      parent = !iter;
                      point = a.Mpisim.Schedule.alt_point;
                      source = a.Mpisim.Schedule.alt_source;
                    };
                p_schedule = a.Mpisim.Schedule.alt_prescription;
              }
              :: !schedules_q)
          alts;
        let st =
          Mpisim.Schedule.stats ~depth:s.Driver.schedule_depth ~prefix_len choices
        in
        if st.Mpisim.Schedule.st_points > 0 then
          emit
            (Obs.Event.Schedule_enum
               {
                 parent = !iter;
                 points = st.Mpisim.Schedule.st_points;
                 emitted = st.Mpisim.Schedule.st_emitted;
                 pruned = st.Mpisim.Schedule.st_pruned;
               })
      end;
      Coverage.absorb ~into:coverage r.Runner.coverage;
      max_cs := max !max_cs r.Runner.constraint_set_size;
      Obs.Metrics.observe_int m_cs_size r.Runner.constraint_set_size;
      last_np := (p.Driver.p_nprocs, p.Driver.p_focus);
      let faults = Runner.faults r in
      List.iter
        (fun (rank, fault) ->
          Obs.Metrics.incr m_faults;
          emit
            (Obs.Event.Fault
               {
                 iteration = !iter;
                 rank;
                 kind = Fault.kind_name fault;
                 detail = Fault.to_string fault;
               });
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
      Obs.Prof.time "strategy" (fun () ->
          Strategy.observe !strategy ~depth:p.Driver.p_depth r.Runner.execution);
      (* two-phase bound derivation *)
      (match s.Driver.strategy with
      | Driver.Two_phase_dfs when !iter + 1 = s.Driver.dfs_phase_iters ->
        let bound =
          match s.Driver.depth_bound with
          | Some b -> b
          | None -> (!max_cs * 6 / 5) + 10
        in
        derived_bound := Some bound;
        let st =
          Strategy.create ~seed:(s.Driver.seed + 1) (Strategy.Bounded_dfs bound)
        in
        Strategy.observe st ~depth:0 r.Runner.execution;
        strategy := st
      | Driver.Two_phase_dfs | Driver.Fixed_strategy _ | Driver.Cfg_strategy -> ());
      let covered_now = Coverage.covered_branches coverage in
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
        emit_restart "stagnation";
        last_improvement := !iter;
        strategy := fresh_strategy ();
        stagnated_round := true
      end;
      let reachable =
        Branchinfo.reachable_branches info ~encountered:(Coverage.encountered coverage)
      in
      Obs.Metrics.incr m_iterations;
      Obs.Metrics.set g_covered (float_of_int covered_now);
      Obs.Metrics.set g_reachable (float_of_int reachable);
      let origin, parent, branch, index, cached = origin_fields p.Driver.p_origin in
      emit
        (Obs.Event.Test
           {
             test = !iter;
             parent;
             origin;
             branch;
             index;
             cached;
             nprocs;
             focus;
             covered = covered_now;
             reachable;
             cs_size = r.Runner.constraint_set_size;
             faults = List.length faults;
             restarted = stagnated;
             exec_s = r.Runner.wall_time;
             solve_s;
           });
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
  let budget_left () = !iter < s.Driver.iterations && time_ok () in
  let continue_ok () = budget_left () && not !stop in
  let work =
    ref
      (match resumed with
      | Some (_, sn) -> sn.Checkpoint.ck_work
      | None ->
        [
          W_fresh
            (fresh_pending ~origin:Driver.O_seed ~nprocs:s.Driver.initial_nprocs
               ~focus:s.Driver.initial_focus ());
        ])
  in
  (* Items of the current round not yet merged — the tail a snapshot
     records. Maintained at every merge position, and reset to the new
     work list by the scheduling step. *)
  let work_remaining = ref !work in
  (* Schedule the next round from the merged state. [forced] and
     [stagnated_round] are consumed here so a later snapshot never
     replays them twice. Always yields at least one item (the restart
     fallback), so the main loop exits only on budget or stop. *)
  let schedule () =
    let forced_items = List.rev_map (fun p -> W_fresh p) !forced in
    (* enumerated schedule forks, in enumeration order: they interleave
       with the input-negation candidates of the same round *)
    let sched_items = List.rev_map (fun p -> W_fresh p) !schedules_q in
    let restart_test () =
      let nprocs, focus = !last_np in
      W_fresh (fresh_pending ~origin:Driver.O_restart ~nprocs ~focus ())
    in
    work :=
      (if !stagnated_round then
         (* fresh search tree: redo the testing from random inputs
            (queued schedule forks stay valid — they re-run concrete
            tests and need no search tree) *)
         forced_items @ sched_items @ [ restart_test () ]
       else if !barren >= s.Driver.max_solve_attempts then begin
         emit_restart "exhausted";
         barren := 0;
         forced_items @ sched_items @ [ restart_test () ]
       end
       else
         match
           (sched_items, Strategy.next_batch !strategy ~coverage ~max:settings.batch)
         with
         | [], [] ->
           emit_restart "exhausted";
           barren := 0;
           forced_items @ [ restart_test () ]
         | sched, cands ->
           forced_items @ sched @ List.map (fun c -> W_negate c) cands);
    forced := [];
    schedules_q := [];
    stagnated_round := false;
    work_remaining := !work
  in
  (* An interrupted run cut exactly at a round boundary snapshots an
     empty tail (the cut happens before scheduling, which the longer
     uninterrupted run would have performed from this very state) — so
     a resume with budget left performs that scheduling now. *)
  if !work = [] && budget_left () && not !stop then schedule ();
  let write_checkpoint dir =
    let snap =
      {
        Checkpoint.ck_fingerprint = fp;
        ck_iter = !iter;
        ck_rounds = !rounds;
        ck_executed = !executed;
        ck_speculated = !speculated;
        ck_fold = fold;
        ck_max_cs = !max_cs;
        ck_best_covered = !best_covered;
        ck_last_improvement = !last_improvement;
        ck_barren = !barren;
        ck_last_np = !last_np;
        ck_derived_bound = !derived_bound;
        ck_rng = rng;
        ck_strategy = !strategy;
        ck_coverage = coverage;
        ck_cache = cache;
        ck_stats = !stats;
        ck_bugs = !bugs;
        ck_forced = !forced;
        ck_stagnated_round = !stagnated_round;
        ck_schedules = !schedules_q;
        ck_work = !work_remaining;
      }
    in
    let bytes = Obs.Prof.time "checkpoint" (fun () -> Checkpoint.save ~dir ~target:label snap) in
    incr checkpoints_written;
    Obs.Metrics.incr m_checkpoints;
    emit
      (Obs.Event.Checkpoint_write
         { iteration = !iter; path = Checkpoint.file ~dir; bytes })
  in
  let every = settings.checkpoint_every in
  let next_due =
    ref (if every > 0 then ((!iter / every) + 1) * every else max_int)
  in
  let maybe_checkpoint () =
    match settings.checkpoint with
    | Some dir when !iter >= !next_due ->
      write_checkpoint dir;
      next_due := ((!iter / every) + 1) * every
    | Some _ | None -> ()
  in
  (* Live status: an atomic snapshot published at every merge position
     (and once more, finished, at campaign end). Everything quoted is
     main-domain merge state or its fold, so the snapshot sequence —
     like the trajectory itself — is invariant across [jobs]. *)
  let publish_status ~finished () =
    match settings.status_file with
    | None -> ()
    | Some path ->
      let wall = elapsed () in
      let utilization =
        if wall <= 0.0 then 0.0
        else
          Float.min 1.0
            (Taskpool.busy_seconds pool
            /. (wall *. float_of_int (max 1 settings.jobs)))
      in
      Obs.Status.publish path
        (Obs.Status.of_fold ~target:label ~budget:s.Driver.iterations ~rounds:!rounds
           ~executed:!iter ~covered:!best_covered ~queue_depth:!max_depth ~utilization
           ~finished fold)
  in
  while !work <> [] && continue_ok () do
    incr rounds;
    let round_tk = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
    (* dispatch: probe the cache on the main domain, then build one
       fused task per work item *)
    let classified =
      Obs.Timeline.span "dispatch" @@ fun () ->
      List.map
        (fun w ->
          match w with
          | W_fresh p -> `Fresh p
          | W_negate cand -> (
            (* one canonicalization per candidate, cache on or off: the
               prepared value carries the key for the probe below AND
               the closure the miss-path solve / hit-path replay run on *)
            let p = Execution.prepare_negation cand.Strategy.record cand.Strategy.index in
            match Option.bind cache (fun c -> Smt.Cache.find c (Execution.prepared_key p)) with
            | Some outcome -> `Hit (cand, p, outcome)
            | None -> `Miss (cand, p)))
        !work
    in
    let thunks =
      List.map
        (fun w () ->
          match w with
          | `Fresh p -> D_fresh (p, exec p)
          | `Hit (cand, p, outcome) -> (
            (* replay the cached verdict; no solver call *)
            match Execution.apply_prepared cand.Strategy.record p outcome with
            | Error (`Unsat | `Unknown) ->
              D_negated { solved = false; key = None; solve_s = 0.0; outcome = N_unsat }
            | Ok sr ->
              let next = derive s ~cached:true cand sr in
              D_negated
                {
                  solved = false;
                  key = None;
                  solve_s = 0.0;
                  outcome = N_sat { fresh = sr.Smt.Solver.fresh; next; run = exec next };
                })
          | `Miss (cand, p) -> (
            let key = Some (Execution.prepared_key p) in
            let t0 = Unix.gettimeofday () in
            let outcome =
              Obs.Prof.time "solve" (fun () ->
                  (* the dispatch-time key already holds the canonical
                     closure — solve it directly *)
                  Execution.solve_prepared ~budget:s.Driver.solver_budget
                    cand.Strategy.record p)
            in
            let solve_s = Unix.gettimeofday () -. t0 in
            match outcome with
            | Error `Unsat ->
              D_negated { solved = true; key; solve_s; outcome = N_unsat }
            | Error `Unknown ->
              (* never cache an unknown: a later, luckier attempt or a
                 raised budget should get its chance *)
              D_negated { solved = true; key = None; solve_s; outcome = N_unknown }
            | Ok sr ->
              let next = derive s ~cached:false cand sr in
              D_negated
                {
                  solved = true;
                  key;
                  solve_s;
                  outcome = N_sat { fresh = sr.Smt.Solver.fresh; next; run = exec next };
                }))
        classified
    in
    (* pipeline: publish the batch and merge results in work-list order
       as they stream in — the merge of item k overlaps the
       solve/execute of items k+1, k+2, … still running on the pool.
       Each attempt's [lineage_negation] is emitted at merge, not
       dispatch, so the folded solver and cache counts cover exactly
       the attempts whose verdicts entered the merged trajectory —
       results discarded at the budget edge only show up in
       [speculated]. A budget (or stop-request) cut records the
       un-merged tail in [work_remaining] so the final checkpoint can
       resume mid-round; the tail's tasks are still drained to
       completion (executions there count as speculated) so the pool is
       quiescent and the tally matches the old round-barrier engine's
       at every cut point. *)
    let inflight_tk = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
    let st = Taskpool.stream pool thunks in
    let merge_one w item =
      match item with
      | D_fresh (p, res) -> merge_exec p ~solve_s:0.0 res
      | D_negated { solved; key; solve_s; outcome } -> (
        (* D_negated always pairs with W_negate: recover the candidate
           for the lineage record *)
        (match w with
        | W_negate cand ->
          let o =
            match outcome with
            | N_unsat -> Obs.Event.Unsat
            | N_unknown -> Obs.Event.Unknown
            | N_sat _ -> Obs.Event.Sat
          in
          emit (lineage_negation cand ~outcome:o ~cached:(not solved))
        | W_fresh _ -> ());
        (* verdicts publish here, on the main domain at the ordered
           merge position — the cache's single-writer protocol *)
        let insert verdict =
          match (cache, key) with
          | Some c, Some k -> Smt.Cache.add c k verdict
          | (Some _ | None), _ -> ()
        in
        match outcome with
        | N_unsat ->
          insert Smt.Cache.Unsat;
          incr barren
        | N_unknown -> incr barren
        | N_sat { fresh; next; run } ->
          insert (Smt.Cache.Sat fresh);
          barren := 0;
          merge_exec next ~solve_s run)
    in
    let count_speculated = function
      | D_fresh (_, Ok _) | D_negated { outcome = N_sat { run = Ok _; _ }; _ } ->
        incr speculated
      | D_fresh (_, Error _) | D_negated _ -> ()
    in
    let rec merge_stream = function
      | [] -> work_remaining := []
      | w :: rest -> (
        match Taskpool.next st with
        | None -> assert false (* stream has exactly one item per work entry *)
        | Some item ->
          if not (continue_ok ()) then begin
            work_remaining := w :: rest;
            count_speculated item;
            let rec drain () =
              match Taskpool.next st with
              | Some it ->
                count_speculated it;
                drain ()
              | None -> ()
            in
            drain ()
          end
          else begin
            Obs.Timeline.span "merge" (fun () -> merge_one w item);
            work_remaining := rest;
            maybe_checkpoint ();
            max_depth := max !max_depth (Taskpool.max_inflight st);
            publish_status ~finished:false ();
            merge_stream rest
          end)
    in
    merge_stream !work;
    max_depth := max !max_depth (Taskpool.max_inflight st);
    (* one umbrella per round over the streaming window: publication of
       the batch through consumption of its last result *)
    if Obs.Timeline.on () then
      Obs.Timeline.record ~kind:"inflight" ~t0:inflight_tk
        ~t1:(Obs.Timeline.tick ());
    if continue_ok () then schedule () else work := [];
    (* drain first, then record the round span: the drain cost itself
       lands inside this round's window (it is flushed by the next
       round's drain, or the final one), so round spans tile the loop
       and the profile can attribute ~all wall time to named spans *)
    if Obs.Timeline.on () then begin
      Obs.Timeline.drain ();
      Obs.Timeline.record ~kind:"round" ~t0:round_tk ~t1:(Obs.Timeline.tick ())
    end
  done;
  (* final flush: whatever stopped the campaign — budget, signal, or a
     drained work list — leave a snapshot the next run can pick up *)
  (match settings.checkpoint with Some dir -> write_checkpoint dir | None -> ());
  let reachable =
    Obs.Prof.time "report" (fun () ->
        Branchinfo.reachable_branches info ~encountered:(Coverage.encountered coverage))
  in
  let covered = Coverage.covered_branches coverage in
  emit
    (Obs.Event.Campaign_end
       {
         iterations_run = !iter;
         covered;
         reachable;
         bugs = List.length !bugs;
         wall_s = elapsed ();
       });
  publish_status ~finished:true ();
  (match settings.ledger with
  | None -> ()
  | Some path ->
    let written =
      Obs.Ledger.append path
        (Obs.Ledger.of_fold ~target:label ~fingerprint:(Obs.Ledger.digest fp)
           ~exec_mode:(Runner.exec_mode_name s.Driver.exec_mode) ~jobs:settings.jobs
           ~seed:s.Driver.seed ~budget:s.Driver.iterations ~executed:!iter ~rounds:!rounds
           ~wall_s:(elapsed ()) (Obs.Fold.finish fold))
    in
    emit
      (Obs.Event.Ledger_append
         { path; run = written.Obs.Ledger.run; covered; reachable; bugs = List.length !bugs }));
  let lv = Obs.Fold.live fold in
  {
    summary =
      {
        Driver.coverage;
        stats = List.rev !stats;
        bugs = List.rev !bugs;
        total_branches = info.Branchinfo.total_branches;
        reachable_branches = reachable;
        covered_branches = covered;
        coverage_rate =
          (if reachable = 0 then 0.0 else float_of_int covered /. float_of_int reachable);
        iterations_run = !iter;
        wall_time = elapsed ();
        max_constraint_set = !max_cs;
        derived_bound = !derived_bound;
      };
    rounds = !rounds;
    executed = !executed;
    speculated = !speculated;
    solver_calls = lv.Obs.Fold.lv_solver_calls;
    (* hits and misses over merged attempts, as folded from
       [lineage_negation]; the cache's own probe counters would also
       count candidates dropped at the budget edge *)
    cache =
      Option.map
        (fun c ->
          {
            (Smt.Cache.stats c) with
            Smt.Cache.hits = lv.Obs.Fold.lv_cache_hits;
            misses = lv.Obs.Fold.lv_cache_misses;
          })
        cache;
    interrupted = !stop;
    checkpoints_written = !checkpoints_written;
    queue_depth = !max_depth;
    worker_busy_s = Taskpool.busy_seconds pool;
  }

(* Canonical, timing-free rendering of a campaign outcome. Two runs of
   the same campaign — at any worker count, interrupted-and-resumed or
   not — must produce byte-equal reports; the determinism test and the
   CI diff steps compare exactly this string. *)
let coverage_report (r : result) =
  let b = Buffer.create 512 in
  let s = r.summary in
  Buffer.add_string b (Printf.sprintf "iterations %d\n" s.Driver.iterations_run);
  Buffer.add_string b
    (Printf.sprintf "covered %d reachable %d total %d\n" s.Driver.covered_branches
       s.Driver.reachable_branches s.Driver.total_branches);
  (match s.Driver.derived_bound with
  | Some bound -> Buffer.add_string b (Printf.sprintf "bound %d\n" bound)
  | None -> Buffer.add_string b "bound none\n");
  Buffer.add_string b (Coverage.report s.Driver.coverage);
  Buffer.add_string b (Printf.sprintf "bugs %d:" (List.length s.Driver.bugs));
  List.iter
    (fun bug ->
      Buffer.add_string b
        (Printf.sprintf " %d:%s" bug.Driver.bug_iteration (Driver.bug_key bug)))
    s.Driver.bugs;
  Buffer.add_char b '\n';
  Buffer.contents b
