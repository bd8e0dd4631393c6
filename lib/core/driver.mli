(** The campaign vocabulary shared by every COMPI engine client.

    The paper's testing phase (section II-A) — run the instrumented
    program, negate one path constraint according to the search
    strategy, solve, derive the next test's inputs (including the number
    of processes and the focus process from the MPI-semantics
    variables), repeat until the iteration or time budget is exhausted —
    is implemented once, by {!Campaign.run}. This module holds the types
    and helpers around it: the campaign [settings], the bug and
    per-iteration records, the [result] summary, test provenance, the
    random input generator and the strategy constructor.

    The default strategy is the paper's two-phase scheme (section II-B):
    pure DFS for the first [dfs_phase_iters] iterations to observe the
    maximal constraint-set size, then BoundedDFS with a bound slightly
    above the observed maximum.

    Ablation switches reproduce the paper's baselines: [reduce] (Table
    V), [two_way] (Table IV), [framework] (No_Fwk of Table VI),
    [strategy] (Figure 4), [cap_overrides] (Figures 6 and 8). *)

type strategy_choice =
  | Two_phase_dfs
  | Fixed_strategy of Concolic.Strategy.kind
  | Cfg_strategy  (** CFG-directed search built from the target's CFG *)

type settings = {
  iterations : int;
  time_budget : float option;  (** seconds of wall clock, whichever first *)
  dfs_phase_iters : int;
  depth_bound : int option;  (** [None]: derive from the DFS phase *)
  strategy : strategy_choice;
  initial_nprocs : int;
  initial_focus : int;
  nprocs_cap : int;
  reduce : bool;
  two_way : bool;
  framework : bool;
  seed : int;
  step_limit : int;
  cap_overrides : (string * int) list;
  max_procs : int;
  solver_budget : int;
  max_solve_attempts : int;  (** failed negations per iteration before a restart *)
  random_lo : int;  (** random-value range for unmarked bounds *)
  random_hi : int;
  stagnation_restart : int option;
      (** restart with fresh random inputs and a fresh search tree after
          this many iterations without new coverage — the paper's
          "we just redo the testing" escape hatch (section VI) *)
  resolve_conflicts : bool;
      (** ablation hook: disable the section III-C conflict resolution so
          the focus never follows derived rank values *)
  exec_mode : Runner.exec_mode;
      (** [Exec_compiled] (default): compile the target to closures once
          per campaign; [Exec_interp] keeps the tree-walking interpreter
          as the differential oracle *)
  schedules : bool;
      (** explore the schedule dimension: runs execute in schedule mode
          (wildcard receives served at quiescence under a prescription)
          and the campaign enumerates POR-pruned alternative match
          orders alongside input negations *)
  schedule_depth : int;
      (** only the first [schedule_depth] wildcard choice points of a
          run may fork alternative schedules — the schedule-space
          analogue of the DFS depth bound *)
}

val default_settings : settings

val strategy_choice_name : strategy_choice -> string
(** Stable textual name (including any bound parameter) — part of the
    {!Checkpoint} settings fingerprint, so renaming a strategy
    invalidates old checkpoints rather than silently mis-resuming. *)

type bug = {
  bug_iteration : int;
  bug_rank : int;
  bug_fault : Minic.Fault.t;
  bug_inputs : (string * int) list;
  bug_nprocs : int;
  bug_focus : int;
  bug_context : (int * bool) list;
      (** the focus's last branch decisions (conditional id, direction)
          in the faulting run — failure context for triage *)
}

val bug_key : bug -> string
(** Deduplication key: distinct keys are distinct defects. *)

type iter_stat = {
  iteration : int;
  nprocs : int;
  focus : int;
  constraint_set_size : int;
  covered_after : int;
  reachable_after : int;
  faults_seen : int;
  restarted : bool;
  exec_time : float;
  solve_time : float;
}

type result = {
  coverage : Concolic.Coverage.t;
  stats : iter_stat list;  (** chronological *)
  bugs : bug list;  (** chronological, not deduplicated *)
  total_branches : int;
  reachable_branches : int;
  covered_branches : int;
  coverage_rate : float;  (** covered / reachable *)
  iterations_run : int;
  wall_time : float;
  max_constraint_set : int;
  derived_bound : int option;
}

val distinct_bugs : result -> bug list
(** First occurrence of each {!bug_key}. *)

type origin =
  | O_seed  (** fresh random inputs at campaign start *)
  | O_restart  (** fresh random inputs after exhaustion/stagnation/limit *)
  | O_negated of { parent : int; branch : int; index : int; cached : bool }
      (** derived by negating [parent]'s path constraint at [index],
          targeting [branch]; [cached] when the verdict was a solver-cache
          replay *)
  | O_schedule of { parent : int; point : int; source : int }
      (** schedule fork: same inputs as test [parent], but wildcard
          choice point [point] delivers from local source [source]
          instead — the (input, schedule) pair's second coordinate *)
(** Provenance of a pending test — threaded from the negation that
    produced it to the merge point that runs it, then emitted in its
    [test] event. *)

type pending = {
  p_inputs : (string * int) list;
  p_nprocs : int;
  p_focus : int;
  p_depth : int;  (** depth to report to the strategy after the run *)
  p_origin : origin;
  p_schedule : int list;
      (** wildcard-match prescription to run under ([[]]: default
          arrival order at every choice point) *)
}
(** What the next test should run with — the unit of work the parallel
    campaign engine ({!Campaign}) queues and executes. *)

val make_strategy : settings -> Minic.Branchinfo.t -> Concolic.Strategy.t
(** The strategy the settings select (phase one of the two-phase scheme
    when [strategy = Two_phase_dfs]). *)

val random_inputs :
  Random.State.t -> settings -> Minic.Ast.program -> (string * int) list
(** The random input generator (also used by the Random baseline):
    uniform within each marked input's capped range. *)
