open Minic
open Concolic

type strategy_choice =
  | Two_phase_dfs
  | Fixed_strategy of Strategy.kind
  | Cfg_strategy

type settings = {
  iterations : int;
  time_budget : float option;
  dfs_phase_iters : int;
  depth_bound : int option;
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
  max_solve_attempts : int;
  random_lo : int;
  random_hi : int;
  stagnation_restart : int option;
      (* "We just redo the testing" (paper section VI): after this many
         iterations without new coverage, restart with fresh random
         inputs and a fresh search tree *)
  resolve_conflicts : bool;
      (* ablation hook for section III-C: when false the focus never
         follows re-solved rank variables (process count still follows
         sw), so derived rank values are silently dropped *)
  exec_mode : Runner.exec_mode;
      (* compiled (default) or interpreted execution; the interpreter
         stays available as the differential oracle *)
  schedules : bool;
      (* explore the schedule dimension: runs execute in schedule mode
         and the campaign enumerates alternative wildcard-match orders
         (POR-pruned) alongside input negations *)
  schedule_depth : int;
      (* only the first [schedule_depth] wildcard choice points of a run
         are eligible for forking — the schedule-space analogue of the
         DFS depth bound *)
}

let default_settings =
  {
    iterations = 500;
    time_budget = None;
    dfs_phase_iters = 50;
    depth_bound = None;
    strategy = Two_phase_dfs;
    initial_nprocs = 8;
    initial_focus = 0;
    nprocs_cap = 16;
    reduce = true;
    two_way = true;
    framework = true;
    seed = 42;
    step_limit = 2_000_000;
    cap_overrides = [];
    max_procs = Mpisim.Scheduler.default_max_procs;
    solver_budget = Smt.Solver.default_budget;
    max_solve_attempts = 200;
    random_lo = -8;
    random_hi = 64;
    stagnation_restart = Some 250;
    resolve_conflicts = true;
    exec_mode = Runner.Exec_compiled;
    schedules = false;
    schedule_depth = 8;
  }

type bug = {
  bug_iteration : int;
  bug_rank : int;
  bug_fault : Fault.t;
  bug_inputs : (string * int) list;
  bug_nprocs : int;
  bug_focus : int;
  bug_context : (int * bool) list;
      (* the focus's last branch decisions in the faulting run *)
}

let bug_key b =
  match b.bug_fault with
  | Fault.Segfault { array; func; _ } -> Printf.sprintf "segfault:%s:%s" func array
  | Fault.Fpe { func } -> Printf.sprintf "fpe:%s" func
  | Fault.Assert_fail { message; func } -> Printf.sprintf "assert:%s:%s" func message
  | Fault.Abort_called { message; func } -> Printf.sprintf "abort:%s:%s" func message
  | Fault.Step_limit_exceeded _ -> "timeout"
  | Fault.Mpi_error { message; func } -> Printf.sprintf "mpi:%s:%s" func message
  | Fault.Runtime_type_error { message; func } -> Printf.sprintf "type:%s:%s" func message

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
  coverage : Coverage.t;
  stats : iter_stat list;
  bugs : bug list;
  total_branches : int;
  reachable_branches : int;
  covered_branches : int;
  coverage_rate : float;
  iterations_run : int;
  wall_time : float;
  max_constraint_set : int;
  derived_bound : int option;
}

let strategy_choice_name = function
  | Two_phase_dfs -> "two-phase-dfs"
  | Fixed_strategy (Strategy.Bounded_dfs b) -> Printf.sprintf "bounded-dfs(%d)" b
  | Fixed_strategy Strategy.Random_branch -> "random-branch"
  | Fixed_strategy Strategy.Uniform_random -> "uniform-random"
  | Fixed_strategy (Strategy.Cfg_directed _) -> "cfg-directed"
  | Fixed_strategy (Strategy.Generational b) -> Printf.sprintf "generational(%d)" b
  | Cfg_strategy -> "cfg-strategy"

let distinct_bugs r =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun b ->
      let key = bug_key b in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    r.bugs

let random_inputs rng settings (program : Ast.program) =
  List.map
    (fun (d : Ast.input_decl) ->
      let hi =
        match List.assoc_opt d.Ast.iname settings.cap_overrides with
        | Some cap -> cap
        | None -> Option.value d.Ast.cap ~default:settings.random_hi
      in
      let lo = Option.value d.Ast.lo ~default:settings.random_lo in
      let lo = min lo hi in
      (d.Ast.iname, lo + Random.State.int rng (hi - lo + 1)))
    (Ast.inputs_of_program program)

(* Where a test came from — the lineage record threaded from the
   negation that produced it to the merge point that runs it. *)
type origin =
  | O_seed
  | O_restart
  | O_negated of { parent : int; branch : int; index : int; cached : bool }
  | O_schedule of { parent : int; point : int; source : int }
      (* schedule fork: same inputs as [parent], but choice point
         [point] delivers from local source [source] instead *)

(* What the next test should run with. *)
type pending = {
  p_inputs : (string * int) list;
  p_nprocs : int;
  p_focus : int;
  p_depth : int;  (* depth to report to the strategy after the run *)
  p_origin : origin;
  p_schedule : int list;  (* wildcard-match prescription ([] = default order) *)
}

let make_strategy settings (info : Branchinfo.t) =
  match settings.strategy with
  | Two_phase_dfs -> Strategy.create ~seed:settings.seed (Strategy.Bounded_dfs max_int)
  | Fixed_strategy kind -> Strategy.create ~seed:settings.seed kind
  | Cfg_strategy ->
    Strategy.create ~seed:settings.seed (Strategy.Cfg_directed (Cfg.build info))
