open Minic
open Concolic

(* How each simulated process executes the target: the closure-compiled
   program (default; compiled once per campaign via [prepare]) or the
   tree-walking interpreter (the differential oracle). *)
type exec_mode = Exec_interp | Exec_compiled

let exec_mode_name = function Exec_interp -> "interp" | Exec_compiled -> "compiled"

let exec_mode_of_name = function
  | "interp" -> Some Exec_interp
  | "compiled" -> Some Exec_compiled
  | _ -> None

type config = {
  info : Branchinfo.t;
  inputs : (string * int) list;
  nprocs : int;
  focus : int;
  reduce : bool;
  two_way : bool;
  mark_mpi_sem : bool;
  record_all : bool;
  nprocs_cap : int;
  cap_overrides : (string * int) list;
  step_limit : int;
  max_procs : int;
  symbolic : bool;
      (* false: every process runs light instrumentation — pure random
         testing needs no symbolic execution at all *)
  compiled : Compile.t option;
      (* closure-compiled program shared read-only across runs (and
         worker domains); None runs the interpreter. Built once per
         campaign by [prepare]. *)
  schedule : Mpisim.Schedule.prescription option;
      (* Some p: run in schedule mode — wildcard receives are served at
         quiescence under prescription [p] and every decision is
         recorded. None: legacy eager matching. *)
  on_event : Mpisim.Trace.event -> unit;
}

let default_config ~info =
  {
    info;
    inputs = [];
    nprocs = 8;
    focus = 0;
    reduce = true;
    two_way = true;
    mark_mpi_sem = true;
    record_all = true;
    nprocs_cap = 16;
    cap_overrides = [];
    step_limit = 2_000_000;
    max_procs = Mpisim.Scheduler.default_max_procs;
    symbolic = true;
    compiled = None;
    schedule = None;
    on_event = Mpisim.Trace.discard;
  }

(* Compile the target once, under a "compile" span, so
   `compi-cli profile` attributes compile cost separately from run
   cost. Returns the value to put in [config.compiled]. *)
let prepare ?(target = "") mode (info : Branchinfo.t) =
  match mode with
  | Exec_interp -> None
  | Exec_compiled ->
    let t0 = Unix.gettimeofday () in
    let cp =
      Obs.Timeline.span "compile" (fun () -> Compile.compile info.Branchinfo.program)
    in
    let time_s = Unix.gettimeofday () -. t0 in
    if Obs.Sink.active () then
      Obs.Sink.emit
        (Obs.Event.Compile
           {
             target;
             funcs = Compile.funcs cp;
             conds = Compile.conds cp;
             slots = Compile.slots cp;
             time_s;
           });
    Some cp

type result = {
  execution : Execution.t;
  coverage : Coverage.t;
  outcomes : (unit, Fault.t) Stdlib.result array;
  deadlocked : int list;
  leaked_messages : int;
  focus_tail : (int * bool) list;
  focus_log_bytes : int;
  nonfocus_log_bytes : int;
  mapping : (int * int array) list;
  constraint_set_size : int;
  wall_time : float;
  choices : Mpisim.Schedule.choice list;
}

let faults r =
  let acc = ref [] in
  Array.iteri
    (fun rank outcome ->
      match outcome with Ok () -> () | Error f -> acc := (rank, f) :: !acc)
    r.outcomes;
  List.rev !acc

(* The run's input values, built once per run and read by every rank's
   [input_value] hook. The first binding of a name wins and an absent
   name takes its declared default, as [List.assoc_opt] over
   [config.inputs] would. *)
module Names = Hashtbl.Make (String)

let input_table inputs =
  let tbl = Names.create 32 in
  List.iter (fun (name, v) -> if not (Names.mem tbl name) then Names.add tbl name v) inputs;
  tbl

let input_value tbl (d : Ast.input_decl) =
  match Names.find_opt tbl d.Ast.iname with Some v -> v | None -> d.Ast.default

(* A rank's [on_func_enter] hook. A function is named into the rank's
   coverage on its first entry; a repeated entry finds its name among
   those already seen by physical equality, so it costs no string
   comparison and no set insertion. The compiled executor passes one
   string per function; the interpreter passes its call site's, so
   there a function may be named once per call site. *)
let func_recorder cover =
  let seen = ref [] in
  fun fn ->
    if not (List.memq fn !seen) then begin
      seen := fn :: !seen;
      Coverage.add_func cover fn
    end

let effective_cap config (d : Ast.input_decl) =
  match List.assoc_opt d.Ast.iname config.cap_overrides with
  | Some cap -> Some cap
  | None -> d.Ast.cap

(* Heavy-instrumentation hooks for a process: symbolic shadow, automatic
   marking, constraint logging. Non-focus heavy processes (one-way mode)
   use the same machinery with their results discarded. *)
let heavy_hooks config ~inputs ~mpi ~symtab ~log ~cover =
  {
    Interp.mode = Interp.Heavy;
    input_value = input_value inputs;
    on_input =
      (fun d concrete ->
        let var =
          Symtab.fresh_input symtab ~name:d.Ast.iname ?lo:d.Ast.lo
            ?hi:(effective_cap config d) ~concrete ()
        in
        Some (Smt.Linexp.var var));
    on_mpi_sem =
      (fun kind concrete ->
        if not config.mark_mpi_sem then None
        else
          let mk k ?comm_size () =
            Some (Smt.Linexp.var (Symtab.fresh_sem symtab ~kind:k ?comm_size ~concrete ()))
          in
          match kind with
          | Interp.Rank_world -> mk Symtab.Rank_world ()
          | Interp.Size_world -> mk Symtab.Size_world ()
          | Interp.Rank_comm comm ->
            (* observe the communicator's size for the y_i < s_i
               constraint: ask the scheduler from inside the fiber *)
            let comm_size =
              match mpi (Mpi_iface.Size comm) with
              | Mpi_iface.Rint s -> Some s
              | Mpi_iface.Runit | Mpi_iface.Rvalue _ | Mpi_iface.Rvalues _
              | Mpi_iface.Rnone ->
                None
            in
            mk (Symtab.Rank_comm comm) ?comm_size ()
          | Interp.Size_comm comm -> mk (Symtab.Size_comm comm) ());
    on_branch =
      (fun ~id ~taken ~constr ->
        Pathlog.record log ~cond_id:id ~taken ~constr;
        Coverage.add_branch cover (Branchinfo.branch_of_cond id taken));
    on_func_enter = func_recorder cover;
    mpi;
    step_limit = config.step_limit;
  }

(* Light instrumentation: branch ids and functions only. *)
let light_hooks config ~inputs ~mpi ~cover =
  {
    Interp.mode = Interp.Light;
    input_value = input_value inputs;
    on_input = (fun _ _ -> None);
    on_mpi_sem = (fun _ _ -> None);
    on_branch =
      (fun ~id ~taken ~constr:_ ->
        Coverage.add_branch cover (Branchinfo.branch_of_cond id taken));
    on_func_enter = func_recorder cover;
    mpi;
    step_limit = config.step_limit;
  }

let m_runs = Obs.Metrics.counter "runner.runs"
let m_cs_size = Obs.Metrics.histogram "runner.constraint_set"
let m_log_bytes = Obs.Metrics.histogram "runner.focus_log_bytes"

let run_raw config =
  let program = config.info.Branchinfo.program in
  let exec =
    match config.compiled with
    | Some cp -> fun hooks -> Compile.run cp hooks
    | None -> fun hooks -> Interp.run hooks program
  in
  let focus = config.focus in
  let symtab = Symtab.create () in
  let focus_log = Pathlog.create ~reduce:config.reduce in
  let covers = Array.init config.nprocs (fun _ -> Coverage.create ()) in
  (* per-process heavy logs for the one-way cost model *)
  let heavy_logs = Array.make config.nprocs None in
  let t0 = Unix.gettimeofday () in
  let inputs = input_table config.inputs in
  match
    Mpisim.Scheduler.run ~max_procs:config.max_procs ~on_event:config.on_event
      ?schedule:config.schedule ~nprocs:config.nprocs (fun ~rank ~mpi ->
        let hooks =
          if not config.symbolic then light_hooks config ~inputs ~mpi ~cover:covers.(rank)
          else if rank = focus then
            heavy_hooks config ~inputs ~mpi ~symtab ~log:focus_log ~cover:covers.(rank)
          else if config.two_way then light_hooks config ~inputs ~mpi ~cover:covers.(rank)
          else begin
            (* one-way: everyone pays for symbolic execution *)
            let shadow_tab = Symtab.create () in
            let log = Pathlog.create ~reduce:config.reduce in
            heavy_logs.(rank) <- Some log;
            heavy_hooks
              { config with mark_mpi_sem = false }
              ~inputs ~mpi ~symtab:shadow_tab ~log ~cover:covers.(rank)
          end
        in
        exec hooks)
  with
  | exception Mpisim.Scheduler.Platform_limit n -> Error (`Platform_limit n)
  | sched ->
    (* CREST's per-iteration log round trip: the focus writes its full
       symbolic log and the search reads it back. This is real work
       proportional to the constraint-set size — the cost that
       constraint-set reduction exists to shrink (paper section IV-C).
       One-way runs pay it once per heavy process. The read-back must
       find one record per branch event. *)
    let round_trip rank log =
      let text = Pathlog.serialize log in
      let records = Pathlog.parse_count text in
      if records <> Pathlog.branch_events log then
        invalid_arg
          (Printf.sprintf "Runner: rank %d's path log reads back %d records for %d branch events"
             rank records (Pathlog.branch_events log));
      text
    in
    let focus_serialized = round_trip focus focus_log in
    Array.iteri
      (fun rank -> function Some log -> ignore (round_trip rank log) | None -> ())
      heavy_logs;
    let wall_time = Unix.gettimeofday () -. t0 in
    let coverage = Coverage.create () in
    if config.record_all then
      Array.iter (fun c -> Coverage.absorb ~into:coverage c) covers
    else Coverage.absorb ~into:coverage covers.(focus);
    let mapping =
      Mpisim.Rankmap.mapping_table sched.Mpisim.Scheduler.registry ~global:focus
    in
    let execution =
      {
        Execution.constraints = Pathlog.constraints focus_log;
        symtab;
        model = Symtab.model symtab;
        domains = Symtab.domains symtab;
        extra = Mpi_sem.constraints ~nprocs_cap:config.nprocs_cap symtab;
        nprocs = config.nprocs;
        focus;
        mapping;
        exec_id = -1;
        exec_schedule = Option.value config.schedule ~default:[];
        closure_index = None;
      }
    in
    let nonfocus_log_bytes =
      if config.nprocs <= 1 then 0
      else begin
        let total = ref 0 in
        for rank = 0 to config.nprocs - 1 do
          if rank <> focus then
            total :=
              !total
              +
              match heavy_logs.(rank) with
              | Some log -> Pathlog.heavy_bytes log
              | None ->
                (* light processes ship their covered-branch list *)
                64 + (8 * Coverage.covered_branches covers.(rank))
        done;
        !total / (config.nprocs - 1)
      end
    in
    Obs.Metrics.observe_int m_cs_size (Pathlog.constraint_count focus_log);
    Obs.Metrics.observe_int m_log_bytes (String.length focus_serialized);
    let focus_tail = Pathlog.tail focus_log in
    (* every result the events give is read: the buffers go back to
       this domain for the next run's logs *)
    Pathlog.release focus_log;
    Array.iter (Option.iter Pathlog.release) heavy_logs;
    Ok
      {
        execution;
        coverage;
        outcomes = sched.Mpisim.Scheduler.outcomes;
        deadlocked = sched.Mpisim.Scheduler.deadlocked;
        leaked_messages = List.length sched.Mpisim.Scheduler.leaked;
        focus_tail;
        focus_log_bytes = String.length focus_serialized;
        nonfocus_log_bytes;
        mapping;
        constraint_set_size = Pathlog.constraint_count focus_log;
        wall_time;
        choices = sched.Mpisim.Scheduler.choices;
      }

let run config =
  Obs.Metrics.incr m_runs;
  Obs.Timeline.span "exec" (fun () -> run_raw config)
