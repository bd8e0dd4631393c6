(** Execute one test: the program under N simulated processes with
    two-way instrumentation.

    The focus process runs the heavily-instrumented build (full symbolic
    shadow, constraint logging, automatic rw/rc/sw marking); every other
    process runs the light build (branch recording only) — unless
    [two_way] is off, in which case non-focus processes also pay the
    heavy instrumentation cost, reproducing the paper's one-way baseline
    of Table IV. Branch coverage is recorded across all processes
    ("one focus and all recorders"). *)

type exec_mode = Exec_interp | Exec_compiled
(** How each simulated process executes the target: the tree-walking
    interpreter (the differential oracle) or the closure-compiled
    executor (default; see [lib/minic/compile.ml] and
    docs/INTERNALS.md). *)

val exec_mode_name : exec_mode -> string
(** ["interp"] / ["compiled"] — the [--exec-mode] vocabulary. *)

val exec_mode_of_name : string -> exec_mode option

type config = {
  info : Minic.Branchinfo.t;  (** instrumented program *)
  inputs : (string * int) list;  (** marked program-input values *)
  nprocs : int;
  focus : int;
  reduce : bool;  (** constraint-set reduction, section IV-C *)
  two_way : bool;  (** two-way instrumentation, section IV-B *)
  mark_mpi_sem : bool;  (** automatic rw/rc/sw marking (off = No_Fwk) *)
  record_all : bool;  (** all-recorders (off = focus coverage only) *)
  nprocs_cap : int;  (** cap fed into the inherent sw constraint *)
  cap_overrides : (string * int) list;  (** per-input cap replacements *)
  step_limit : int;
  max_procs : int;  (** hard platform limit *)
  symbolic : bool;
      (** [false]: every process runs the light build — used by the pure
          random-testing baseline, which needs no symbolic execution *)
  compiled : Minic.Compile.t option;
      (** closure-compiled program, shared read-only across runs and
          worker domains; [None] executes through the interpreter.
          Build it once per campaign with {!prepare}. *)
  schedule : Mpisim.Schedule.prescription option;
      (** [Some p]: run in schedule mode — wildcard receives are served
          at quiescence under prescription [p] and every match decision
          is recorded in {!result.choices}. [None] (default): legacy
          eager matching, byte-identical to previous releases. *)
  on_event : Mpisim.Trace.event -> unit;
      (** communication-trace sink (default: ignore) *)
}

val default_config : info:Minic.Branchinfo.t -> config
(** 8 processes, focus 0, reduction and two-way on, framework on,
    process cap 16 — the paper's defaults. [compiled] is [None]; cheap
    one-off runs (unit tests) interpret, campaigns call {!prepare}. *)

val prepare : ?target:string -> exec_mode -> Minic.Branchinfo.t -> Minic.Compile.t option
(** Compile the target once for a campaign (the [Exec_compiled] mode);
    [Exec_interp] returns [None]. Compilation is timed as a
    ["compile"] {!Obs.Timeline} span and emits an {!Obs.Event.Compile}
    event, so compile cost is attributed separately from run cost. *)

type result = {
  execution : Concolic.Execution.t;  (** the focus's concolic record *)
  coverage : Concolic.Coverage.t;  (** union over recording processes *)
  outcomes : (unit, Minic.Fault.t) Stdlib.result array;
  deadlocked : int list;
  leaked_messages : int;  (** sends no receive consumed (message leaks) *)
  focus_tail : (int * bool) list;
      (** the focus's last branch decisions — failure context *)
  focus_log_bytes : int;
  nonfocus_log_bytes : int;  (** average per non-focus process *)
  mapping : (int * int array) list;  (** focus's Table II *)
  constraint_set_size : int;
  wall_time : float;
  choices : Mpisim.Schedule.choice list;
      (** wildcard match decisions in service order; empty unless the
          run executed in schedule mode *)
  events : Obs.Event.t list;
      (** the telemetry events the run emitted
          ({!Mpisim.Scheduler.run_result.events}); empty unless a sink
          was writing at run start *)
}

val faults : result -> (int * Minic.Fault.t) list
(** [(rank, fault)] for every process that faulted. *)

val run : config -> (result, [ `Platform_limit of int ]) Stdlib.result
