(** Mini-C interpreter with concolic instrumentation hooks.

    One interpreter instance executes one MPI process. The [hooks] record
    is the two-way instrumentation of the paper (section IV-B):

    - {b heavy} mode maintains a symbolic shadow for every integer
      expression over marked variables and reports a symbolic constraint
      with every branch (this is what the focus process runs);
    - {b light} mode skips all shadow bookkeeping and only reports branch
      ids (what the non-focus processes run).

    Non-linear operations concretize their symbolic side (CREST
    behaviour), so every reported constraint is linear. *)

type mode = Heavy | Light

(** How a value obtained from the MPI environment should be marked
    (paper Table I: rw / rc / sw). *)
type sem_kind =
  | Rank_world
  | Rank_comm of Mpi_iface.comm
  | Size_world
  | Size_comm of Mpi_iface.comm

type hooks = {
  mode : mode;
  input_value : Ast.input_decl -> int;
      (** concrete value for a marked input in this test *)
  on_input : Ast.input_decl -> int -> Smt.Linexp.t option;
      (** symbolic shadow for a marked input (heavy mode only) *)
  on_mpi_sem : sem_kind -> int -> Smt.Linexp.t option;
      (** symbolic shadow for an MPI rank/size read (automatic marking) *)
  on_branch : id:int -> taken:bool -> constr:Smt.Constr.t option -> unit;
      (** every conditional evaluation; [constr] holds for the taken
          direction and is [None] when the condition is concrete or the
          mode is light *)
  keeps : id:int -> taken:bool -> bool;
      (** [keeps ~id ~taken] asks, before a heavy-mode branch statement
          builds its constraint, whether the path log will keep a
          constraint for conditional [id] with final outcome [taken]
          (after every [!] of the condition). When it answers [false]
          the statement reports [constr = None] without building the
          linear expression, so a log that would drop the constraint
          anyway (constraint-set reduction) costs no symbolic work.
          It must be a pure query: the executors call it at most once
          per branch event, right before that event's [on_branch], and
          conditions contain no calls, so no other hook runs between
          the two. Asserts never ask. *)
  on_func_enter : string -> unit;
      (** reachable-function accounting *)
  mpi : Mpi_iface.handler;
  step_limit : int;
}

val null_mpi : Mpi_iface.handler
(** Single-process stand-in: rank 0, size 1, self-sends unsupported.
    Raises [Fault.Fault (Mpi_error _)] for point-to-point requests. *)

val plain_hooks : ?step_limit:int -> ?mpi:Mpi_iface.handler -> unit -> hooks
(** Light-mode hooks that ignore all events; inputs read their declared
    defaults and [keeps] always answers [true], so a heavy run under
    them reports every symbolic constraint. Convenient for unit tests. *)

val run : hooks -> Ast.program -> (unit, Fault.t) result
(** Execute the program's entry function. All runtime faults are
    captured; exceptions escaping [hooks.mpi] (e.g. scheduler control
    effects) pass through untouched. *)
