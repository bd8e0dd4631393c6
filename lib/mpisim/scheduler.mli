(** Deterministic cooperative MPI scheduler.

    Each simulated process runs as an OCaml-5 effect fiber; every MPI
    request suspends the fiber and is matched here. Point-to-point sends
    are eager (buffered); receives and collectives block until matched.
    Scheduling is FIFO and fully deterministic, which the test suite
    relies on.

    The interleaving is part of the contract. Every request, pure
    queries such as [MPI_Comm_rank] and [MPI_Comm_size] included,
    suspends its fiber and is handled at once; a request that can be
    answered queues the fiber at the tail of the FIFO run queue, and one
    that blocks queues it when it is matched. That order decides which
    message an eager wildcard receive takes, which rank a collective
    mismatch blames, the deadlock witnesses and the order of trace
    events, so answering a request without suspending would change all
    of them.

    A run that reaches a state where unfinished processes are all blocked
    is declared deadlocked: the blocked processes are terminated with an
    [Fault.Mpi_error] mentioning "deadlock" and the result is flagged.
    They are terminated in ascending global rank order, and the
    [Trace.Deadlock] and [Obs.Event.Sched_deadlock] events list them in
    that order. *)

exception Platform_limit of int
(** Raised when a test demands more processes than the platform cap —
    the simulator's version of the paper's anecdote about COMPI freezing
    the machine by launching hundreds of thousands of processes. *)

val default_max_procs : int

type leaked_message = { leak_comm : int; leak_dest : int; leak_tag : int }

type run_result = {
  outcomes : (unit, Minic.Fault.t) result array;  (** per global rank *)
  deadlocked : int list;  (** ranks terminated by deadlock detection *)
  registry : Rankmap.t;  (** communicator registry after the run *)
  leaked : leaked_message list;
      (** sends that no receive consumed — the message-leak diagnostic of
          the UMPIRE/MARMOT family of MPI checkers — by communicator
          handle, then destination, then arrival *)
  choices : Schedule.choice list;
      (** wildcard match decisions taken in service order — empty unless
          the run executed in schedule mode ([?schedule]) *)
  events : Obs.Event.t list;
      (** the telemetry events the run emitted, in order: each
          [Schedule_choice], [Deadlock_witness] and [Sched_deadlock],
          then the [Mpi_summary]; empty unless a sink was writing at run
          start *)
}

val run :
  ?max_procs:int ->
  ?on_event:(Trace.event -> unit) ->
  ?schedule:Schedule.prescription ->
  nprocs:int ->
  (rank:int -> mpi:Minic.Mpi_iface.handler -> (unit, Minic.Fault.t) result) ->
  run_result
(** [run ~nprocs body] executes [body ~rank ~mpi] for every rank as a
    fiber and schedules them to completion. [mpi] is the rank's request
    handler; it suspends the fiber and is valid only inside [body].
    [body] must not let exceptions escape (return faults as [Error]);
    an escaped exception aborts the whole run.

    With [?schedule] the run executes in {e schedule mode}: wildcard
    ([MPI_ANY_SOURCE]) receives never match eagerly; each is served at
    quiescence — lowest blocked rank first, one per round — by
    consulting the prescription (default: first eligible message in
    arrival order, also used when the prescription is exhausted or
    names an ineligible source). Every decision is recorded in
    [choices] and emitted as a [Schedule_choice] trace event. Without
    [?schedule] the legacy eager matching is byte-identical to previous
    releases.

    [on_event] sees every occurrence, message by message; with the
    default, {!Trace.discard}, no event is built. The {!Obs.Sink}
    sees, when one is writing at run start, the run's [events] at its
    end, in one {!Obs.Sink.emit_all}: each [Schedule_choice],
    [Deadlock_witness] and [Sched_deadlock] in the order they happened,
    then one [Obs.Event.Mpi_summary]. A caller that replays the run
    re-emits the same list. *)
