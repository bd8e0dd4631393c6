(** Replay of repeated executions within one campaign.

    A campaign derives some tests more than once. A run is a pure
    function of its {!key} under the campaign's fixed settings, so
    {!Campaign} looks each pending test up here before it runs it, and a
    hit copies the remembered result instead of simulating the ranks
    again.

    An entry holds the execution weakly (the search owns it; the memo
    keeps alive nothing the search has freed) and the rest of the
    result strongly. At most {!capacity} keys are held, first in, first
    out. The memo is not part of a checkpoint: a resume starts it empty,
    which changes which tests replay, never what they merge. *)

type key
(** Exactly what a run depends on beyond the campaign's settings: the
    inputs, the process count, the focus and the schedule prescription
    (with schedules on). *)

val key : Runner.config -> key

type t
(** The campaign's memo. Only the main domain writes it, at merge. *)

val capacity : int
(** 64 keys. *)

val create : unit -> t

val remember : t -> key -> Runner.result -> unit
(** Keep a merged, successful run for replay. A key already held keeps
    its place in the order, and its entry is replaced only once the
    execution it holds has been reclaimed. *)

type view
(** An immutable snapshot of the memo: what a round's tasks read, so no
    lock guards it. *)

val view : t -> view

val replay : view -> key -> Runner.result option
(** The remembered result of [key]'s run, if its execution is still
    alive. The result's execution is a fresh copy with [exec_id = -1]
    that shares the constraints, tables and any built closure index;
    every other field is the remembered run's, but [wall_time], which is
    the copy's own. The run's telemetry events
    ({!Runner.result.events}) are emitted again, and the copy is timed
    as an ["exec"] span. *)
