(** Fixed pool of worker domains with in-order streaming results.

    Each worker is an OCaml 5 domain with its own stacks, so the
    effect-handler runtimes of the MPI scheduler and the interpreter —
    created per test execution — never cross domains. The calling
    domain participates as worker 0.

    There is no batch barrier: {!stream} publishes tasks and {!next}
    hands each result back strictly in submission order {e as soon as
    it is ready}, while the pool is still executing later items. The
    only wait is the in-order consumer blocking on the single index it
    needs next, recorded as a ["queue.wait"] span on the consumer's
    domain. This is what lets the campaign merge item k while item k+1
    is still solving/executing.

    Telemetry: every task records a ["task"] span on the domain that ran
    it, a parked worker an ["idle"] span, and {!shutdown} a ["join"]
    span. *)

type t

val create : jobs:int -> t
(** Spawn [jobs - 1] domains ([jobs] is clamped to at least 1). *)

val jobs : t -> int

type 'a stream
(** An in-flight batch whose results are consumed in submission order. *)

val stream : t -> (unit -> 'a) list -> 'a stream
(** [stream t thunks] publishes [thunks] to the pool and returns a
    handle for in-order consumption. Workers start claiming tasks
    immediately. Not reentrant: one stream (or {!map}) at a time per
    pool, and a stream must be consumed to exhaustion before the next
    one is opened. *)

val next : 'a stream -> 'a option
(** [next st] blocks until the earliest unconsumed task has finished
    and returns its result; [None] once the batch is exhausted. If the
    needed task is still unclaimed, the caller runs it inline (worker
    0) instead of waiting — with [jobs = 1] this makes consumption
    exactly the sequential in-order execution of the batch. If a task
    raised, [next] first drains the remaining tasks (keeping the pool
    reusable), then re-raises the first exception in submission
    order. *)

val max_inflight : 'a stream -> int
(** Peak number of claimed-but-unconsumed tasks observed so far — the
    effective pipeline depth of the batch. *)

val busy_seconds : t -> float
(** Cumulative wall time spent inside tasks across all domains since
    [create] — utilization numerator for bench reports. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is {!stream} consumed to exhaustion: run [f] over
    every element and return the results in input order. If any task
    raised, the first such exception (in input order) is re-raised on
    the caller after the whole batch settles. Not reentrant: one [map]
    at a time per pool. *)

val shutdown : t -> unit
(** Stop and join every worker domain. The pool must be idle. *)
