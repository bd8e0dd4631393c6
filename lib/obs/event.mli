(** The structured telemetry vocabulary: everything a campaign does that
    is worth a line in a trace.

    One constructor per occurrence kind, carrying only scalars — every
    layer of the engine (solver, scheduler, interpreter, driver) can
    build these without new dependencies, and a JSONL consumer gets flat
    objects. [write]/[of_json] round-trip exactly (see test_obs). *)

type solver_outcome = Sat | Unsat | Unknown

val outcome_name : solver_outcome -> string

type test = {
  test : int;
  parent : int;
  origin : string;
  branch : int;
  index : int;
  cached : bool;
  nprocs : int;
  focus : int;
  covered : int;
  reachable : int;
  cs_size : int;
  faults : int;
  restarted : bool;
  exec_s : float;
  solve_s : float;
}
  (** A [test] event: one merged test execution, emitted at its merge
      position. Provenance: [origin] is ["seed"], ["negated"], ["restart"],
      or ["schedule"]; for negated tests [parent] is the test whose path was
      negated, [branch] the branch id the negation targeted, [index] the
      constraint-set position, and [cached] whether the producing verdict
      was a cache replay. For schedule tests [parent] is the run whose
      recorded choices were forked, [index] the flipped choice point, and
      [branch] the alternative source delivered (a rank, not a branch id).
      Seeds and restarts carry [parent]=[branch]=[index]=-1. The run itself:
      [nprocs] and [focus] as executed, cumulative [covered] and [reachable]
      after the merge, the constraint-set size [cs_size], [faults] found,
      whether the merge triggered a stagnation restart, and the execute and
      solve wall times. *)

type t =
  | Campaign_start of {
      target : string;
      iterations : int;
      seed : int;
      nprocs : int;
      solver_cache : bool;
    }
      (** [solver_cache] is whether the campaign ran with the solver
          cache on: with it off no negation attempt probes the cache,
          so the fold counts no hits or misses *)
  | Compile of { target : string; funcs : int; conds : int; slots : int; time_s : float }
      (** the target was compiled to closures (once per campaign):
          [funcs]/[conds]/[slots] are compiled-program sizes, [time_s]
          the compile cost that [compi-cli profile] attributes to the
          ["compile"] phase rather than to run time *)
  | Campaign_end of {
      iterations_run : int;
      covered : int;
      reachable : int;
      bugs : int;
      wall_s : float;
    }
  | Test of test
  | Restart of { iteration : int; reason : string }
      (** [reason] is one of ["stagnation"], ["exhausted"],
          ["platform-limit"] *)
  | Sched_deadlock of { ranks : int list }
  | Fault of { iteration : int; rank : int; kind : string; detail : string }
  | Cache_evict of { dropped : int; entries : int }
      (** the solver cache dropped [dropped] oldest entries to respect
          its capacity *)
  | Checkpoint_write of { iteration : int; path : string; bytes : int }
      (** a campaign snapshot was committed (atomically) to [path] after
          iteration [iteration]; [bytes] is the serialized payload size *)
  | Checkpoint_load of { iteration : int; path : string }
      (** a campaign resumed from the snapshot at [path], continuing
          after iteration [iteration] — the stitch point in a trace *)
  | Lineage_negation of {
      parent : int;
      index : int;
      branch : int;
      outcome : solver_outcome;
      cached : bool;
    }
      (** one negation attempt against test [parent]'s path at [index],
          targeting [branch]; recorded for every attempt (including
          Unsat/Unknown ones that produce no test) so plateaus are
          diagnosable from the trace alone. Emitted at the merge, so
          it is the one record of each attempt: an uncached attempt is
          a live solver call, a [cached] one a cache replay. *)
  | Mpi_summary of {
      nprocs : int;
      sends : int list;
      recvs : int list;
      colls : int list;
      blocked : int list;
      matrix : int list;
      collectives : (int * string * int) list;
    }
      (** one simulated execution ([Scheduler.run]) of [nprocs] ranks,
          summed up: per global rank the sends posted, blocking
          receives completed, collectives joined and blocking episodes
          begun; [matrix] is the row-major [nprocs × nprocs] count of
          point-to-point messages delivered from global sender to
          global receiver; [collectives] lists each completed
          [(comm, signature, count)]. On the wire the per-rank and
          matrix lists are flat integer arrays and [collectives] is
          three parallel arrays ([coll_comms], [coll_sigs],
          [coll_counts]); a line whose lengths disagree with [nprocs]
          or with each other fails to decode. *)
  | Deadlock_witness of { rank : int; comm : int; kind : string; peer : int }
      (** one wait-for edge of a proven deadlock: blocked [rank] waits
          on [peer] (a missing collective participant, or the sender it
          receives/waits from; -1 when unknowable). The full set of
          witness edges names the wait-for cycle. *)
  | Schedule_choice of {
      rank : int;
      comm : int;
      tag : int;
      chosen : int;
      alts : int list;
      point : int;
    }
      (** schedule mode: the [point]-th wildcard choice point of a run
          delivered the message from local source [chosen] (tag [tag])
          to global receiver [rank]; [alts] is the sorted set of local
          sources that were eligible — the schedule forked here when
          [alts] has more than one entry *)
  | Schedule_enum of { parent : int; points : int; emitted : int; pruned : int }
      (** the schedule enumerator processed test [parent]'s recorded
          choices: [points] choice points were examined, [emitted]
          alternative prescriptions were queued as schedule candidates,
          and [pruned] alternatives were dropped by partial-order
          reduction (prescribed-prefix rule) or the depth budget *)
  | Span of { domain : int; kind : string; t0 : int; t1 : int }
      (** one timed interval from the {!Timeline}: work of [kind] ran on
          [domain] (pool worker index; 0 = main) from monotonic tick
          [t0] to [t1], in nanoseconds since the timeline was enabled.
          The profile fold ([compi-cli profile]) is built entirely from
          these and the [span_summary] rows. *)
  | Span_summary of { rows : (int * string * int * int) list }
      (** the spans one {!Timeline.drain} folded instead of emitting:
          row [(domain, kind, count, ns)] is [count] spans of [kind] on
          [domain], [ns] nanoseconds in all, each inside another busy
          span of its domain; on the wire one array per row *)
  | Ledger_append of { path : string; run : string; covered : int; reachable : int; bugs : int }
      (** the campaign appended run [run]'s summary record to the
          ledger store at [path] (see {!Ledger}) — the longitudinal
          cross-campaign record behind [compi-cli history]/[compare] *)

val kind_name : t -> string
(** The wire name, i.e. the ["ev"] field of the JSON encoding. *)

val write : ?t:float -> Buffer.t -> t -> unit
(** Append the event's trace line, without its newline: the flat object
    [{"ev": kind, ("t": seconds)?, field…}], written straight into the
    buffer with the {!Json} writers. [t], the emission time relative to
    sink installation, is fixed point with six decimals, rounded to the
    microsecond; the rest of the line is byte for byte what
    {!Json.to_string} prints for the same fields. *)

val to_line : ?t:float -> t -> string
(** {!write} into a fresh buffer. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!write} (the ["t"] field is ignored). *)
