(** The structured telemetry vocabulary: everything a campaign does that
    is worth a line in a trace.

    One constructor per occurrence kind, carrying only scalars — every
    layer of the engine (solver, scheduler, interpreter, driver) can
    build these without new dependencies, and a JSONL consumer gets flat
    objects. [to_json]/[of_json] round-trip exactly (see test_obs). *)

type solver_outcome = Sat | Unsat | Unknown

val outcome_name : solver_outcome -> string

type t =
  | Campaign_start of { target : string; iterations : int; seed : int; nprocs : int }
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
  | Iter_start of { iteration : int; nprocs : int; focus : int }
  | Iter_end of {
      iteration : int;
      covered : int;
      reachable : int;
      cs_size : int;
      faults : int;
      restarted : bool;
      exec_s : float;
      solve_s : float;
    }
  | Solver_call of {
      incremental : bool;
      outcome : solver_outcome;
      nodes : int;  (** search nodes expended (bounded by the budget) *)
      vars : int;  (** variables in the (closure of the) solved set *)
      constraints : int;
      time_s : float;
    }
  | Negation of { iteration : int; index : int; sat : bool }
      (** one attempt to negate the focus path constraint at [index] *)
  | Restart of { iteration : int; reason : string }
      (** [reason] is one of ["stagnation"], ["exhausted"],
          ["platform-limit"] *)
  | Sched_deadlock of { ranks : int list }
  | Fault of { iteration : int; rank : int; kind : string; detail : string }
  | Coverage_delta of { iteration : int; covered_before : int; covered_after : int }
  | Worker_spawn of { worker : int }
      (** a campaign worker domain came up ([worker] 0 is the main
          domain, which also executes tasks) *)
  | Worker_task of { worker : int; task : int; time_s : float }
      (** one pool task (speculative solve+execute) finished on
          [worker]; [task] is the pool-wide dispatch sequence number *)
  | Worker_exit of { worker : int; tasks : int }
      (** a worker domain drained and joined after running [tasks] tasks *)
  | Cache_lookup of { hit : bool; constraints : int; entries : int }
      (** one solver-cache probe: [constraints] is the size of the
          canonicalized closure looked up, [entries] the cache
          population at probe time *)
  | Cache_evict of { dropped : int; entries : int }
      (** the solver cache dropped [dropped] oldest entries to respect
          its capacity *)
  | Checkpoint_write of { iteration : int; path : string; bytes : int }
      (** a campaign snapshot was committed (atomically) to [path] after
          iteration [iteration]; [bytes] is the serialized payload size *)
  | Checkpoint_load of { iteration : int; path : string }
      (** a campaign resumed from the snapshot at [path], continuing
          after iteration [iteration] — the stitch point in a trace *)
  | Lineage_test of {
      test : int;
      parent : int;
      origin : string;
      branch : int;
      index : int;
      cached : bool;
    }
      (** provenance of test case [test]: [origin] is ["seed"],
          ["negated"], ["restart"], or ["schedule"]; for negated tests
          [parent] is the test whose path was negated, [branch] the
          branch id the negation targeted, [index] the constraint-set
          position, and [cached] whether the producing verdict was a
          cache replay. For schedule tests [parent] is the run whose
          recorded choices were forked, [index] the flipped choice
          point, and [branch] the alternative source delivered. Seeds
          and restarts carry [parent]=[branch]=[index]=-1. *)
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
          diagnosable from the trace alone *)
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
          these. *)
  | Status_snapshot of {
      rounds : int;
      executed : int;
      covered : int;
      reachable : int;
      bugs : int;
      queue : int;
      path : string;
    }
      (** the campaign published a live status snapshot to [path]
          (see {!Status}): [rounds] merge rounds completed, [executed]
          tests run, [queue] the work-queue depth at the publish point.
          Emitted at most once per publish, so the trace records when
          (and how often) the dashboard data refreshed. *)
  | Ledger_append of { path : string; run : string; covered : int; reachable : int; bugs : int }
      (** the campaign appended run [run]'s summary record to the
          ledger store at [path] (see {!Ledger}) — the longitudinal
          cross-campaign record behind [compi-cli history]/[compare] *)

val kind_name : t -> string
(** The wire name, i.e. the ["ev"] field of the JSON encoding. *)

val to_json : ?t:float -> t -> Json.t
(** Flat object [{"ev": kind, ("t": seconds)?, field…}]. [t] is the
    emission timestamp relative to sink installation. *)

val of_json : Json.t -> (t, string) result
(** Inverse of [to_json] (the ["t"] field is ignored). *)
