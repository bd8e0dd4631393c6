(** The campaign engine: a deterministic pipeline of concurrent test
    execution with an in-order streaming merge. It is the one
    implementation of the paper's testing phase (section II-A); the
    experiments, {!Variants}, the examples and the CLI all run it, with
    {!Driver} supplying the settings and result records.

    The campaign runs in pipelined rounds. Each round the strategy yields a batch of negation candidates (plus
    any queued restart tests); every item becomes one fused task —
    solve the negation if needed, derive the next test, execute it —
    published to a {!Taskpool} of persistent worker domains. The main
    domain consumes results {e in work-list order as they stream in},
    merging item k while the pool is still working on items k+1, k+2, …
    — there is no round barrier. Iteration ids, coverage, bugs,
    strategy observations and restart decisions are all assigned at the
    merge, so the campaign trajectory is a pure function of the
    settings, not of the worker count or completion order. [--jobs 4]
    and [--jobs 1] produce byte-identical {!coverage_report}s (under an
    iteration budget; a wall-clock budget cuts off at a
    machine-dependent point).

    A {!Smt.Cache} in front of the solver lives on the main domain:
    probed when a candidate is dispatched, verdict inserted when it is
    merged — also deterministic points. Negations are solved in
    canonical mode (see {!Smt.Solver.solve_incremental}) whether the
    cache is on or off, so a verdict is a pure function of its cache
    key and a hit replays exactly what a live solve would return:
    [--solver-cache] changes solver work, never the trajectory.
    Unknown (budget-exhausted) solver outcomes are never cached.

    Each merged execution's [solve_time] is the solve that {e produced
    it} (0 for fresh random tests). See DESIGN.md §7.

    Campaigns are resumable: with [checkpoint] set, the engine writes a
    crash-safe {!Checkpoint.snapshot} every [checkpoint_every]
    iterations, on SIGINT/SIGTERM and at exit, always at a merge
    position — so an interrupted campaign resumed with [resume] (and a
    larger budget) continues on exactly the trajectory the
    uninterrupted run would have taken. See DESIGN.md, "Checkpoint and
    resume". *)

type settings = {
  base : Driver.settings;
  jobs : int;  (** worker domains (main participates); clamped to >= 1 *)
  batch : int;
      (** negation candidates drawn per round. A setting, {e not}
          derived from [jobs] — changing [jobs] must not change the
          trajectory. Default 4. *)
  solver_cache : bool;
  cache_capacity : int;
  checkpoint : string option;
      (** snapshot directory; [None] (the default) disables
          checkpointing entirely *)
  checkpoint_every : int;
      (** periodic snapshot cadence in merged iterations (default 50);
          [0] keeps only the final at-exit snapshot *)
  resume : bool;
      (** load the snapshot under [checkpoint] before running; raises
          {!Checkpoint.Load_error} if it is missing, damaged, from
          another format version, or fingerprint-incompatible *)
  status_file : string option;
      (** publish an {!Obs.Status} snapshot (atomic temp-file + rename)
          to this path at every merge position and once more, with
          [finished = true], when the campaign ends; [None] (the
          default) disables live status entirely *)
  ledger : string option;
      (** append an {!Obs.Ledger} summary record to this JSONL store
          when the campaign ends; [None] (the default) keeps no
          longitudinal record *)
}

val default_settings : settings
(** [Driver.default_settings], 1 job, batch 4, cache on at
    {!Smt.Cache.default_capacity}, checkpointing off
    ([checkpoint_every = 50] once a directory is supplied), no status
    file, no ledger. *)

type result = {
  summary : Driver.result;  (** the campaign summary every caller reads *)
  rounds : int;
  executed : int;  (** test executions merged into the campaign *)
  speculated : int;
      (** executions that completed but fell past the iteration budget
          and were dropped at the merge *)
  solver_calls : int;
      (** live solves (cache misses) whose verdicts merged into the
          trajectory — counted at merge, so the stat is invariant
          across [jobs] for a given merged result; solves discarded at
          the budget edge are only visible in [speculated] *)
  cache : Smt.Cache.stats option;
      (** [None] when the cache is off. [hits] and [misses] count merged
          negation attempts, like [solver_calls] (so [misses] equals
          it); [entries] and [evictions] are the cache's own. *)
  interrupted : bool;
      (** a SIGINT/SIGTERM stopped the campaign before its budget; the
          final checkpoint (when enabled) holds the cut point *)
  checkpoints_written : int;  (** snapshots committed this run *)
  queue_depth : int;
      (** peak pipeline depth: the most tasks ever claimed by the pool
          but not yet merged, across all rounds — 0 when nothing ran *)
  worker_busy_s : float;
      (** cumulative wall time spent inside tasks across all domains;
          [worker_busy_s / (wall_time * pool size)] is the pool
          utilization bench reports quote *)
}

val run : ?settings:settings -> ?label:string -> Minic.Branchinfo.t -> result
(** [label] names the target in the telemetry stream (the
    [campaign_start] event) and the checkpoint fingerprint. Emits the
    campaign event vocabulary (campaign boundaries, one [test] per
    merged execution, one [lineage_negation] per negation attempt,
    restarts, faults) plus the cache and checkpoint events, and feeds
    the [campaign.*] metrics and the [exec]/[solve]/[strategy]/[report]
    phase timers. Every event it emits is also stepped into the
    campaign's own {!Obs.Fold}, sink or no sink: [solver_calls], the
    cache hits and misses, the status snapshots and the ledger record
    are read from that fold, and the checkpoint carries it. Raises
    {!Checkpoint.Load_error} when [resume] is set and the checkpoint
    cannot be used (never partially applies one). *)

val coverage_report : result -> string
(** Canonical timing-free rendering — iteration count, coverage
    numbers, derived bound, sorted branch/function lists, chronological
    bug keys. The determinism guarantee is stated over this string:
    equal settings imply byte-equal reports at any [jobs], and a
    kill-and-resume sequence reproduces the uninterrupted run's report
    byte for byte. *)
