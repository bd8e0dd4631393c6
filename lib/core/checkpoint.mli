(** Crash-safe campaign checkpoints: versioned on-disk snapshots of
    everything a {!Campaign} needs to continue after process death.

    A snapshot captures the campaign at a {e merge position} — the main
    domain has merged some prefix of the current round's results and the
    rest of the round is recorded as un-merged work items. Because every
    test execution is a pure function of its {!Driver.pending} (and
    every canonical solve a pure function of its cache key), a resumed
    campaign re-dispatches the recorded tail and continues on exactly
    the trajectory the uninterrupted run would have taken: the final
    {!Campaign.coverage_report} is byte-identical, at any [--jobs]
    value. The CI kill-and-resume matrix enforces this.

    On disk a checkpoint directory holds:

    - [campaign.ckpt] — header line ([COMPI-CKPT <version>]), digest
      line (MD5 of the payload plus its length), then the marshalled
      {!state}. Writes go to a temp file in the same directory and
      are committed with an atomic rename, so a SIGKILL at any moment
      leaves either the previous snapshot or the new one — never a
      torn file. {!load} verifies magic, version, length and digest and
      rejects anything else with a diagnostic ({!error}).
    - [corpus.txt] — the accumulated bug corpus rendered as
      {!Testcase} blocks (blank-line separated), also written via
      temp-and-rename. Human-readable and re-loadable with
      {!Testcase.load}; purely informational on resume (the
      authoritative corpus is inside the state).

    The state embeds a settings {!fingerprint}; {!mismatches}
    compares it against the resuming run's settings so a checkpoint can
    never be silently resumed under a different seed, strategy, batch
    size or cap set. Budgets ([iterations], [time_budget]) and [jobs]
    are deliberately {e not} fingerprinted — raising the budget is how
    a resume continues, and the worker count never affects the
    trajectory. *)

type work =
  | W_fresh of Driver.pending  (** execute a fresh test *)
  | W_negate of Concolic.Strategy.candidate  (** attempt a negation *)

type state = {
  fingerprint : (string * string) list;
      (** the settings the campaign runs under (see {!fingerprint}) *)
  mutable iter : int;  (** iterations merged so far *)
  mutable rounds : int;
  mutable speculated : int;
      (** executions completed but dropped at a budget edge *)
  fold : Obs.Fold.state;
      (** the fold of the events the campaign emitted so far: every
          [test] event whole (the per-test stats and the executed
          count), the solver, cache, schedule and bug counts *)
  mutable max_cs : int;  (** largest constraint set observed *)
  mutable last_improvement : int;  (** iteration of the last coverage gain *)
  mutable barren : int;  (** consecutive failed negations since a SAT one *)
  mutable last_np : int * int;  (** last merged (nprocs, focus) *)
  mutable derived_bound : int option;  (** the two-phase BoundedDFS bound *)
  rng : Random.State.t;
  mutable strategy : Concolic.Strategy.t;  (** negation work-list / frontier *)
  coverage : Concolic.Coverage.t;
  cache : Smt.Cache.t option;
  mutable bugs : Driver.bug list;  (** reverse chronological *)
  mutable forced : Driver.pending list;  (** restart tests queued mid-round *)
  mutable stagnated_round : bool;
  mutable schedules : Driver.pending list;
      (** schedule forks enumerated but not yet dispatched (reverse
          accumulation order; the scheduler re-sorts deterministically) *)
  mutable work : work list;
      (** items of the current round not yet merged; re-executed
          deterministically on resume, then scheduling continues *)
}
(** The campaign's whole mutable state, declared once: {!Campaign.run}
    builds a fresh one or resumes a loaded one, mutates it only on the
    main domain at merge positions, and {!save}s it as it stands. *)

val version : int
(** Current snapshot format version; {!load} rejects any other. *)

val layout_digest : int * string
(** [(version, digest)]: the MD5 hex of the marshalled bytes of a fixed
    small {!state} (built by the checkpoint tests) under this
    [version]. [Marshal] does not check types, so a layout change that
    kept the old version would load an old snapshot as the new type;
    the tests recompute the digest and fail until [version] is bumped
    and this pair updated. *)

val file : dir:string -> string
(** [dir ^ "/campaign.ckpt"]. *)

val corpus_file : dir:string -> string
(** [dir ^ "/corpus.txt"]. *)

type error =
  | No_checkpoint of string  (** no [campaign.ckpt] under the directory *)
  | Bad_magic of string  (** not a COMPI checkpoint (first bytes shown) *)
  | Version_mismatch of { found : int; expected : int }
  | Truncated of { expected : int; actual : int }
      (** payload shorter (or longer) than the header declares *)
  | Checksum_mismatch  (** payload bytes do not match the MD5 header *)
  | Corrupt of string  (** header or payload unreadable *)
  | Settings_mismatch of (string * string * string) list
      (** [(key, stored, current)] for every fingerprint divergence *)

exception Load_error of error
(** Raised by {!Campaign.run} when [resume] is set and the checkpoint
    cannot be used. *)

val error_to_string : error -> string

val fingerprint :
  label:string ->
  batch:int ->
  solver_cache:bool ->
  cache_capacity:int ->
  Driver.settings ->
  (string * string) list
(** Every trajectory-relevant setting, rendered as stable strings.
    Excludes [iterations], [time_budget] and the worker count. *)

val mismatches :
  stored:(string * string) list ->
  current:(string * string) list ->
  (string * string * string) list
(** [(key, stored_value, current_value)] for keys whose values differ
    (missing keys render as ["<absent>"]). Empty means compatible. *)

val save : dir:string -> target:string -> state -> int
(** Atomically commit [campaign.ckpt] (and [corpus.txt], rendered for
    [target]) under [dir], creating the directory if needed. Returns the
    serialized payload size in bytes. *)

val load : dir:string -> (state, error) result
(** Never raises on malformed input: a directory left by a killed run
    either loads or is rejected with a diagnostic {!error}. *)
