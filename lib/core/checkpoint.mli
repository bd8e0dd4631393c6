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
      {!snapshot}. Writes go to a temp file in the same directory and
      are committed with an atomic rename, so a SIGKILL at any moment
      leaves either the previous snapshot or the new one — never a
      torn file. {!load} verifies magic, version, length and digest and
      rejects anything else with a diagnostic ({!error}).
    - [corpus.txt] — the accumulated bug corpus rendered as
      {!Testcase} blocks (blank-line separated), also written via
      temp-and-rename. Human-readable and re-loadable with
      {!Testcase.load}; purely informational on resume (the
      authoritative corpus is inside the snapshot).

    The snapshot embeds a settings {!fingerprint}; {!mismatches}
    compares it against the resuming run's settings so a checkpoint can
    never be silently resumed under a different seed, strategy, batch
    size or cap set. Budgets ([iterations], [time_budget]) and [jobs]
    are deliberately {e not} fingerprinted — raising the budget is how
    a resume continues, and the worker count never affects the
    trajectory. *)

type work =
  | W_fresh of Driver.pending  (** execute a fresh test *)
  | W_negate of Concolic.Strategy.candidate  (** attempt a negation *)

type snapshot = {
  ck_fingerprint : (string * string) list;
  ck_iter : int;  (** iterations merged so far *)
  ck_rounds : int;
  ck_executed : int;
  ck_speculated : int;
  ck_fold : Obs.Fold.state;
      (** the campaign's fold of the events it emitted so far: solver,
          cache, schedule and bug counts and the coverage curve *)
  ck_max_cs : int;
  ck_best_covered : int;
  ck_last_improvement : int;
  ck_barren : int;  (** consecutive failed negations since a SAT one *)
  ck_last_np : int * int;  (** last merged (nprocs, focus) *)
  ck_derived_bound : int option;
  ck_rng : Random.State.t;
  ck_strategy : Concolic.Strategy.t;  (** negation work-list / frontier *)
  ck_coverage : Concolic.Coverage.t;
  ck_cache : Smt.Cache.t option;
  ck_stats : Driver.iter_stat list;  (** reverse chronological *)
  ck_bugs : Driver.bug list;  (** reverse chronological *)
  ck_forced : Driver.pending list;  (** restart tests queued mid-round *)
  ck_stagnated_round : bool;
  ck_schedules : Driver.pending list;
      (** schedule forks enumerated but not yet dispatched (reverse
          accumulation order; the scheduler re-sorts deterministically) *)
  ck_work : work list;
      (** items of the current round not yet merged; re-executed
          deterministically on resume, then scheduling continues *)
}

val version : int
(** Current snapshot format version; {!load} rejects any other. *)

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

val save : dir:string -> target:string -> snapshot -> int
(** Atomically commit [campaign.ckpt] (and [corpus.txt], rendered for
    [target]) under [dir], creating the directory if needed. Returns the
    serialized payload size in bytes. *)

val load : dir:string -> (snapshot, error) result
(** Never raises on malformed input: a directory left by a killed run
    either loads or is rejected with a diagnostic {!error}. *)
