(** Persistent run ledger: one versioned JSONL summary record appended
    per campaign, the longitudinal store behind [compi-cli history]
    (per-target trends) and [compi-cli compare] (coverage/bug/perf
    deltas between two runs).

    Forward compatibility mirrors the trace: a record whose version
    this build does not know is skipped and counted at [load], never an
    error, so old readers survive new writers. *)

val version : int
(** Schema version this build writes (1). *)

type bug = {
  bug_test : int;  (** lineage/test id of the failing iteration *)
  bug_rank : int;
  bug_kind : string;
}

type record = {
  run : string;  (** unique id ["<target>#<seq>"], assigned by [append] *)
  target : string;
  fingerprint : string;  (** settings [digest] *)
  exec_mode : string;  (** ["interp"] or ["compiled"] *)
  jobs : int;
  seed : int;
  budget : int;
  executed : int;
  rounds : int;
  covered : int;
  reachable : int;
  bugs : bug list;
  curve : (int * int) list;  (** final coverage curve, ascending *)
  wall_s : float;
  solver_calls : int;
  cache_hits : int;
  cache_misses : int;
  schedule_forks : int;
}

val digest : (string * string) list -> string
(** FNV-1a 64-bit hex digest of a settings fingerprint (key order
    preserved): identical settings give identical digests across runs
    and builds, without storing every key in every record. *)

val of_fold :
  target:string -> fingerprint:string -> exec_mode:string -> jobs:int -> seed:int ->
  budget:int -> executed:int -> rounds:int -> wall_s:float -> Fold.t -> record
(** The record of a finished campaign: coverage, reachable, bugs, curve
    and the solver, cache and schedule counts are read from the fold of
    the campaign's own events; the labelled arguments are its settings
    and engine state. [run] is left empty for {!append} to assign. *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result
(** [Error "unknown ledger version N"] for records from newer
    producers — [load] counts those as skips, not corruption. *)

type store = {
  records : record list;  (** file order = append order *)
  skipped : int;  (** records of unknown (newer) version *)
  malformed : int;
}

val load : string -> (store, string) result
(** Read a ledger file; [Error] only when the file itself is
    unreadable (missing, a directory, …) — never raises. *)

val append : string -> record -> record
(** Append to the JSONL store (creating it if absent), assigning
    [run = "<target>#<seq>"] where [seq] counts the existing lines.
    Returns the record as written. *)

val find : store -> string -> record option
(** Run selector: an integer selects by position ([-1] = latest,
    negative from the end), anything else matches a [run] id exactly. *)

type delta = {
  d_covered : int;
  d_reachable : int;
  d_bugs : int;
  d_executed : int;
  d_wall_s : float;
  d_solver_calls : int;
  d_hit_rate : float;
  same_settings : bool;  (** the two fingerprints are equal *)
  regression : bool;
      (** coverage dropped by more than the tolerance — the only gated
          dimension; perf deltas are informational *)
}

val hit_rate : record -> float

val diff : ?tolerance:int -> record -> record -> delta
(** Delta of the second run relative to the first. [regression] iff
    covered dropped by more than [tolerance] (default 0) branches, so
    two identical-settings runs always yield a zero-delta,
    no-regression comparison regardless of timing noise. *)
