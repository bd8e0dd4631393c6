(** Live campaign status snapshot.

    The campaign engine publishes one of these (atomically: temp file +
    rename) at every merge point when a status file is configured;
    [compi-cli watch] reads it back. The document
    is a single flat JSON object with a version field, so a newer
    producer can add fields without breaking an older reader — the v1
    core is always readable. *)

val version : int
(** Schema version this build writes (1). *)

type t = {
  target : string;
  budget : int;  (** iteration budget of the run *)
  rounds : int;  (** merge rounds completed *)
  executed : int;  (** iteration ids assigned (merged executions) *)
  covered : int;
  reachable : int;
  bugs : int;
  queue_depth : int;  (** peak claimed-but-unmerged pipeline depth *)
  utilization : float;  (** worker busy time / (wall × jobs), in [0, 1] *)
  cache_hit_rate : float;  (** solver-cache hits / probes, 0 when off *)
  schedule_forks : int;  (** alternative schedules enumerated so far *)
  plateau : bool;  (** no coverage gained over the trailing window *)
  eta_iterations : int;
      (** iterations to full reachable coverage at the current
          coverage-curve slope; -1 when no estimate is possible, 0 when
          already fully covered *)
  finished : bool;  (** the campaign wrote its final snapshot *)
}

val estimate : ?window:int -> reachable:int -> (int * int) list -> bool * int
(** [(plateau, eta_iterations)] from an ascending coverage curve
    [(iteration, covered)]: the slope over the trailing [window]
    (default 20) iterations extrapolated to [reachable]. A window with
    zero gain is a plateau; too little history gives [(false, -1)]. *)

val of_fold :
  target:string -> budget:int -> rounds:int -> executed:int -> covered:int ->
  queue_depth:int -> utilization:float -> finished:bool -> Fold.state -> t
(** A snapshot whose reachable count, bugs, cache hit rate, schedule
    forks and plateau/ETA estimate are read from the campaign's own
    event fold ({!Fold.live}); the labelled arguments are the campaign's
    trajectory and engine state. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Reads the v1 core fields; extra fields from newer producers are
    ignored. *)

val publish : string -> t -> unit
(** Atomic write: the snapshot is written to [path ^ ".tmp"] and
    renamed over [path], so a concurrent reader never sees a torn
    document. *)

val read : string -> (t, string) result
(** [Error] for any read failure (a missing file, a directory, …) as
    well as for a malformed document; never raises. *)
