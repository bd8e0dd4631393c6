(** Schedule prescriptions for wildcard receives.

    When {!Scheduler.run} executes in schedule mode, every
    [MPI_ANY_SOURCE] receive that could match more than one sender is a
    {e choice point}: the scheduler consults a [prescription] — entry k
    names the local source rank to deliver at the k-th choice point —
    and records the decision it actually took (prescribed or default)
    as a {!choice}. A schedule is thereby replayable exactly like a
    test case, and a bug is named by an (input, schedule) pair.

    Scope: blocking wildcard receives are the only choice points.
    Wildcard [Irecv]s still match eagerly (in posting order), and
    tag-only wildcards with a fixed source are deterministic under MPI
    non-overtaking, so neither forks the schedule space. *)

type prescription = int list
(** Local source ranks to deliver, one per wildcard choice point in
    service order. Points beyond the list fall back to the default
    (first eligible message in arrival order). *)

type choice = {
  ch_rank : int;  (** global receiving rank *)
  ch_comm : int;
  ch_tag : int;  (** tag of the delivered message *)
  ch_chosen : int;  (** local source rank delivered *)
  ch_alts : int list;  (** sorted eligible local sources (≥ 1 entry) *)
}
(** One recorded wildcard match decision. *)

val empty : prescription

val to_string : prescription -> string
(** Dotted rendering ("1.0.2"); the empty prescription prints as "-". *)

val of_string : string -> prescription
(** Inverse of {!to_string}. Raises [Failure] on malformed input. *)

type alt = {
  alt_prescription : prescription;
  alt_point : int;  (** index of the flipped choice point *)
  alt_source : int;  (** the source delivered instead *)
}

val alternatives : depth:int -> prefix_len:int -> choice list -> alt list
(** All sibling prescriptions of a recorded run, flipping one choice
    each: for every choice point at index >= [prefix_len] (points inside
    the run's prescribed prefix were forked when an ancestor was
    enumerated) and < [depth], and every eligible source other than the
    one delivered, the prescription replaying the chosen prefix up to
    that point and then the alternative. Single-candidate points emit
    nothing — the on-the-fly partial-order reduction. *)

type stats = { st_points : int; st_emitted : int; st_pruned : int }

val stats : choice list -> alt list -> stats
(** [stats choices alts] is the accounting for the enumeration [alts]
    that {!alternatives} built from [choices]: choice points recorded,
    forks emitted, and alternatives pruned (by the prefix rule, the
    depth budget, or single-candidate points). *)
