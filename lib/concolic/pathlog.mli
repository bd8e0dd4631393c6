(** Per-execution path log of the focus process.

    Records every branch event with its optional symbolic constraint and
    implements COMPI's {e constraint-set reduction} (paper section IV-C):
    when reduction is on, a constraint from a conditional statement is
    kept only the first time that conditional is seen or when its
    boolean outcome flips relative to the previous observation — the
    loop-redundancy heuristic. All branch events are always recorded for
    coverage regardless of reduction.

    The log also models the focus process's log file for the two-way
    instrumentation cost accounting (Table IV): {!heavy_bytes} is the
    size of a full symbolic log. *)

type t

val create : reduce:bool -> t
(** A fresh log. Its event buffer is one that {!release} returned on
    the same domain when there is one, else a new 64-slot array. *)

val release : t -> unit
(** Hand the log's event buffer back to the calling domain for the next
    {!create}. The log owns its buffer from [create] until [release],
    so call it only once everything the events give has been read:
    afterwards {!constraints} and the counts ({!constraint_count},
    {!branch_events}, {!heavy_bytes}) still answer, while {!record},
    {!tail} and {!serialize} raise [Invalid_argument].
    Releasing twice is harmless. Several logs may be live on a domain at
    once (a one-way run keeps one per heavy process); each keeps its own
    buffer until it is released. *)

val record : t -> cond_id:int -> taken:bool -> constr:Smt.Constr.t option -> unit
(** Log one branch event; [constr] is [None] for a concrete branch.
    Events are stored flat and the reduction state is one byte per
    conditional id, so only array growth and a kept constraint's list
    cell allocate. *)

val constraints : t -> (int * Smt.Constr.t) array
(** The constraint path: kept symbolic constraints in order, each with
    the branch id it came from. Negation indices refer to positions in
    this array. *)

val constraint_count : t -> int
val branch_events : t -> int

val tail : ?n:int -> t -> (int * bool) list
(** The last [n] (default 8) branch decisions, oldest first — the
    failure context attached to bug reports. *)

val heavy_bytes : t -> int

val serialize : t -> string
(** The focus process's log file, really rendered: every branch event
    and every kept constraint, line-oriented. CREST ships this file
    between the target and the search at {e every} iteration; calling
    this (and {!parse_count} on the result) in the runner charges that
    real cost, which is exactly what constraint-set reduction shrinks.

    One line per event: the branch id, then for a kept constraint its
    relation, each term as [coeff*var] and the constant, space-separated.
    Rendering is exact-size: a width pass sums every line's bytes from
    each integer's decimal width (sign included), one [Bytes.create]
    of that size follows, and a write pass puts the digits in place, so
    no per-integer string or intermediate buffer is allocated. *)

val parse_count : string -> int
(** Scan a serialized log and count its records, one per newline (the
    read-back half of the round trip). *)
