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
    {!tail}, {!render} and {!serialize} raise [Invalid_argument].
    Releasing twice is harmless. Several logs may be live on a domain at
    once (a one-way run keeps one per heavy process); each keeps its own
    buffer until it is released. *)

val record : t -> cond_id:int -> taken:bool -> constr:Smt.Constr.t option -> unit
(** Log one branch event; [constr] is [None] for a concrete branch.
    Events and kept constraints are stored flat, oldest first, and the
    reduction state is one byte per conditional id, so only array
    growth and a kept constraint's pair allocate. *)

val keeps : t -> cond_id:int -> taken:bool -> bool
(** [keeps t ~cond_id ~taken] is whether {!record} would keep a
    constraint for this event if it were given one: always when
    reduction is off, else when conditional [cond_id] has not been seen
    or its last outcome differs from [taken]. It changes nothing, so a
    heavy executor asks it first and builds the constraint only on
    [true]; a [None] recorded for a [false] leaves the log exactly as
    the dropped constraint would have. *)

val constraints : t -> (int * Smt.Constr.t) array
(** The constraint path: kept symbolic constraints in order, each with
    the branch id it came from. Negation indices refer to positions in
    this array. It is a fresh copy of the stored prefix. *)

val constraint_count : t -> int
val branch_events : t -> int

val tail : ?n:int -> t -> (int * bool) list
(** The last [n] (default 8) branch decisions, oldest first — the
    failure context attached to bug reports. *)

val heavy_bytes : t -> int

val render : t -> Bytes.t * int
(** [render t] is [(bytes, len)]: the focus process's log file, really
    rendered into the first [len] bytes of [bytes]. CREST ships this
    file between the target and the search at {e every} iteration;
    calling this (and {!count_records} on the result) in the runner
    charges that real cost, which is exactly what constraint-set
    reduction shrinks.

    One line per event: the branch id, then for a kept constraint its
    relation, each term as [coeff*var] and the constant, space-separated.
    One forward pass writes the lines into the calling domain's
    reusable buffer, which grows only when a log needs more room, so no
    per-integer string or per-render copy is allocated. [bytes] is that
    buffer: it stays valid until the domain's next [render]. *)

val count_records : Bytes.t -> int -> int
(** [count_records bytes len] counts the records in the first [len]
    bytes of a rendered log, one per newline, eight bytes at a time
    (the read-back half of the round trip). Raises [Invalid_argument]
    unless [0 <= len <= Bytes.length bytes]. *)

val serialize : t -> string
(** The bytes {!render} writes, copied out into a string. *)

val parse_count : string -> int
(** {!count_records} over a whole string. *)
