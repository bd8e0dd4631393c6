(** Process-wide metrics registry: named counters, gauges, and log-scale
    histograms, exported as one JSON snapshot (with the {!Timeline}
    per-kind totals attached as phases).

    The registry holds only what the campaign's merged events do not
    carry: [solver.nodes], [solver.unknown] (every solve, also those
    dropped at the budget edge), [cache.entries], [cache.evictions],
    [runner.focus_log_bytes], [compiled.steps_per_run], [sched.messages],
    [sched.collectives] and the microbench's [bench.*] gauges. Counts
    the events carry are read from the campaign's {!Fold} and passed to
    {!snapshot_json} as [counters].

    Instrument creation is idempotent and cheap; observation is a few
    mutable-field updates under a process-wide mutex, safe from any
    domain (campaign workers observe concurrently). [reset] zeroes
    values in place, so instrument handles bound at module-init time
    survive it. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create. Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Values [<= 0] (and [0] itself) land in a dedicated underflow bucket;
    positive values go to power-of-two buckets spanning [2^-30] to
    [2^63], so nanosecond latencies and [max_int]-sized step counts both
    bucket without configuration. *)

val observe_int : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_index : float -> int
(** Exposed for tests: which bucket a value lands in. *)

val bucket_bounds : int -> float * float
(** [(lo, hi)] of a bucket; bucket 0 is [(-inf, 0]]. *)

val reset : unit -> unit
(** Zero every registered metric (and nothing else: registration and
    cached handles survive). Does not touch the {!Timeline} totals. *)

val snapshot_json : ?counters:(string * int) list -> unit -> Json.t
(** [{"metrics": {name: value|histogram, …}, "phases": {kind:
    {"total_s":…,"count":…}, …}}] with names sorted; histograms export
    count/sum/mean/min/max plus the non-empty buckets. [counters]
    (default none) are written as integers beside the registered
    instruments, whose names they must not repeat. The phases are
    {!Timeline.totals}. *)
