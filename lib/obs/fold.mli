(** Fold a telemetry event stream into the campaign observatory: census,
    coverage curve, solver/cache accounting, test-case lineage graph,
    rank×rank communication matrix, and deadlock witnesses — everything
    [compi-cli replay]/[explain]/[report] print is computed here, from
    the trace alone.

    The fold is pure and deterministic: two traces with the same event
    content produce structurally equal values, and the renderers below
    produce byte-identical strings for equal values. *)

type line =
  [ `Blank  (** whitespace-only line *)
  | `Event of Event.t
  | `Unknown of string  (** well-formed JSON, unrecognized ["ev"] kind *)
  | `Malformed of string  (** bad JSON or missing/ill-typed fields *) ]

val classify_line : string -> line
(** Forward-compatible line triage: an object whose ["ev"] kind this
    build does not know is [`Unknown kind], not an error — replay skips
    and counts it. *)

type lineage_node = {
  ln_test : int;  (** test-case id (dense iteration number) *)
  ln_parent : int;  (** parent test id, -1 for roots *)
  ln_origin : string;
      (** ["seed"], ["negated"], ["restart"], or ["schedule"] *)
  ln_branch : int;
      (** branch the producing negation targeted (for ["schedule"]: the
          alternative source delivered), -1 *)
  ln_index : int;
      (** constraint-set index negated (for ["schedule"]: the flipped
          choice point), -1 *)
  ln_cached : bool;  (** producing verdict replayed from the cache *)
}

type branch_stat = {
  br_branch : int;
  br_first_test : int;
      (** first ["negated"] test targeting it that ran, -1 if none *)
  br_attempts : int;  (** negation attempts targeting this branch *)
  br_sat : int;
  br_unsat : int;
  br_unknown : int;
  br_cached : int;  (** attempts answered from the solver cache *)
}

type witness_edge = { we_rank : int; we_kind : string; we_peer : int; we_comm : int }

type span = {
  sp_domain : int;  (** pool worker index; 0 = main domain *)
  sp_kind : string;  (** e.g. ["exec"], ["queue.wait"], ["cache.probe"] *)
  sp_t0 : int;  (** begin tick, ns since the timeline was enabled *)
  sp_t1 : int;  (** end tick, ns *)
}

type t = {
  events : int;
  census : (string * int) list;  (** kind → count, sorted by kind *)
  unknown_kinds : (string * int) list;  (** skipped kinds, sorted *)
  malformed : int;
  target : string option;
  budget : int option;
  seed : int option;
  nprocs0 : int option;
  curve : (int * int) list;  (** (iteration, cumulative covered), ascending *)
  iterations : int;
  final_covered : int option;
  final_reachable : int option;
  bugs : int;
  wall_s : float option;
  exec_s : float;
  solve_s : float;
  solver_calls : int;  (** uncached [lineage_negation] attempts: live solves *)
  solver_sat : int;  (** outcomes of those solves *)
  solver_unsat : int;
  solver_unknown : int;
  cache_hits : int;  (** cached attempts, 0 when the cache was off *)
  cache_misses : int;  (** uncached attempts, 0 when the cache was off *)
  cache_evictions : int;
  lineage : lineage_node list;  (** ascending test id *)
  branches : branch_stat list;  (** ascending branch id *)
  matrix : ((int * int) * int) list;  (** (src, dst) → delivered messages *)
  rank_sends : (int * int) list;  (** rank → send posts *)
  rank_recvs : (int * int) list;  (** rank → completed receives *)
  rank_colls : (int * int) list;  (** rank → collectives joined *)
  rank_blocked : (int * int) list;  (** rank → blocking episodes *)
  collectives : ((int * string) * int) list;  (** (comm, signature) → count *)
  deadlocks : int;
  schedule_choices : int;  (** wildcard match decisions served *)
  schedule_forks : int;  (** choice points with more than one eligible source *)
  schedule_emitted : int;  (** alternative prescriptions the enumerator queued *)
  schedule_pruned : int;  (** alternatives dropped by POR or the depth budget *)
  witness : (witness_edge * int) list;  (** deduplicated wait-for edges *)
  faults : (int * int * string * string) list;  (** iter, rank, kind, detail *)
  restarts : (string * int) list;  (** reason → count *)
  spans : span list;  (** timeline spans, sorted by (t0, domain, t1, kind) *)
}

(** {2 Incremental fold}

    The fold is a state machine: [init] an empty state, [step] each
    event (or [step_line] each raw trace line) as it arrives, [finish]
    whenever a report is wanted. [finish] only reads the state, so a
    live consumer — [compi-cli watch] tailing a growing trace — can
    finish, render, step more lines, and finish again; each [finish] is
    byte-identical to a batch [fold] of the same prefix. *)

type state

val init : unit -> state

val step : state -> Event.t -> state
(** Absorb one event (mutates and returns the same state, so it slots
    into [List.fold_left]). *)

val step_line : state -> string -> state
(** [classify_line] one raw line and absorb it: events are [step]ped,
    unknown kinds and malformed lines are counted. *)

val finish : state -> t
(** Snapshot the aggregate for the events absorbed so far. Read-only:
    the state remains valid for further [step]s. *)

type live = {
  lv_reachable : int;
      (** the [campaign_end] reachable count once folded, else the latest
          test's *)
  lv_bugs : int;  (** [fault] events *)
  lv_solver_calls : int;  (** as [t.solver_calls] *)
  lv_cache_hits : int;
  lv_cache_misses : int;
  lv_schedule_emitted : int;  (** as [t.schedule_emitted] *)
  lv_curve_tail : (int * int) list;
      (** the newest 64 points of the coverage curve, in [test] event
          order *)
}

val live : state -> live
(** The scalars a live status snapshot quotes, plus the trailing curve
    points, read without a [finish] (which sorts every lineage node and
    curve point), so a campaign can call it at every merge. *)

val fold : Event.t list -> t
(** [finish (List.fold_left step (init ()) events)] — aggregate an
    already-parsed stream ([unknown_kinds] and [malformed] are
    empty/0). *)

val of_lines : string list -> t
(** [classify_line] each line, fold the events, and count the skips. *)

(** {2 Lineage queries} *)

val node : t -> int -> lineage_node option

val chain : t -> int -> lineage_node list
(** Causal chain of a test: the node itself first, then its parent, up
    to the root. Cycle-safe (stops on a repeated id). *)

val first_test_for_branch : t -> int -> int option
(** First ["negated"] test whose producing negation targeted the branch
    ([br_first_test] of its row). Schedule forks never count: their
    branch slot holds a source rank. *)

val lineage_errors : t -> string list
(** Structural invariant violations: duplicate ids, missing or
    non-ancestral parents (parent must be < test), roots that are not
    seeds/restarts, negated nodes without a branch. Empty = healthy. *)

val witness_cycle : t -> int list option
(** A wait-for cycle among the deadlock-witness edges, as the list of
    ranks in traversal order (the last waits on the first again);
    [None] when no directed cycle exists (e.g. a collective deadlock
    whose edges point at absent ranks). *)

(** {2 Renderers} *)

val ascii_curve : ?width:int -> ?height:int -> (int * int) list -> string

val to_text : ?stable:bool -> ?branch_label:(int -> string) -> t -> string
(** The full ASCII report. [stable] drops wall-clock-derived lines and
    span/checkpoint/ledger census rows so output is byte-identical across
    [--jobs] values; [branch_label] renders branch ids (default
    [string_of_int]). *)

val to_html : ?stable:bool -> ?branch_label:(int -> string) -> t -> string
(** Self-contained HTML report (inline CSS + SVG, no scripts, no
    timestamps): coverage curve, solver/cache breakdown, per-branch hit
    table, comm-matrix heatmap, lineage summary, deadlock witnesses. *)

(** {2 Profile fold}

    Everything below is a pure function of {!t}[.spans]: where the
    campaign's nanoseconds went, per domain and per round. *)

val span_wait_kind : string -> bool
(** Time a domain provably spent not working: ["idle"], ["queue.wait"]
    (the pipelined engine's main domain parked on the next in-order
    result) and ["join"]. *)

val span_busy_kind : string -> bool
(** Work kinds this build understands (["task"], ["exec"], ["solve"],
    ["round"], …). A span kind that is neither busy nor wait comes from
    a newer producer and is skipped-and-counted. *)

type domain_prof = {
  dp_domain : int;
  dp_spans : int;  (** spans recorded on this domain *)
  dp_busy_ns : int;
      (** exclusive busy: union(busy) minus union(wait); structural
          umbrella spans ([round], [campaign], [inflight]) are
          excluded *)
  dp_wait_ns : int;  (** union of wait intervals *)
  dp_util : float;  (** busy / global wall; always in [0, 1] *)
}

type round_prof = {
  rp_index : int;  (** 1-based round number *)
  rp_wall_ns : int;
  rp_crit_ns : int;  (** longest single-domain exclusive-busy in the round *)
  rp_crit_domain : int;  (** the domain carrying the critical path *)
  rp_stall_ns : int;  (** wall − crit: latency no schedule could hide *)
}

type profile = {
  pf_spans : int;  (** known-kind spans folded *)
  pf_unknown : (string * int) list;  (** skipped kinds, sorted *)
  pf_wall_ns : int;  (** global extent: max t1 − min t0 (≥ 1) *)
  pf_kinds : (string * (int * int)) list;
      (** kind → (count, total ns), descending by total *)
  pf_domains : domain_prof list;  (** ascending domain id *)
  pf_queue_wait_ns : int;
      (** main parked on the next in-order pipeline result *)
  pf_queue_waits : int;  (** number of such waits *)
  pf_idle_ns : int;  (** workers parked with nothing claimable *)
  pf_join_ns : int;
  pf_probe_ns : int;  (** solver-cache probes *)
  pf_probes : int;
  pf_rounds : round_prof list;
  pf_attributed_pct : float;
      (** % of wall covered by named spans on the main domain — the
          instrumentation-completeness gauge *)
}

val profile : t -> profile
(** Pure and deterministic; an empty span list yields a zeroed profile
    (with [pf_unknown] still populated). *)

val profile_text : ?stable:bool -> t -> string
(** Text breakdown: per-kind totals, per-worker utilization bars,
    pipeline queue wait, worker idle, pool join, per-round critical
    path. Under [stable], absolute durations collapse to power-of-two
    buckets and percentages to whole points, so reruns over the same
    trace are byte-identical and shapes are comparable across hosts. *)

val profile_html : ?stable:bool -> t -> string
(** Self-contained HTML profile: utilization bars, stall table, SVG
    Gantt timeline (one row per domain, colored by kind), per-kind
    totals. No scripts, no timestamps. *)
