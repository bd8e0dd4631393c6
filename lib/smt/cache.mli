(** Counterexample cache in front of the solver (CREST-style).

    Maps the canonical form of one incremental solve — the sorted,
    deduplicated dependency closure of the negated constraint plus the
    interval domains of its variables — to the solver's verdict: the
    model found, or UNSAT. A hit replays the verdict without re-solving;
    Unknown (budget-exhausted) outcomes are never cached. Per-run
    variable numbering (each execution's symbol table counts from 0)
    makes structurally identical runs produce identical keys, so paths
    re-explored after a restart hit.

    Probes and insertions feed the [cache.hits]/[cache.misses]/
    [cache.evictions] counters and the [cache.entries]/[cache.shards]/
    [cache.shard_entries.max] gauges; an eviction emits a [cache_evict]
    event when a sink is active. The trace records each probe's outcome
    in the campaign's [lineage_negation] event (its [cached] flag), not
    here.

    The table is split into hash-indexed shards and is lock-free:
    [find]/[add] take no mutex at all. The pipelined campaign engine is
    the single writer — it probes at candidate dispatch and publishes
    verdicts at the ordered merge, both on the main domain — so every
    cache state transition happens at a work-list position that is
    identical at any [--jobs]. That protocol, not a lock, is what keeps
    campaign results independent of the worker count; concurrent
    multi-domain mutation is not supported. Each probe records a
    [cache.probe] span when the {!Obs.Timeline} is enabled. The shard
    count is derived from capacity (one shard per 256 slots, clamped to
    [1, 16], power of two), so small caches behave exactly like the old
    single-table design, including its global FIFO eviction order. *)

type outcome = Sat of Model.t | Unsat

type key

val key : domains:Domain.t Varid.Map.t -> Constr.t list -> key
(** Canonicalize a constraint set: sort and deduplicate, then attach the
    domain interval of every variable mentioned. Constraint order and
    duplicates do not affect the key. *)

val key_sorted :
  domains:Domain.t Varid.Map.t -> vars:Varid.t list -> hashes:int list -> Constr.t list -> key
(** [key_sorted ~domains ~vars ~hashes cs] is [key ~domains cs] for a
    caller that already holds the canonical form: [cs] sorted by
    {!Constr.compare} and deduplicated, [hashes] the {!Constr.hash} of
    each element of [cs] in the same order, and [vars] the variables
    [cs] mentions in ascending order. Nothing is sorted or re-hashed. *)

val key_constrs : key -> Constr.t list
(** The canonical (sorted, deduplicated) constraint set under the key —
    exactly the closure a canonical solve of this key's problem runs
    on, so a miss can feed it straight to
    [Solver.solve_prepared] without recomputing or re-sorting it. *)

type t

val default_capacity : int
(** 4096 entries. *)

val create : ?capacity:int -> unit -> t

val find : t -> key -> outcome option
(** Counts a hit or a miss in {!stats} and the [cache.*] metrics. *)

val add : t -> key -> outcome -> unit
(** First verdict wins: re-adding an existing key is a no-op. At shard
    capacity, the oldest entries of that shard are evicted FIFO. *)

val entries : t -> int

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before the first probe. *)
