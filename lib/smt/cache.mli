(** Counterexample cache in front of the solver (CREST-style).

    Maps the canonical form of one incremental solve — the sorted,
    deduplicated dependency closure of the negated constraint plus the
    interval domains of its variables, as flat ints — to the solver's
    verdict: the model found, or UNSAT. A hit replays the verdict
    without re-solving; Unknown (budget-exhausted) outcomes are never
    cached. Per-run variable numbering (each execution's symbol table
    counts from 0) makes structurally identical runs produce identical
    keys, so paths re-explored after a restart hit.

    Insertions feed the [cache.evictions] counter and the
    [cache.entries] gauge; an eviction emits a [cache_evict] event when
    a sink is active. The trace records each probe's outcome in the
    campaign's [lineage_negation] event (its [cached] flag), not here,
    and campaign hit and miss counts are folded from those events.

    The cache is one table and one FIFO queue of its keys, and takes
    no mutex at all. The pipelined campaign engine is the single
    writer — it probes at candidate dispatch and publishes verdicts at
    the ordered merge, both on the main domain — so every cache state
    transition happens at a work-list position that is identical at
    any [--jobs]. That protocol, not a lock, is what keeps
    campaign results independent of the worker count; concurrent
    multi-domain mutation is not supported. Each probe records a
    [cache.probe] span when the {!Obs.Timeline} is enabled. *)

type outcome = Sat of Model.t | Unsat

type key
(** Flat ints: every closure constraint's {!Constr.flat} form, sorted
    and deduplicated, plus the domain of every variable they mention.
    Hashing and equality read only those ints. *)

val key : domains:Domain.t Varid.Map.t -> Constr.t list -> key
(** Canonicalize a constraint set: sort and deduplicate, then attach the
    domain interval of every variable mentioned. Constraint order and
    duplicates do not affect the key. The reference construction;
    {!key_of_forms} builds the same key from forms already flattened. *)

val form_hash : int array -> int -> rel:int -> int
(** [form_hash forms o ~rel] hashes the form whose length is at offset
    [o] of [forms], read under relation rank [rel]. *)

val key_of_forms :
  forms:int array ->
  at:int array ->
  hashes:int array ->
  neg:int ->
  rel:int ->
  doms:int array ->
  key
(** [key_of_forms ~forms ~at ~hashes ~neg ~rel ~doms] is
    [key ~domains cs] for a caller that already holds the canonical
    form as ints, without copying them. [forms] holds {!Constr.flat}
    forms, each preceded by its length; [at] gives, for each constraint
    of [cs] in {!Constr.compare} order without duplicates, the offset
    of its form's length in [forms]; the form at [at.(neg)] (if
    [neg >= 0]) stands for the constraint under relation rank [rel]
    instead of its own; [hashes.(k)] is {!form_hash} of the [k]th form
    under that relation; [doms] is [v; lo; hi] for every variable [cs]
    mentions, in increasing order, with [lo] and [hi] its domain in
    [domains] ({!Domain.full} when absent). The key keeps the arrays:
    the caller must not change them. *)

val key_constrs : key -> Constr.t list
(** The canonical (sorted, deduplicated) constraint set under the key,
    decoded from its flat forms: each is {!Constr.equal} to the
    constraint it came from. *)

type t

val default_capacity : int
(** 4096 entries. *)

val create : ?capacity:int -> unit -> t

val find : t -> key -> outcome option
(** Counts a hit or a miss in {!stats}. *)

val add : t -> key -> outcome -> unit
(** First verdict wins: re-adding an existing key is a no-op. At
    capacity, the oldest entry of the whole cache is evicted (FIFO). *)

val entries : t -> int

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before the first probe. *)
