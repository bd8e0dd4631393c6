(** One concolic execution of the focus process, as seen by the search.

    Bundles the constraint path with everything needed to derive the
    next inputs from it: the run's symbol table, its concrete model
    (the solver's "previous inputs"), capping domains and the extra
    constraint set (inherent MPI-semantics constraints plus any campaign
    caps) that must hold in every solve. *)

type closure_index
(** Per-execution index of the path's distinct constraints: each one's
    {!Smt.Constr.flat} form, flattened once, with its hash and first
    position, in {!Smt.Constr.compare} order, used by
    {!prepare_negation}. Holds only ints and the path's own
    constraints, so it marshals with the execution. *)

type t = {
  constraints : (int * Smt.Constr.t) array;
      (** [(branch_id, constraint)] in path order *)
  symtab : Symtab.t;
  model : Smt.Model.t;
  domains : Smt.Domain.t Smt.Varid.Map.t;
  extra : Smt.Constr.t list;
  nprocs : int;  (** launch context of this run *)
  focus : int;
  mapping : (int * int array) list;
      (** local-to-global rank table of this run (paper Table II) *)
  mutable exec_id : int;
      (** campaign-wide test-case id of this run, assigned at merge
          time (the iteration number); -1 until observed. Candidates
          derived from this run inherit it as their lineage parent. *)
  mutable exec_schedule : int list;
      (** schedule prescription this run executed under ([[]] in eager
          mode). Input-negation candidates derived from this run replay
          the same prescription, so the (input, schedule) pair stays a
          coherent test identity. *)
  mutable closure_index : closure_index option;
      (** built by the first {!prepare_negation} of this run and reused
          by every later one; construct with [None]. *)
}

val length : t -> int

val prefix : t -> int -> Smt.Constr.t list
(** Constraints strictly before position [i]. *)

val constr_at : t -> int -> Smt.Constr.t
val branch_at : t -> int -> int

val solve_negation :
  ?budget:int ->
  ?canonical:bool ->
  t ->
  int ->
  (Smt.Solver.incremental_result, [ `Unsat | `Unknown ]) result
(** [solve_negation t i] negates the constraint at position [i], keeps
    the path prefix before it plus [t.extra], and solves incrementally
    against the run's model (CREST's input-derivation step). By default
    the solver prefers this run's concrete values, so the model depends
    on [t.model]; with [~canonical:true] the verdict and [fresh]
    bindings are a pure function of {!negation_key} — required wherever
    the result may be cached and replayed into a different run. *)

type prepared
(** The canonical identity of one negation solve, computed once: the
    {!Smt.Cache.key} plus the dependency closure's variable set. The
    campaign prepares every candidate, cache on or off, and derives the
    probe, the miss solve and the hit replay from the same value. *)

val prepare_negation : t -> int -> prepared
(** Negate the constraint at position [i], take the dependency closure
    within the path prefix plus [t.extra], and canonicalize it with the
    run's domains. The key and variable set equal those of
    {!Smt.Cache.key} over {!Smt.Constr.dependency_closure} of the same
    problem, but are read off the run's {!closure_index} (built on the
    first call): a walk over the constraints present before [i] and one
    pass in the index's sorted order, with no sort per call. The key
    shares the index's flat forms; no constraint list is built until a
    miss is solved. *)

val prepared_key : prepared -> Smt.Cache.key

val prepared_vars : prepared -> Smt.Varid.Set.t
(** The variables the prepared closure mentions — what a solve of it
    resolves. *)

val solve_prepared :
  ?budget:int ->
  t ->
  prepared ->
  (Smt.Solver.incremental_result, [ `Unsat | `Unknown ]) result
(** Exactly [solve_negation ~canonical:true] for the prepared candidate,
    reusing its closure — no second dependency walk or sort. *)

val apply_prepared :
  t ->
  prepared ->
  Smt.Cache.outcome ->
  (Smt.Solver.incremental_result, [ `Unsat | `Unknown ]) result
(** {!apply_cached} for a prepared candidate, reusing its variable set. *)

val negation_key : t -> int -> Smt.Cache.key
(** [prepared_key (prepare_negation t i)] — the cache identity of the
    solve [solve_negation t i] performs: the dependency closure of the
    negated constraint within the path prefix and [t.extra],
    canonicalized with the run's domains. Two executions with
    structurally identical paths produce equal keys. *)

val apply_cached :
  t ->
  int ->
  Smt.Cache.outcome ->
  (Smt.Solver.incremental_result, [ `Unsat | `Unknown ]) result
(** Replay a cached verdict as if [solve_negation ~canonical:true t i]
    had produced it: the cached model's bindings for the closure
    variables are merged over this run's concrete model, and [changed]
    is recomputed against it. Sound only for verdicts obtained from a
    {e canonical} solve — those are pure functions of the key, so the
    replay equals what a live solve in this run would return even when
    the runs' concrete models differ. Never returns [Error `Unknown]
    (unknowns are not cached). *)
