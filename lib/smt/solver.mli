(** Finite-domain solver for linear integer constraints.

    Stands in for the Yices SMT solver used by CREST/COMPI. Two entry
    points matter:

    - {!solve} decides a full constraint set (interval propagation to a
      fixpoint, then complete search by endpoint enumeration and domain
      splitting, under a node budget);
    - {!solve_incremental} reproduces Yices' incremental-solving property
      that COMPI exploits (paper section III-C): only the dependency
      closure of the negated constraint is re-solved, every other
      variable keeps its previous (stale) value, and the caller learns
      exactly which variables were re-solved and which changed. *)

type outcome =
  | Sat of Model.t
  | Unsat
  | Unknown  (** node budget exhausted before a decision *)

val default_budget : int

val solve :
  ?budget:int ->
  ?domains:Domain.t Varid.Map.t ->
  ?prefer:Model.t ->
  Constr.t list ->
  outcome
(** [solve cs] finds a model of [cs] over the variables appearing in
    [cs]. [domains] supplies per-variable intervals (default
    {!Domain.full}); [prefer] biases the search to keep previous values
    when possible. The returned model binds exactly the variables of
    [cs]. *)

type incremental_result = {
  model : Model.t;  (** merged model: re-solved variables over [prev] *)
  fresh : Model.t;
      (** the re-solved bindings alone, before merging with [prev] —
          what the solver cache stores and replays (CREST-style
          counterexample caching) *)
  resolved : Varid.Set.t;  (** variables the solver actually re-solved *)
  changed : Varid.Set.t;
      (** re-solved variables whose value differs from [prev] — COMPI's
          "most up-to-date" values *)
}

val solve_incremental :
  ?budget:int ->
  ?domains:Domain.t Varid.Map.t ->
  ?canonical:bool ->
  prev:Model.t ->
  target:Constr.t ->
  Constr.t list ->
  (incremental_result, [ `Unsat | `Unknown ]) Stdlib.result
(** [solve_incremental ~prev ~target cs] solves the dependency closure of
    [target] within [cs] (which must already contain [target], i.e. the
    negated constraint plus its path prefix and the inherent MPI
    constraints). Variables outside the closure keep their binding in
    [prev].

    By default the search prefers the bindings in [prev] (CREST's
    keep-previous-values heuristic), so the model found depends on
    [prev]. With [~canonical:true] the closure is canonicalized
    (sorted, deduplicated) and solved with {e no} preference model: the
    verdict and the [fresh] bindings are then a pure function of the
    closure set and [domains] — the invariant {!Cache} replay relies
    on. [prev] still supplies the values of out-of-closure variables in
    [model] and the baseline for [changed]. *)

val solve_prepared :
  ?budget:int ->
  ?domains:Domain.t Varid.Map.t ->
  prev:Model.t ->
  closure:Constr.t list ->
  vars:Varid.Set.t ->
  unit ->
  (incremental_result, [ `Unsat | `Unknown ]) Stdlib.result
(** Exactly [solve_incremental ~canonical:true], for a caller that has
    already computed the canonical closure and its variable set — e.g.
    while building the {!Cache} key for the same solve. [closure] must
    be the sorted, deduplicated dependency closure of the negated
    constraint (the set under its {!Cache} key) and [vars] the
    variables that closure mentions; given those, the verdict is
    identical to the canonical entry point's, with no second closure
    traversal or sort. The cache-on campaign path uses this so a miss
    costs one canonicalization, not two. *)

val holds_all : Model.t -> Constr.t list -> bool
(** [holds_all m cs] checks every constraint under [m] (unbound variables
    read as 0). Used by tests as the soundness oracle. *)
