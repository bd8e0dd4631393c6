(** Linear integer expressions [sum_i c_i * x_i + k].

    This is the only expression form the symbolic shadow ever produces:
    CREST-style concolic execution concretizes every non-linear operation,
    so the solver (like Yices in the original COMPI) only needs linear
    integer arithmetic. *)

type t

val const : int -> t
val var : Varid.t -> t

val of_terms : (int * Varid.t) list -> int -> t
(** [of_terms [(c0, x0); ...] k] builds [c0*x0 + ... + k]. Zero
    coefficients are dropped; repeated variables are summed. *)

val add : t -> t -> t
(** The sum, with the terms of both sides added per variable and zero
    coefficients dropped. *)

val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t

val of_bindings : (Varid.t * int) list -> int -> t
(** [of_bindings [(x0, c0); ...] k] is [c0*x0 + ... + k] with every
    binding kept as given, a zero coefficient included: the inverse of
    {!fold_terms}, for distinct variables. *)

val plus_const : t -> int -> t
(** [plus_const a k] is [add a (const k)] — {!equal} to it with the same
    {!hash} — without rebuilding [a]'s terms when [a] holds no zero
    coefficient (only {!scale} can leave one, when a product wraps to 0). *)

val const_minus : int -> t -> t
(** [const_minus k a] is [sub (const k) a], with the same shortcut as
    {!plus_const}. *)

val is_const : t -> int option
(** [is_const e] is [Some k] iff [e] mentions no variable. *)

val coeff : Varid.t -> t -> int
(** Coefficient of a variable (0 if absent). *)

val constant : t -> int
(** The constant term [k]. *)

val terms : t -> (int * Varid.t) list
(** Terms in increasing variable order. Every coefficient is non-zero
    except one that {!scale} wrapped to 0, which stays until an
    {!add} or {!sub} drops it. *)

val fold_terms : ('a -> int -> Varid.t -> 'a) -> t -> 'a -> 'a
(** [fold_terms f e init] folds [f acc coeff var] over {!terms} in
    their order, without building the list. *)

val vars : t -> Varid.Set.t
val mem : Varid.t -> t -> bool

val eval : (Varid.t -> int) -> t -> int
(** [eval lookup e] evaluates [e] under the assignment [lookup]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Structural hash, consistent with [equal]. *)

val pp : Format.formatter -> t -> unit
