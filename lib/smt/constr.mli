(** Constraints over linear integer expressions: [e rel 0].

    Path constraints recorded by the concolic engine and the inherent
    MPI-semantics constraints of COMPI (section III-B of the paper) are
    all of this form. *)

type rel = Eq | Ne | Lt | Le | Gt | Ge

type t = { exp : Linexp.t; rel : rel }

val make : Linexp.t -> rel -> t

val cmp : Linexp.t -> rel -> Linexp.t -> t
(** [cmp a rel b] is the constraint [a rel b], stored as [a - b rel 0]. *)

val negate : t -> t
(** Logical negation: [not (e < 0)] is [e >= 0], etc. *)

val holds : (Varid.t -> int) -> t -> bool
(** [holds lookup c] evaluates [c] under a concrete assignment. *)

val vars : t -> Varid.Set.t

val trivial : t -> bool option
(** [trivial c] is [Some b] when [c] mentions no variable and evaluates
    to [b]; [None] otherwise. *)

val normalize : t -> [ `Constr of t | `True | `False ]
(** Divide through by the gcd of the coefficients, tightening integer
    inequalities ([2x <= 5] becomes [x <= 2]) and deciding divisibility
    for (dis)equalities ([2x = 5] is [`False], [2x <> 5] is [`True]).
    Solution sets over the integers are preserved exactly. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val rel_rank : rel -> int
(** [Eq], [Ne], [Lt], [Le], [Gt], [Ge] rank 0 to 5, the order
    {!compare} puts relations in. *)

val flat : t -> int array
(** The flat integer form [[rel_rank; k; v1; c1; ...; vn; cn]]: the
    relation's rank, the constant, then every binding of the
    expression in increasing variable order, a zero coefficient that
    {!Linexp.scale} left included. {!compare_flat} on two flat forms
    has the sign of {!compare} on the constraints, so equal forms mean
    {!equal} constraints. *)

val of_flat : int array -> t
(** The constraint a {!flat} form encodes: [equal] to the original.
    Raises [Invalid_argument] on a relation rank outside 0 to 5. *)

val compare_flat : int array -> int array -> int
(** Lexicographic order on ints, a proper prefix first. *)

val pp : Format.formatter -> t -> unit
val rel_to_string : rel -> string

val dependency_closure : seed:Varid.Set.t -> t list -> t list * Varid.Set.t
(** [dependency_closure ~seed cs] returns the subset of [cs] transitively
    sharing a variable with [seed], together with all variables those
    constraints mention. This is the unit of work for incremental solving:
    only the closure of the negated constraint is re-solved, all other
    variables keep their previous (stale) values — the property COMPI's
    conflict resolution relies on (section III-C). *)
