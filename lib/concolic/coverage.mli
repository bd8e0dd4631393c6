(** Branch coverage accounting — COMPI's "all recorders".

    One store accumulates over a whole testing campaign: branch ids
    covered by {e any} process (focus or not) and the set of functions
    ever entered. The latter drives the paper's reachable-branch
    denominator (sum of branches of encountered functions, CREST FAQ
    convention). *)

type t

val create : unit -> t

val add_branch : t -> int -> unit
(** Constant time: branch ids are small non-negative integers (two per
    conditional site) indexing a byte map that grows on demand. *)

val add_func : t -> string -> unit
val mem_branch : t -> int -> bool
val covered_branches : t -> int
val branch_list : t -> int list

val encountered : t -> string -> bool
val encountered_functions : t -> string list

val function_count : t -> int
(** The number of functions ever entered, in constant time. The set
    only grows, so an unchanged count means an unchanged set. *)

val absorb : into:t -> t -> unit
(** Union a per-run recorder into the campaign store. *)

val copy : t -> t

val report : t -> string
(** Canonical two-line rendering (sorted branch ids, then sorted
    function names). Equal coverage — however accumulated — yields
    byte-identical text; the campaign determinism check diffs this. *)
