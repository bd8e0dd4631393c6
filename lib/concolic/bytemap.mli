(** Growable byte maps indexed by small non-negative ids. *)

val ensure : Bytes.t -> int -> Bytes.t
(** [ensure map i] is [map] itself when [i] indexes it, otherwise a copy
    zero-extended (by doubling) until it does. *)
