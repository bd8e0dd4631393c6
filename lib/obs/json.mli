(** Minimal JSON document type with an emitter and a parser.

    Deliberately dependency-free: the telemetry layer must be loadable
    from every library in the tree (smt, minic, mpisim, core) without
    creating cycles or pulling in an external JSON package. Strings are
    byte sequences; anything outside printable ASCII is passed through
    verbatim on emission (control characters are [\uXXXX]-escaped), so a
    valid-UTF-8 input stays valid UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering, built from the writers below. Floats
    round-trip exactly (shortest-form [%g] checked against re-parsing);
    non-finite floats render as [null]. *)

(** {2 Writers}

    Append one JSON value to a buffer, exactly as {!to_string} renders
    it; {!Event} writes its trace lines with these, without a tree. *)

val add_int : Buffer.t -> int -> unit
(** Decimal, [min_int] and [max_int] included. *)

val add_string : Buffer.t -> string -> unit
(** Quoted and escaped: the double quote, the backslash, the short
    control escapes, and [\u00XX] for the other bytes below 0x20; every
    other byte is copied verbatim, a clean run at a time. *)

val add_float : Buffer.t -> float -> unit
(** Shortest form that parses back to the same float, always with a
    ['.'] or an exponent; [null] when not finite. *)

val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val parse : string -> (t, string) result
(** Parse one complete JSON document. Rejects trailing garbage. *)

val member : string -> t -> t option
(** Field of an [Obj], else [None]. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

(** {2 Decoder field readers}

    Field [name] of an object, or [Error "missing <type> field <name>"]. *)

val int_field : string -> t -> (int, string) result
val float_field : string -> t -> (float, string) result
val str_field : string -> t -> (string, string) result
val bool_field : string -> t -> (bool, string) result

val list_field : string -> (t -> 'a option) -> t -> ('a list, string) result
(** Each element converted; [Error "ill-typed element in <name>"] when
    any conversion gives [None]. *)
