(** Per-domain span buffers: the one timer, behind both [profile] and
    the [--metrics] phases.

    Every domain appends (kind, begin, end) spans to its own fixed-size
    chunk list — no lock, no reallocation on the hot path — and the main
    domain periodically {!drain}s all buffers into the global {!Sink}.
    Ticks are integer nanoseconds since {!enable}.

    When the timeline is off (the default), {!span} is a single ref
    read before a tail call of its argument — zero allocation — and
    {!record} is a no-op, so instrumentation can stay in place
    unconditionally on hot paths. *)

val enable : unit -> unit
(** Start the clock (tick 0 = now), discard undrained spans and zero
    the {!totals}. Call on the main domain before worker domains spawn,
    so every domain shares the epoch. *)

val disable : unit -> unit

val claim : unit -> bool
(** {!enable} the timeline when a {!Sink} is writing and nobody has
    enabled it yet; [true] iff this call enabled it, in which case the
    caller {!disable}s it when done. *)

val on : unit -> bool
(** One ref read; guard hand-rolled instrumentation with this. *)

val tick : unit -> int
(** Nanoseconds since {!enable}. Meaningless (but harmless) when off —
    callers on hot paths should guard with {!on} to skip the clock
    read. *)

val span : string -> (unit -> 'a) -> 'a
(** [span kind f] runs [f] and, when enabled, records its extent as one
    [kind] span on the calling domain. Exception-safe: a raising [f]
    still records. Disabled, this is exactly [f ()]. *)

val record : kind:string -> t0:int -> t1:int -> unit
(** Record a span from explicit {!tick} readings — for intervals a
    closure cannot wrap, like a mutex acquisition. No-op when off. *)

val set_domain : int -> unit
(** Set the calling domain's reporting id (the pool worker index; the
    main domain defaults to 0). *)

type span = { kind : string; t0 : int; t1 : int }

val compact : span list -> span list * (string * int * int) list
(** Split one domain's batch into the spans kept as intervals (in batch
    order) and [(kind, count, ns)] rows, by kind, of the spans folded:
    those of a busy, non-structural kind lying inside another such span
    of the batch (of equal intervals the one recorded last stays). {!Fold.profile}
    reads the same from the kept spans plus the rows as from the batch. *)

val drain : unit -> unit
(** {!compact} every buffer's undrained spans; emit the kept ones as
    {!Event.Span} lines and the rows as one {!Event.Span_summary}, all
    in one {!Sink.emit_all} batch, and add both to the {!totals}.
    Main-domain only; safe while workers are parked at a pool barrier
    (recording and draining never touch the same entry). *)

val totals : unit -> (string * int * int) list
(** [(kind, count, ns)] of what drains emitted since {!enable}: the
    per-kind table [profile] folds from the same trace. *)

val pending : unit -> int
(** Spans recorded but not yet drained, across all domains. *)
