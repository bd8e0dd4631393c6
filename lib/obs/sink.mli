(** Globally-installable JSONL sink for {!Event} emission.

    Exactly one sink is installed at a time (the engine is a single
    process; per-campaign scoping is the caller's job via
    [install]/[uninstall] or [with_sink]). With no sink — or the
    [Null_sink] — installed, [emit] is one ref read; emitting sites that
    build large events should guard with [active ()].

    [emit] may be called from any domain: writes are serialized so each
    event lands as one whole JSONL line. [install]/[uninstall] remain
    main-domain operations (per-campaign scoping, not concurrency). *)

type target =
  | Null_sink  (** counts as installed but drops everything *)
  | Buffer_sink of Buffer.t
  | Channel_sink of out_channel

val install : target -> unit
(** Replaces any previous sink (flushing it if it was a channel) and
    restarts the relative-timestamp clock. *)

val uninstall : unit -> unit
(** Flushes a channel sink. Does not close the channel — the opener
    owns it. *)

val set_autoflush : ?events:int -> ?seconds:float -> unit -> unit
(** Periodic flush policy for channel sinks, so a live consumer tailing
    the trace file sees events before the process exits. Flush after
    every [events] emissions and/or whenever [seconds] have elapsed
    since the last flush — whichever fires first. Omitting both (the
    default) disables autoflush: tests and the span-overhead microbench
    see no extra flushes. The existing [flush_now]/[at_exit]/SIGINT
    semantics are unchanged. *)

val flush_now : unit -> unit
(** Push a channel sink's buffered bytes to the OS without uninstalling
    it. No-op for other targets. Serialized against concurrent [emit]s,
    so it never tears a line; [install] registers it with [at_exit] so
    abnormal exits still leave a replayable trace. Safe to call from
    signal handlers that park the process. *)

val active : unit -> bool
(** [true] iff events are currently being written ([Null_sink] and
    no-sink both answer [false]). *)

val emit : Event.t -> unit
(** Append one JSONL line [{"ev":…,"t":…,…}] to the active sink;
    no-op otherwise. [t] is seconds since the sink was installed. The
    line is rendered ({!Event.write}) into the calling domain's reusable
    buffer and handed to the target under the lock. *)

val emit_all : Event.t list -> unit
(** {!emit} each event in order, all stamped by one clock read and
    handed to the target under one lock. *)

val with_sink : target -> (unit -> 'a) -> 'a
(** Scoped install; restores the previously-installed sink (if any)
    afterwards. *)
