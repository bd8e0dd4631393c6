(** Communication traces: a stream of scheduler events and a text
    timeline renderer.

    Pass {!collector} as [on_event] to {!Scheduler.run} to capture what
    the simulated communication actually did, message by message —
    useful when debugging a target, and the backbone of
    `compi-cli exec --trace`. The telemetry trace records only a
    per-run [Obs.Event.Mpi_summary] of these events (plus deadlocks and
    schedule choices); re-executing a test under this collector recovers
    the full history. *)

type event =
  | Send of { from_rank : int; to_local : int; comm : int; tag : int }
      (** a send was posted ([from_rank] global, [to_local] in [comm]) *)
  | Recv_matched of { rank : int; src_local : int; tag : int; comm : int }
      (** a blocking receive completed on global [rank] *)
  | Matched of { src : int; dst : int; comm : int; tag : int }
      (** a point-to-point message was delivered; both ranks global —
          the communication-matrix observable *)
  | Collective of { comm : int; signature : string; ranks : int list }
      (** a collective completed with the listed global participants *)
  | Blocked of { rank : int; comm : int; kind : string; peer : int }
      (** global [rank] blocked in ["recv"], ["wait"], or a collective;
          [peer] is the global rank it waits on, -1 when unknown *)
  | Finished of { rank : int; ok : bool }
  | Deadlock of { ranks : int list }
  | Witness of { rank : int; comm : int; kind : string; peer : int }
      (** one wait-for edge recorded when the scheduler proves a
          deadlock — the set of witness edges names the cycle *)
  | Schedule_choice of {
      rank : int;
      comm : int;
      tag : int;
      chosen : int;
      alts : int list;
      point : int;
    }
      (** schedule mode only: the [point]-th wildcard choice point of
          the run delivered the message from local source [chosen] (tag
          [tag]) to global [rank]; [alts] is the sorted set of eligible
          sources the scheduler could have picked instead *)

val discard : event -> unit
(** The no-op observer, and {!Scheduler.run}'s default: a run given it
    builds no trace event at all. Pass it rather than an equivalent
    [fun _ -> ()] to keep that saving. *)

val pp_event : Format.formatter -> event -> unit

type t

val create : unit -> t
val collector : t -> event -> unit
val events : t -> event list
(** In emission order. *)

val length : t -> int

val summary : t -> (string * int) list
(** Event counts by kind, alphabetical. *)

val timeline : ?limit:int -> t -> string
(** One line per event, capped at [limit] (default 200). When the cap
    truncates, the last line states how many events were elided and the
    full count. *)
