(* Globally-installable JSONL event sink. The no-sink fast path is a
   single ref read, so emitting layers may call [emit] (or guard event
   construction with [active ()]) unconditionally on hot paths.

   Emission is domain-safe: campaign worker domains emit concurrently
   (each simulated run's scheduler events), so the actual write is serialized
   under a mutex — one event is always one whole line, never interleaved
   bytes. The unlocked [is_active] fast path stays a single ref read. *)

type target = Null_sink | Buffer_sink of Buffer.t | Channel_sink of out_channel

type installed = { target : target; t0 : float }

let current : installed option ref = ref None
let is_active = ref false
let mu = Mutex.create ()

(* Park path: whatever bytes a channel sink has buffered must reach the
   OS even when the process dies without unwinding (uncaught exception,
   exit after a SIGINT park). Registered once, on the first install, so
   a crashed campaign still leaves a trace replayable up to the last
   complete line. *)
let flush_channel () =
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      match !current with
      | Some { target = Channel_sink oc; _ } -> ( try flush oc with Sys_error _ -> ())
      | Some _ | None -> ())

let at_exit_registered = ref false

(* Autoflush policy: off by default (tests and the microbench span gate
   see zero extra flushes); a live consumer turns it on so the trace
   tail reaches the filesystem while the campaign runs, not only at
   exit. Both thresholds are checked under the emit mutex, so the
   decision never races the write it accounts for. *)
let af_events : int option ref = ref None
let af_seconds : float option ref = ref None
let af_pending = ref 0
let af_last = ref 0.0

let set_autoflush ?events ?seconds () =
  Mutex.lock mu;
  af_events := events;
  af_seconds := seconds;
  af_pending := 0;
  af_last := Unix.gettimeofday ();
  Mutex.unlock mu

let install target =
  (match !current with
  | Some { target = Channel_sink oc; _ } -> flush oc
  | Some _ | None -> ());
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit flush_channel
  end;
  af_pending := 0;
  af_last := Unix.gettimeofday ();
  current := Some { target; t0 = Unix.gettimeofday () };
  is_active := (match target with Null_sink -> false | Buffer_sink _ | Channel_sink _ -> true)

let uninstall () =
  (match !current with
  | Some { target = Channel_sink oc; _ } -> flush oc
  | Some _ | None -> ());
  current := None;
  is_active := false

let flush_now = flush_channel

let active () = !is_active

let installed () = Option.is_some !current

let emit ev =
  if !is_active then
    match !current with
    | None -> ()
    | Some { target; t0 } -> (
      let line = Json.to_string (Event.to_json ~t:(Unix.gettimeofday () -. t0) ev) in
      Mutex.lock mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mu)
        (fun () ->
          match target with
          | Null_sink -> ()
          | Buffer_sink buf ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n'
          | Channel_sink oc ->
            output_string oc line;
            output_char oc '\n';
            if !af_events <> None || !af_seconds <> None then begin
              af_pending := !af_pending + 1;
              let due_count =
                match !af_events with Some n -> !af_pending >= n | None -> false
              in
              let due_time =
                match !af_seconds with
                | Some s -> Unix.gettimeofday () -. !af_last >= s
                | None -> false
              in
              if due_count || due_time then begin
                (try flush oc with Sys_error _ -> ());
                af_pending := 0;
                af_last := Unix.gettimeofday ()
              end
            end))

let with_sink target f =
  let saved = !current in
  install target;
  Fun.protect
    ~finally:(fun () ->
      uninstall ();
      match saved with
      | Some { target; _ } -> install target
      | None -> ())
    f
