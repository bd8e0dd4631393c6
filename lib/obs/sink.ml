(* Globally-installable JSONL event sink. The no-sink fast path is a
   single ref read, so emitting layers may call [emit] (or guard event
   construction with [active ()]) unconditionally on hot paths.

   Emission is domain-safe: campaign worker domains emit concurrently
   (each simulated run's scheduler events). Each domain renders its
   lines into its own reusable buffer, and only the hand-over to the
   target is serialized under a mutex — one event is always one whole
   line, never interleaved bytes. The unlocked [is_active] fast path
   stays a single ref read. *)

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

(* The calling domain's line buffer, reused from emit to emit. *)
let lines = Domain.DLS.new_key (fun () -> Buffer.create 4096)

(* Under [mu]. [now] is the clock read that stamped the lines, so the
   autoflush timer costs no second read. *)
let deliver target now count b =
  match target with
  | Null_sink -> ()
  | Buffer_sink buf -> Buffer.add_buffer buf b
  | Channel_sink oc ->
    Buffer.output_buffer oc b;
    if !af_events <> None || !af_seconds <> None then begin
      af_pending := !af_pending + count;
      let due_count = match !af_events with Some n -> !af_pending >= n | None -> false in
      let due_time = match !af_seconds with Some s -> now -. !af_last >= s | None -> false in
      if due_count || due_time then begin
        (try flush oc with Sys_error _ -> ());
        af_pending := 0;
        af_last := now
      end
    end

let emit_all evs =
  if !is_active then
    match (!current, evs) with
    | None, _ | _, [] -> ()
    | Some { target; t0 }, evs ->
      let now = Unix.gettimeofday () in
      let t = Some (now -. t0) and b = Domain.DLS.get lines in
      Buffer.clear b;
      List.iter
        (fun ev ->
          Event.write ?t b ev;
          Buffer.add_char b '\n')
        evs;
      Mutex.protect mu (fun () -> deliver target now (List.length evs) b)

let emit ev = if !is_active then emit_all [ ev ]

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
