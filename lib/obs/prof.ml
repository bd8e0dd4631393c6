(* Nestable wall-clock phase timers. [time "solve" f] inside
   [time "iteration" g] attributes the elapsed seconds to both phases'
   totals; self-time subtracts the children, so the totals table reads
   like a flat profile even with nesting. State is process-wide and the
   frame stack is inherently per-thread (fibers run synchronously inside
   the scheduler), so a plain stack suffices — on the main domain.
   Campaign worker domains run the same instrumented code paths
   (runner, scheduler); there [time] degrades to a plain call so the
   shared stack is never touched concurrently. Phase totals thus account
   main-domain work only; cross-domain work is visible through the
   per-domain "task" spans and the campaign's own wall-clock accounting.

   Every timed phase also records a {!Timeline} span under the phase
   name — on any domain, since span buffers are per-domain — so when
   the timeline is enabled the existing phase vocabulary ("exec",
   "solve", "schedule", …) shows up on the profile Gantt without
   touching the instrumented call sites. *)

type entry = { mutable total : float; mutable self : float; mutable count : int }
type frame = { fname : string; start : float; mutable child : float }

let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let stack : frame list ref = ref []
let now = Unix.gettimeofday

let entry name =
  match Hashtbl.find_opt table name with
  | Some e -> e
  | None ->
    let e = { total = 0.0; self = 0.0; count = 0 } in
    Hashtbl.replace table name e;
    e

let time name f =
  if not (Domain.is_main_domain ()) then Timeline.span name f
  else begin
  let fr = { fname = name; start = now (); child = 0.0 } in
  stack := fr :: !stack;
  Fun.protect
    ~finally:(fun () ->
      let elapsed = now () -. fr.start in
      (match !stack with
      | top :: rest when top == fr -> stack := rest
      | _ -> stack := List.filter (fun g -> g != fr) !stack);
      (match !stack with
      | parent :: _ -> parent.child <- parent.child +. elapsed
      | [] -> ());
      let e = entry name in
      e.total <- e.total +. elapsed;
      e.self <- e.self +. Float.max 0.0 (elapsed -. fr.child);
      e.count <- e.count + 1)
    (fun () -> Timeline.span name f)
  end

let totals () =
  Hashtbl.fold (fun name e acc -> (name, e.total, e.self, e.count) :: acc) table []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let total name =
  match Hashtbl.find_opt table name with Some e -> e.total | None -> 0.0

let reset () =
  Hashtbl.reset table;
  stack := []

let snapshot_json () =
  Json.Obj
    (List.map
       (fun (name, total, self, count) ->
         ( name,
           Json.Obj
             [
               ("total_s", Json.Float total);
               ("self_s", Json.Float self);
               ("count", Json.Int count);
             ] ))
       (totals ()))
