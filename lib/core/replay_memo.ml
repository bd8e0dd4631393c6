open Concolic

(* A campaign derives some tests more than once: different parents'
   negations land on the same inputs, launch context and schedule, a few
   dozen tests apart. A run is a pure function of those, given the
   campaign's fixed settings, so the memo keeps the recent merged
   results by them and a repeat copies its result instead of simulating
   again.

   The memo must not keep alive what the search has let go: an
   execution holds the path constraints, the bulk of a result, so an
   entry holds it weakly and the rest (coverage, outcomes, mapping,
   tail, choices, events and counts, about 1–2 KB) strongly. Only the
   main domain writes the memo, at merge; a round's tasks read the
   immutable map taken at dispatch, so no lock guards it. Entries leave
   first in, first out. *)

type key = (string * int) list * int * int * int list option

let key (c : Runner.config) : key =
  (c.Runner.inputs, c.Runner.nprocs, c.Runner.focus, c.Runner.schedule)

module Keys = Map.Make (struct
  type t = key

  let compare = compare
end)

type entry = {
  execution : Execution.t Weak.t;  (* one slot *)
  result : Runner.result;  (* its [execution] is [no_execution], its [events] [] *)
  events : string;
      (* the run's events, marshalled: an np-8 hpl run's take 2.4 KB as
         lists and a tenth of that as bytes; "" when there are none *)
}

type view = entry Keys.t

(* [entries] holds exactly the keys of [order], oldest first *)
type t = { mutable entries : view; order : key Queue.t }

(* In 200-test campaigns of hpl, npb-cg, susy-hmc and imb-mpi1, 90% of
   repeats come within 58 tests of the first run; a repeat adds no key,
   so 64 keys span more tests than that. *)
let capacity = 64

let create () = { entries = Keys.empty; order = Queue.create () }
let view t = t.entries

(* Stands in for the execution in an entry's strongly held result. *)
let no_execution =
  {
    Execution.constraints = [||];
    symtab = Symtab.create ();
    model = Smt.Model.empty;
    domains = Smt.Varid.Map.empty;
    extra = [];
    nprocs = 0;
    focus = 0;
    mapping = [];
    exec_id = -1;
    exec_schedule = [];
    closure_index = None;
  }

(* A key already held keeps its place in the order; its entry is
   replaced only once its execution is gone. *)
let remember t key (r : Runner.result) =
  let stale =
    match Keys.find_opt key t.entries with
    | Some e -> not (Weak.check e.execution 0)
    | None ->
      Queue.push key t.order;
      if Queue.length t.order > capacity then
        t.entries <- Keys.remove (Queue.pop t.order) t.entries;
      true
  in
  if stale then begin
    let execution = Weak.create 1 in
    Weak.set execution 0 (Some r.Runner.execution);
    let events = if r.Runner.events = [] then "" else Marshal.to_string r.Runner.events [] in
    t.entries <-
      Keys.add key
        { execution; result = { r with execution = no_execution; events = [] }; events }
        t.entries
  end

(* A fresh copy of the execution, not yet given a test id, over the same
   constraints, tables and closure index. The run's telemetry events go
   to the sink again, so the trace reads as if the run had repeated; the
   wall time is the copy's own. *)
let replay view key =
  match Keys.find_opt key view with
  | None -> None
  | Some e -> (
    match Weak.get e.execution 0 with
    | None -> None
    | Some ex ->
      Some
        (Obs.Timeline.span "exec" (fun () ->
             let t0 = Unix.gettimeofday () in
             let execution = { ex with Execution.exec_id = -1 } in
             let events : Obs.Event.t list =
               if e.events = "" then [] else Marshal.from_string e.events 0
             in
             Obs.Sink.emit_all events;
             { e.result with Runner.execution; events; wall_time = Unix.gettimeofday () -. t0 })))
