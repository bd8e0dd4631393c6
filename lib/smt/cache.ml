(* CREST-style counterexample cache in front of the solver.

   A key canonicalizes one solve: the dependency closure of the negated
   constraint (sorted, deduplicated — path order and duplicates don't
   change the solution set) plus the interval domain of every variable
   it mentions. Because variable ids are numbered per execution by the
   run's own symbol table, two structurally identical runs — the common
   case after a restart re-explores a path — produce the *same* key,
   which is what makes repeats hit.

   A hit replays the previously found model (or the UNSAT verdict)
   without touching the solver; the replayed model satisfies the set by
   construction even when the current run's concrete inputs differ.
   For the replay to equal what a live solve would have returned, the
   cached verdict must itself be a pure function of the key — solve in
   canonical mode (Solver.solve_incremental ~canonical:true), which
   drops the prefer-previous-values heuristic whose input (the run's
   concrete model) is deliberately not part of the key.
   Unknown outcomes (budget exhaustion) are never cached: a later
   attempt under the same budget is equally cheap to re-refuse, and a
   raised budget should get its chance.

   Ownership: one table and one FIFO queue, and no lock at all. The
   pipelined campaign engine is the single writer and only mutates
   from the main domain at deterministic points — probes at candidate
   dispatch, verdict publication at the ordered merge — so every cache
   state transition happens at a work-list position that is identical
   at any [--jobs], which is what makes campaigns reproducible
   regardless of worker count. (The earlier design kept a module-level
   mutex "just in case"; profile data showed it as pure overhead —
   cache.lock.wait/hold spans — protecting a structure that was already
   single-domain by protocol. Concurrent multi-domain mutation was
   never supported and still is not.) With no mutex the record
   marshals directly into a checkpoint.

   At capacity an insert evicts the oldest entry, one queue pop: a
   global FIFO over the whole table. *)

type outcome = Sat of Model.t | Unsat

type key = {
  khash : int;
  kconstrs : Constr.t list;  (* sorted, deduplicated *)
  kdoms : (Varid.t * int * int) list;  (* domains of the vars, in var order *)
}

let key_sorted ~domains ~vars ~hashes kconstrs =
  let kdoms =
    List.map
      (fun v ->
        let d =
          match Varid.Map.find_opt v domains with Some d -> d | None -> Domain.full
        in
        (v, d.Domain.lo, d.Domain.hi))
      vars
  in
  let mix acc x = (acc * 0x01000193) lxor (x land max_int) in
  let khash = List.fold_left mix 0x811c9dc5 hashes in
  let khash =
    List.fold_left (fun acc (v, lo, hi) -> mix (mix (mix acc v) lo) hi) khash kdoms
    land max_int
  in
  { khash; kconstrs; kdoms }

let key ~domains cs =
  let kconstrs = List.sort_uniq Constr.compare cs in
  let vars =
    List.fold_left
      (fun acc c -> Varid.Set.union acc (Constr.vars c))
      Varid.Set.empty cs
  in
  key_sorted ~domains ~vars:(Varid.Set.elements vars)
    ~hashes:(List.map Constr.hash kconstrs) kconstrs

let key_constrs k = k.kconstrs

module Tbl = Hashtbl.Make (struct
  type t = key

  let hash k = k.khash

  let equal a b =
    a.khash = b.khash
    && (try List.for_all2 Constr.equal a.kconstrs b.kconstrs
        with Invalid_argument _ -> false)
    && a.kdoms = b.kdoms
end)

type t = {
  capacity : int;
  table : outcome Tbl.t;
  order : key Queue.t;  (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let m_evictions = Obs.Metrics.counter "cache.evictions"
let g_entries = Obs.Metrics.gauge "cache.entries"

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    table = Tbl.create 256;
    order = Queue.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let entries t = Tbl.length t.table

let find t k =
  let r = Obs.Timeline.span "cache.probe" (fun () -> Tbl.find_opt t.table k) in
  (match r with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
  r

let add t k outcome =
  if not (Tbl.mem t.table k) then begin
    (* the queue holds exactly the table's keys, oldest first *)
    if Tbl.length t.table >= t.capacity then begin
      Tbl.remove t.table (Queue.pop t.order);
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr m_evictions;
      if Obs.Sink.active () then
        Obs.Sink.emit (Obs.Event.Cache_evict { dropped = 1; entries = Tbl.length t.table })
    end;
    Tbl.replace t.table k outcome;
    Queue.push k t.order;
    Obs.Metrics.set g_entries (float_of_int (Tbl.length t.table))
  end

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; entries = entries t }

let hit_rate (t : t) =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
