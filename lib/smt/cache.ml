(* CREST-style counterexample cache in front of the solver.

   A key canonicalizes one solve: the dependency closure of the negated
   constraint (sorted, deduplicated — path order and duplicates don't
   change the solution set) plus the interval domain of every variable
   it mentions. Because variable ids are numbered per execution by the
   run's own symbol table, two structurally identical runs — the common
   case after a restart re-explores a path — produce the *same* key,
   which is what makes repeats hit.

   The key is flat ints, not constraints. Each closure constraint is
   its [Constr.flat] form preceded by the form's length, read from a
   backing int array at an offset; [kat] lists the offsets in
   [Constr.compare] order. One form may be read under another relation
   ([kneg], [krel]): that is how a negation shares its path
   constraint's form. [kdoms] holds [v; lo; hi] per variable in
   increasing order. The hash mixes the forms' ints and equality
   compares them, so a probe never walks a [Linexp] map. A campaign's
   keys come from [Concolic.Execution.prepare_negation]: their backing
   array is the run's closure index, where each distinct path
   constraint was flattened once, so a key copies no form. [key] is the
   reference construction from a list.

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
  kforms : int array;  (* backing ints: forms, each preceded by its length *)
  kat : int array;  (* offset in [kforms] of each constraint's length, sorted *)
  kneg : int;  (* index in [kat] of the form read under [krel]; -1: none *)
  krel : int;
  kdoms : int array;  (* [v; lo; hi] per variable, in var order *)
}

(* the relation rank of the [k]th constraint *)
let rel_at key k = if k = key.kneg then key.krel else key.kforms.(key.kat.(k) + 1)

let mix h x = (h * 0x01000193) lxor x

let form_hash forms o ~rel =
  let h = ref (mix (mix 0x811c9dc5 forms.(o)) rel) in
  for j = o + 2 to o + forms.(o) do
    h := mix !h forms.(j)
  done;
  !h

let key_of_forms ~forms ~at ~hashes ~neg ~rel ~doms =
  let h = ref 0x811c9dc5 in
  for k = 0 to Array.length hashes - 1 do
    h := mix !h hashes.(k)
  done;
  for j = 0 to Array.length doms - 1 do
    h := mix !h doms.(j)
  done;
  { khash = !h land max_int; kforms = forms; kat = at; kneg = neg; krel = rel; kdoms = doms }

let key ~domains cs =
  let flats = List.map Constr.flat (List.sort_uniq Constr.compare cs) in
  let forms = Array.concat (List.concat_map (fun f -> [ [| Array.length f |]; f ]) flats) in
  let at = Array.make (List.length flats) 0 in
  List.iteri
    (fun k f -> if k + 1 < Array.length at then at.(k + 1) <- at.(k) + 1 + Array.length f)
    flats;
  let vars =
    List.fold_left (fun acc c -> Varid.Set.union acc (Constr.vars c)) Varid.Set.empty cs
  in
  let dom v =
    let d = match Varid.Map.find_opt v domains with Some d -> d | None -> Domain.full in
    [| v; d.Domain.lo; d.Domain.hi |]
  in
  key_of_forms ~forms ~at
    ~hashes:(Array.map (fun o -> form_hash forms o ~rel:forms.(o + 1)) at)
    ~neg:(-1) ~rel:0
    ~doms:(Array.concat (List.map dom (Varid.Set.elements vars)))

let key_constrs key =
  List.init (Array.length key.kat) (fun k ->
      let o = key.kat.(k) in
      let f = Array.sub key.kforms (o + 1) key.kforms.(o) in
      f.(0) <- rel_at key k;
      Constr.of_flat f)

let ints_equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* every form of [a] equals the same-numbered form of [b] *)
let forms_equal a b =
  let n = Array.length a.kat in
  n = Array.length b.kat
  &&
  let fa = a.kforms and fb = b.kforms in
  let k = ref 0 and same = ref true in
  while !same && !k < n do
    let oa = a.kat.(!k) and ob = b.kat.(!k) in
    let len = fa.(oa) in
    if len <> fb.(ob) || rel_at a !k <> rel_at b !k then same := false
    else begin
      let j = ref 2 in
      while !j <= len && fa.(oa + !j) = fb.(ob + !j) do
        incr j
      done;
      same := !j > len
    end;
    incr k
  done;
  !same

module Tbl = Hashtbl.Make (struct
  type t = key

  let hash k = k.khash
  let equal a b = a.khash = b.khash && ints_equal a.kdoms b.kdoms && forms_equal a b
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
