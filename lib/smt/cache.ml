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

   Ownership: the table is split into [khash]-indexed shards and holds
   no lock at all. The pipelined campaign engine is the single writer
   and only mutates from the main domain at deterministic points —
   probes at candidate dispatch, verdict publication at the ordered
   merge — so every cache state transition happens at a work-list
   position that is identical at any [--jobs], which is what makes
   campaigns reproducible regardless of worker count. (The earlier
   design kept a module-level mutex "just in case"; profile data showed
   it as pure overhead — cache.lock.wait/hold spans — protecting a
   structure that was already single-domain by protocol. Concurrent
   multi-domain mutation was never supported and still is not.)
   Sharding keeps per-shard FIFO queues short so eviction scans stay
   O(shard) instead of O(table), and gives the checkpoint a layout that
   still marshals directly (no mutex custom block to strip).

   The shard count is derived from capacity — one shard per 256 slots,
   clamped to [1, 16] and rounded down to a power of two — so small
   caches (tests use capacity 2) keep the exact global-FIFO eviction
   order of the unsharded design, while the default 4096-slot cache
   gets 16 × 256-slot shards. *)

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

type shard = {
  table : outcome Tbl.t;
  order : key Queue.t;  (* insertion order, for per-shard FIFO eviction *)
}

type t = {
  capacity : int;
  shard_capacity : int;
  mask : int;  (* nshards - 1; nshards is a power of two *)
  shards : shard array;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let m_evictions = Obs.Metrics.counter "cache.evictions"
let g_entries = Obs.Metrics.gauge "cache.entries"

let default_capacity = 4096

(* largest power of two <= n, for n >= 1 *)
let pow2_floor n =
  let p = ref 1 in
  while !p * 2 <= n do
    p := !p * 2
  done;
  !p

let create ?(capacity = default_capacity) () =
  let capacity = max 1 capacity in
  let nshards = pow2_floor (max 1 (min 16 (capacity / 256))) in
  {
    capacity;
    shard_capacity = max 1 (capacity / nshards);
    mask = nshards - 1;
    shards =
      Array.init nshards (fun _ ->
          { table = Tbl.create 256; order = Queue.create () });
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let shard_of t k = t.shards.(k.khash land t.mask)

let entries t =
  Array.fold_left (fun acc s -> acc + Tbl.length s.table) 0 t.shards

let find t k =
  let s = shard_of t k in
  let r = Obs.Timeline.span "cache.probe" (fun () -> Tbl.find_opt s.table k) in
  (match r with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
  r

let add t k outcome =
  let s = shard_of t k in
  if not (Tbl.mem s.table k) then begin
    let dropped = ref 0 in
    while Tbl.length s.table >= t.shard_capacity && not (Queue.is_empty s.order) do
      let oldest = Queue.pop s.order in
      if Tbl.mem s.table oldest then begin
        Tbl.remove s.table oldest;
        incr dropped
      end
    done;
    let n = entries t in
    if !dropped > 0 then begin
      t.evictions <- t.evictions + !dropped;
      Obs.Metrics.incr ~by:!dropped m_evictions;
      if Obs.Sink.active () then
        Obs.Sink.emit (Obs.Event.Cache_evict { dropped = !dropped; entries = n })
    end;
    Tbl.replace s.table k outcome;
    Queue.push k s.order;
    Obs.Metrics.set g_entries (float_of_int (n + 1))
  end

let stats (t : t) =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; entries = entries t }

let hit_rate (t : t) =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
