(* Trace aggregation for the campaign observatory. Everything here is a
   pure function of the event list, so reports are byte-identical for a
   fixed trace no matter when or where they are regenerated. *)

type line =
  [ `Blank | `Event of Event.t | `Unknown of string | `Malformed of string ]

let classify_line raw : line =
  let s = String.trim raw in
  if s = "" then `Blank
  else
    match Json.parse s with
    | Error e -> `Malformed e
    | Ok j -> (
      match Event.of_json j with
      | Ok ev -> `Event ev
      | Error e ->
        (* Event.of_json distinguishes "unknown event kind …" (a newer
           producer) from a known kind with bad fields (corruption). *)
        let unknown =
          String.length e >= 18 && String.sub e 0 18 = "unknown event kind"
        in
        (match Option.bind (Json.member "ev" j) Json.to_str with
        | Some kind when unknown -> `Unknown kind
        | _ -> `Malformed e))

type lineage_node = {
  ln_test : int;
  ln_parent : int;
  ln_origin : string;
  ln_branch : int;
  ln_index : int;
  ln_cached : bool;
}

type branch_stat = {
  br_branch : int;
  br_first_test : int;
  br_attempts : int;
  br_sat : int;
  br_unsat : int;
  br_unknown : int;
  br_cached : int;
}

type witness_edge = { we_rank : int; we_kind : string; we_peer : int; we_comm : int }

type span = { sp_domain : int; sp_kind : string; sp_t0 : int; sp_t1 : int }

type t = {
  events : int;
  census : (string * int) list;
  unknown_kinds : (string * int) list;
  malformed : int;
  target : string option;
  budget : int option;
  seed : int option;
  nprocs0 : int option;
  tests : Event.test list;
  curve : (int * int) list;
  iterations : int;
  final_covered : int option;
  final_reachable : int option;
  reachable : int;
  bugs : int;
  wall_s : float option;
  exec_s : float;
  solve_s : float;
  solver_calls : int;
  solver_sat : int;
  solver_unsat : int;
  solver_unknown : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  lineage : lineage_node list;
  branches : branch_stat list;
  matrix : ((int * int) * int) list;
  rank_sends : (int * int) list;
  rank_recvs : (int * int) list;
  rank_colls : (int * int) list;
  rank_blocked : (int * int) list;
  collectives : ((int * string) * int) list;
  deadlocks : int;
  schedule_choices : int;
  schedule_forks : int;
  schedule_emitted : int;
  schedule_pruned : int;
  witness : (witness_edge * int) list;
  faults : (int * int * string * string) list;
  restarts : (string * int) list;
  spans : span list;
  span_rows : ((int * string) * (int * int)) list;
}

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let bump2 tbl key (c, ns) =
  let c0, ns0 = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
  Hashtbl.replace tbl key (c0 + c, ns0 + ns)

let sorted_assoc tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Incremental fold state: the batch fold's accumulators hoisted into a
   record so a consumer (the live `watch` dashboard) can [step] events as
   they appear and [finish] at any prefix. [finish] only reads the state,
   so stepping more events after a [finish] and finishing again is
   legal — that is exactly what tailing a growing trace does. *)
type state = {
  mutable s_events : int;
  s_census : (string, int) Hashtbl.t;
  s_unknown : (string, int) Hashtbl.t;
  mutable s_malformed : int;
  mutable s_target : string option;
  mutable s_budget : int option;
  mutable s_seed : int option;
  mutable s_nprocs0 : int option;
  mutable s_tests : Event.test list; (* every test event, newest first *)
  mutable s_final_covered : int option;
  mutable s_final_reachable : int option;
  mutable s_bugs : int;
  mutable s_wall : float option;
  mutable s_calls : int;
  mutable s_sat : int;
  mutable s_unsat : int;
  mutable s_unknown_o : int;
  mutable s_cache_on : bool; (* the latest campaign_start's solver_cache *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evict : int;
  s_negs : (int, int * int * int * int * int) Hashtbl.t;
  (* branch -> attempts, sat, unsat, unknown, cached *)
  s_matrix : (int * int, int) Hashtbl.t;
  s_sends : (int, int) Hashtbl.t;
  s_recvs : (int, int) Hashtbl.t;
  s_colls : (int, int) Hashtbl.t;
  s_blocked : (int, int) Hashtbl.t;
  s_coll_sigs : (int * string, int) Hashtbl.t;
  mutable s_deadlocks : int;
  mutable s_sched_choices : int;
  mutable s_sched_forks : int;
  mutable s_sched_emitted : int;
  mutable s_sched_pruned : int;
  s_witness : (witness_edge, int) Hashtbl.t;
  mutable s_faults : (int * int * string * string) list; (* newest first *)
  s_restarts : (string, int) Hashtbl.t;
  mutable s_spans : span list; (* newest first *)
  s_span_rows : (int * string, int * int) Hashtbl.t; (* (domain, kind) -> count, ns *)
}

let init () =
  {
    s_events = 0;
    s_census = Hashtbl.create 32;
    s_unknown = Hashtbl.create 4;
    s_malformed = 0;
    s_target = None;
    s_budget = None;
    s_seed = None;
    s_nprocs0 = None;
    s_tests = [];
    s_final_covered = None;
    s_final_reachable = None;
    s_bugs = 0;
    s_wall = None;
    s_calls = 0;
    s_sat = 0;
    s_unsat = 0;
    s_unknown_o = 0;
    s_cache_on = false;
    s_hits = 0;
    s_misses = 0;
    s_evict = 0;
    s_negs = Hashtbl.create 64;
    s_matrix = Hashtbl.create 64;
    s_sends = Hashtbl.create 16;
    s_recvs = Hashtbl.create 16;
    s_colls = Hashtbl.create 16;
    s_blocked = Hashtbl.create 16;
    s_coll_sigs = Hashtbl.create 16;
    s_deadlocks = 0;
    s_sched_choices = 0;
    s_sched_forks = 0;
    s_sched_emitted = 0;
    s_sched_pruned = 0;
    s_witness = Hashtbl.create 16;
    s_faults = [];
    s_restarts = Hashtbl.create 8;
    s_spans = [];
    s_span_rows = Hashtbl.create 16;
  }

let step st ev =
  st.s_events <- st.s_events + 1;
  bump st.s_census (Event.kind_name ev) 1;
  (match ev with
  | Event.Campaign_start { target = tg; iterations; seed = sd; nprocs; solver_cache } ->
    st.s_cache_on <- solver_cache;
    if st.s_target = None then begin
      st.s_target <- Some tg;
      st.s_budget <- Some iterations;
      st.s_seed <- Some sd;
      st.s_nprocs0 <- Some nprocs
    end
  | Event.Campaign_end { covered; reachable; bugs = b; wall_s = w; _ } ->
    st.s_final_covered <- Some covered;
    st.s_final_reachable <- Some reachable;
    st.s_bugs <- b;
    st.s_wall <- Some w
  | Event.Test row -> st.s_tests <- row :: st.s_tests
  | Event.Cache_evict { dropped; _ } -> st.s_evict <- st.s_evict + dropped
  | Event.Lineage_negation { branch; outcome; cached; _ } ->
    (* the one record of an attempt: uncached is a live solve, and with
       the cache on every attempt was a probe — a hit when cached *)
    if not cached then begin
      st.s_calls <- st.s_calls + 1;
      match outcome with
      | Event.Sat -> st.s_sat <- st.s_sat + 1
      | Event.Unsat -> st.s_unsat <- st.s_unsat + 1
      | Event.Unknown -> st.s_unknown_o <- st.s_unknown_o + 1
    end;
    if st.s_cache_on then
      if cached then st.s_hits <- st.s_hits + 1 else st.s_misses <- st.s_misses + 1;
    let a, sa, us, uk, ca =
      Option.value (Hashtbl.find_opt st.s_negs branch) ~default:(0, 0, 0, 0, 0)
    in
    let sa, us, uk =
      match outcome with
      | Event.Sat -> (sa + 1, us, uk)
      | Event.Unsat -> (sa, us + 1, uk)
      | Event.Unknown -> (sa, us, uk + 1)
    in
    Hashtbl.replace st.s_negs branch (a + 1, sa, us, uk, (if cached then ca + 1 else ca))
  | Event.Mpi_summary { nprocs; sends; recvs; colls; blocked; matrix; collectives } ->
    (* zero cells add no row: only ranks, pairs and collectives that occurred appear *)
    let add tbl key n = if n > 0 then bump tbl key n in
    let per_rank tbl = List.iteri (fun r n -> add tbl r n) in
    per_rank st.s_sends sends;
    per_rank st.s_recvs recvs;
    per_rank st.s_colls colls;
    per_rank st.s_blocked blocked;
    List.iteri (fun i n -> add st.s_matrix (i / nprocs, i mod nprocs) n) matrix;
    List.iter (fun (comm, signature, n) -> add st.s_coll_sigs (comm, signature) n) collectives
  | Event.Sched_deadlock _ -> st.s_deadlocks <- st.s_deadlocks + 1
  | Event.Schedule_choice { alts; _ } ->
    st.s_sched_choices <- st.s_sched_choices + 1;
    if List.length alts > 1 then st.s_sched_forks <- st.s_sched_forks + 1
  | Event.Schedule_enum { emitted; pruned; _ } ->
    st.s_sched_emitted <- st.s_sched_emitted + emitted;
    st.s_sched_pruned <- st.s_sched_pruned + pruned
  | Event.Deadlock_witness { rank; comm; kind; peer } ->
    bump st.s_witness { we_rank = rank; we_kind = kind; we_peer = peer; we_comm = comm } 1
  | Event.Fault { iteration; rank; kind; detail } ->
    st.s_faults <- (iteration, rank, kind, detail) :: st.s_faults
  | Event.Restart { reason; _ } -> bump st.s_restarts reason 1
  | Event.Span { domain; kind; t0; t1 } ->
    st.s_spans <-
      { sp_domain = domain; sp_kind = kind; sp_t0 = t0; sp_t1 = t1 } :: st.s_spans
  | Event.Span_summary { rows } ->
    List.iter (fun (d, k, c, ns) -> bump2 st.s_span_rows (d, k) (c, ns)) rows
  | Event.Checkpoint_write _ | Event.Checkpoint_load _ | Event.Compile _
  | Event.Ledger_append _ -> ());
  st

let step_line st raw =
  (match classify_line raw with
  | `Blank -> ()
  | `Event ev -> ignore (step st ev)
  | `Unknown kind -> bump st.s_unknown kind 1
  | `Malformed _ -> st.s_malformed <- st.s_malformed + 1);
  st

let finish st =
  let tests = List.rev st.s_tests in
  (* every row is a lineage node, so [lineage_errors] sees duplicates;
     the curve keeps the last row of each test id *)
  let lineage =
    List.map
      (fun (r : Event.test) ->
        {
          ln_test = r.test;
          ln_parent = r.parent;
          ln_origin = r.origin;
          ln_branch = r.branch;
          ln_index = r.index;
          ln_cached = r.cached;
        })
      st.s_tests
    |> List.sort (fun a b -> compare a.ln_test b.ln_test)
  in
  let last_covered = Hashtbl.create 64 in
  List.iter (fun (r : Event.test) -> Hashtbl.replace last_covered r.test r.covered) tests;
  (* only a negated test covers the branch it targeted: a schedule
     fork's branch slot holds the source rank it delivers from *)
  let first_for_branch = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if n.ln_origin = "negated" && not (Hashtbl.mem first_for_branch n.ln_branch) then
        Hashtbl.add first_for_branch n.ln_branch n.ln_test)
    lineage;
  let branches =
    sorted_assoc st.s_negs
    |> List.map (fun (branch, (a, sa, us, uk, ca)) ->
           {
             br_branch = branch;
             br_first_test =
               Option.value (Hashtbl.find_opt first_for_branch branch) ~default:(-1);
             br_attempts = a;
             br_sat = sa;
             br_unsat = us;
             br_unknown = uk;
             br_cached = ca;
           })
  in
  let curve = sorted_assoc last_covered in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 tests in
  {
    events = st.s_events;
    census = sorted_assoc st.s_census;
    unknown_kinds = sorted_assoc st.s_unknown;
    malformed = st.s_malformed;
    target = st.s_target;
    budget = st.s_budget;
    seed = st.s_seed;
    nprocs0 = st.s_nprocs0;
    tests;
    curve;
    iterations = List.length curve;
    final_covered = st.s_final_covered;
    final_reachable = st.s_final_reachable;
    reachable =
      (match (st.s_final_reachable, st.s_tests) with
      | Some n, _ -> n
      | None, latest :: _ -> latest.reachable
      | None, [] -> 0);
    bugs = st.s_bugs;
    wall_s = st.s_wall;
    exec_s = sum (fun r -> r.exec_s);
    solve_s = sum (fun r -> r.solve_s);
    solver_calls = st.s_calls;
    solver_sat = st.s_sat;
    solver_unsat = st.s_unsat;
    solver_unknown = st.s_unknown_o;
    cache_hits = st.s_hits;
    cache_misses = st.s_misses;
    cache_evictions = st.s_evict;
    lineage;
    branches;
    matrix = sorted_assoc st.s_matrix;
    rank_sends = sorted_assoc st.s_sends;
    rank_recvs = sorted_assoc st.s_recvs;
    rank_colls = sorted_assoc st.s_colls;
    rank_blocked = sorted_assoc st.s_blocked;
    collectives = sorted_assoc st.s_coll_sigs;
    deadlocks = st.s_deadlocks;
    schedule_choices = st.s_sched_choices;
    schedule_forks = st.s_sched_forks;
    schedule_emitted = st.s_sched_emitted;
    schedule_pruned = st.s_sched_pruned;
    witness = sorted_assoc st.s_witness;
    faults = List.rev st.s_faults;
    restarts = sorted_assoc st.s_restarts;
    spans =
      List.sort
        (fun a b ->
          compare (a.sp_t0, a.sp_domain, a.sp_t1, a.sp_kind)
            (b.sp_t0, b.sp_domain, b.sp_t1, b.sp_kind))
        st.s_spans;
    span_rows = sorted_assoc st.s_span_rows;
  }

let fold events = finish (List.fold_left step (init ()) events)

let of_lines lines = finish (List.fold_left step_line (init ()) lines)

(* ------------------------------------------------------------------ *)
(* Lineage queries                                                     *)
(* ------------------------------------------------------------------ *)

let node t id = List.find_opt (fun n -> n.ln_test = id) t.lineage

let chain t id =
  let rec go acc id =
    match node t id with
    | None -> List.rev acc
    | Some n ->
      let acc = n :: acc in
      if n.ln_parent < 0 || List.exists (fun m -> m.ln_test = n.ln_parent) acc then
        List.rev acc
      else go acc n.ln_parent
  in
  go [] id

let first_test_for_branch t branch =
  match List.find_opt (fun b -> b.br_branch = branch) t.branches with
  | Some b when b.br_first_test >= 0 -> Some b.br_first_test
  | Some _ | None -> None

let lineage_errors t =
  let errs = ref [] in
  let add fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if Hashtbl.mem tbl n.ln_test then add "duplicate test id %d" n.ln_test;
      Hashtbl.replace tbl n.ln_test n)
    t.lineage;
  List.iter
    (fun n ->
      match n.ln_origin with
      | "seed" | "restart" ->
        if n.ln_parent <> -1 then
          add "test %d: %s root carries parent %d" n.ln_test n.ln_origin n.ln_parent
      | "negated" ->
        if n.ln_parent < 0 then add "test %d: negated without a parent" n.ln_test
        else begin
          if n.ln_parent >= n.ln_test then
            add "test %d: parent %d does not precede it" n.ln_test n.ln_parent;
          if not (Hashtbl.mem tbl n.ln_parent) then
            add "test %d: parent %d absent from the graph" n.ln_test n.ln_parent
        end;
        if n.ln_branch < 0 then add "test %d: negated without a target branch" n.ln_test;
        if n.ln_index < 0 then add "test %d: negated without a constraint index" n.ln_test
      | "schedule" ->
        if n.ln_parent < 0 then add "test %d: schedule fork without a parent" n.ln_test
        else begin
          if n.ln_parent >= n.ln_test then
            add "test %d: parent %d does not precede it" n.ln_test n.ln_parent;
          if not (Hashtbl.mem tbl n.ln_parent) then
            add "test %d: parent %d absent from the graph" n.ln_test n.ln_parent
        end;
        if n.ln_index < 0 then
          add "test %d: schedule fork without a choice point" n.ln_test;
        if n.ln_branch < 0 then
          add "test %d: schedule fork without an alternative source" n.ln_test
      | other -> add "test %d: unknown origin %s" n.ln_test other)
    t.lineage;
  List.rev !errs

let witness_cycle t =
  let adj = Hashtbl.create 8 in
  List.iter
    (fun ({ we_rank; we_peer; _ }, _) ->
      if we_peer >= 0 then
        let cur = Option.value (Hashtbl.find_opt adj we_rank) ~default:[] in
        if not (List.mem we_peer cur) then Hashtbl.replace adj we_rank (we_peer :: cur))
    t.witness;
  let neighbors r = List.sort compare (Option.value (Hashtbl.find_opt adj r) ~default:[]) in
  let starts = Hashtbl.fold (fun k _ acc -> k :: acc) adj [] |> List.sort_uniq compare in
  (* path holds the walk most-recent-first; a revisit closes the cycle *)
  let rec dfs path r =
    if List.mem r path then begin
      let rec upto = function
        | [] -> []
        | x :: tl -> if x = r then [ x ] else x :: upto tl
      in
      Some (List.rev (upto path))
    end
    else
      List.fold_left
        (fun acc p -> match acc with Some _ -> acc | None -> dfs (r :: path) p)
        None (neighbors r)
  in
  List.fold_left
    (fun acc r -> match acc with Some _ -> acc | None -> dfs [] r)
    None starts

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let ascii_curve ?(width = 60) ?(height = 12) points =
  match points with
  | [] -> "(no iterations in trace)\n"
  | points ->
    let points = Array.of_list points in
    let n = Array.length points in
    let max_y = Array.fold_left (fun acc (_, y) -> max acc y) 1 points in
    let grid = Array.make_matrix height width ' ' in
    for col = 0 to width - 1 do
      let idx = min (n - 1) (col * n / width) in
      let _, y = points.(idx) in
      let row = y * (height - 1) / max_y in
      for fill = 0 to row do
        grid.(height - 1 - fill).(col) <- (if fill = row then '*' else '.')
      done
    done;
    let buf = Buffer.create ((width + 8) * height) in
    Array.iteri
      (fun i row ->
        Buffer.add_string buf
          (if i = 0 then Printf.sprintf "%5d |" max_y else "      |");
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("      +" ^ String.make width '-' ^ "\n");
    let last_x, _ = points.(n - 1) in
    Buffer.add_string buf (Printf.sprintf "       0 .. iteration %d\n" last_x);
    Buffer.contents buf

(* Census rows whose counts depend on scheduling noise (checkpoint
   cadence/paths, ledger appends, timing spans), not on what the
   campaign computed. *)
let unstable_kind k =
  match k with
  | "checkpoint_write" | "checkpoint_load" | "span" | "span_summary" | "ledger_append" -> true
  | _ -> false

let stable_census t = List.filter (fun (k, _) -> not (unstable_kind k)) t.census

let ranks_of t =
  let add acc r = if List.mem r acc then acc else r :: acc in
  let acc = List.fold_left (fun acc ((s, d), _) -> add (add acc s) d) [] t.matrix in
  let acc = List.fold_left (fun acc (r, _) -> add acc r) acc t.rank_sends in
  let acc = List.fold_left (fun acc (r, _) -> add acc r) acc t.rank_recvs in
  let acc = List.fold_left (fun acc (r, _) -> add acc r) acc t.rank_colls in
  let acc = List.fold_left (fun acc (r, _) -> add acc r) acc t.rank_blocked in
  match List.sort compare acc with
  | [] -> []
  | l ->
    let hi = List.fold_left max 0 l in
    List.init (hi + 1) Fun.id

let plateau_branches t =
  List.filter (fun b -> b.br_attempts > 0 && b.br_first_test < 0) t.branches

let lineage_depths t =
  let depth = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let d =
        if n.ln_parent < 0 then 0
        else 1 + Option.value (Hashtbl.find_opt depth n.ln_parent) ~default:0
      in
      Hashtbl.replace depth n.ln_test d)
    t.lineage;
  depth

let origin_counts t =
  let seed = ref 0 and negated = ref 0 and schedule = ref 0 and restart = ref 0 in
  List.iter
    (fun n ->
      match n.ln_origin with
      | "seed" -> incr seed
      | "negated" -> incr negated
      | "schedule" -> incr schedule
      | _ -> incr restart)
    t.lineage;
  (!seed, !negated, !schedule, !restart)

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let to_text ?(stable = false) ?(branch_label = string_of_int) t =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let census = if stable then stable_census t else t.census in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 census in
  pf "events: %d\n" total;
  List.iter (fun (k, n) -> pf "  %-16s %d\n" k n) census;
  if t.unknown_kinds <> [] then begin
    let skipped = List.fold_left (fun acc (_, n) -> acc + n) 0 t.unknown_kinds in
    pf "skipped %d event(s) of unknown kind: %s\n" skipped
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s (%d)" k n) t.unknown_kinds))
  end;
  if t.malformed > 0 then pf "malformed lines: %d\n" t.malformed;
  (match (t.target, t.budget, t.seed, t.nprocs0) with
  | Some tg, Some bu, Some sd, Some np ->
    pf "\ncampaign: target=%s budget=%d seed=%d initial nprocs=%d\n"
      (if tg = "" then "?" else tg)
      bu sd np
  | _ -> ());
  pf "\ncoverage curve (%d iterations):\n%s" t.iterations (ascii_curve t.curve);
  (match (t.final_covered, t.final_reachable) with
  | Some c, Some r -> pf "coverage: %d/%d branches\n" c r
  | _ -> ());
  if not stable then begin
    pf "\nphase breakdown:\n";
    pf "  exec   %8.3fs\n" t.exec_s;
    pf "  solve  %8.3fs\n" t.solve_s;
    match t.wall_s with
    | Some w ->
      pf "  other  %8.3fs\n" (Float.max 0.0 (w -. t.exec_s -. t.solve_s));
      pf "  wall   %8.3fs\n" w
    | None -> ()
  end;
  if t.solver_calls > 0 then
    pf "\nsolver: %d calls (%d sat, %d unsat, %d unknown)\n" t.solver_calls t.solver_sat
      t.solver_unsat t.solver_unknown;
  let probes = t.cache_hits + t.cache_misses in
  if probes > 0 then
    pf "cache: %d probes, %d hits (%.0f%%), %d evictions\n" probes t.cache_hits
      (pct t.cache_hits probes) t.cache_evictions;
  if t.schedule_choices > 0 || t.schedule_emitted > 0 then
    pf
      "schedules: %d wildcard choice(s) served (%d with alternatives), %d alternative \
       schedule(s) enumerated, %d pruned\n"
      t.schedule_choices t.schedule_forks t.schedule_emitted t.schedule_pruned;
  (* lineage *)
  if t.lineage <> [] then begin
    let seeds, negated, schedules, restarts = origin_counts t in
    let depths = lineage_depths t in
    let maxd = Hashtbl.fold (fun _ d acc -> max d acc) depths 0 in
    pf "\nlineage: %d tests (%d seed, %d negated, %d schedule, %d restart), max depth %d\n"
      (List.length t.lineage) seeds negated schedules restarts maxd;
    let plateau = plateau_branches t in
    if plateau <> [] then begin
      pf "plateau branches (attempted, never covered): %d\n" (List.length plateau);
      List.iteri
        (fun i br ->
          if i < 12 then
            pf "  branch %s: %d attempts (%d sat, %d unsat, %d unknown; %d cached)\n"
              (branch_label br.br_branch) br.br_attempts br.br_sat br.br_unsat
              br.br_unknown br.br_cached)
        plateau;
      if List.length plateau > 12 then pf "  … %d more\n" (List.length plateau - 12)
    end
  end;
  (* per-branch table *)
  if t.branches <> [] then begin
    pf "\nper-branch negations (%d branches):\n" (List.length t.branches);
    pf "  %-24s %10s %8s %5s %6s %8s %7s\n" "branch" "first-test" "attempts" "sat"
      "unsat" "unknown" "cached";
    List.iteri
      (fun i br ->
        if i < 40 then
          pf "  %-24s %10s %8d %5d %6d %8d %7d\n" (branch_label br.br_branch)
            (if br.br_first_test < 0 then "-" else string_of_int br.br_first_test)
            br.br_attempts br.br_sat br.br_unsat br.br_unknown br.br_cached)
      t.branches;
    if List.length t.branches > 40 then pf "  … %d more\n" (List.length t.branches - 40)
  end;
  (* communication *)
  let ranks = ranks_of t in
  if ranks <> [] then begin
    let cell src dst = Option.value (List.assoc_opt (src, dst) t.matrix) ~default:0 in
    let w =
      List.fold_left
        (fun acc ((_, _), n) -> max acc (String.length (string_of_int n)))
        3 t.matrix
    in
    pf "\ncommunication matrix (delivered messages, src rows × dst cols):\n";
    pf "  %4s" "";
    List.iter (fun d -> pf " %*d" w d) ranks;
    pf "\n";
    List.iter
      (fun s ->
        pf "  %4d" s;
        List.iter
          (fun d ->
            let n = cell s d in
            if n = 0 then pf " %*s" w "." else pf " %*d" w n)
          ranks;
        pf "\n")
      ranks;
    pf "\nper-rank activity:\n";
    pf "  %4s %8s %8s %12s %8s\n" "rank" "sends" "recvs" "collectives" "blocked";
    List.iter
      (fun r ->
        let g tbl = Option.value (List.assoc_opt r tbl) ~default:0 in
        pf "  %4d %8d %8d %12d %8d\n" r (g t.rank_sends) (g t.rank_recvs)
          (g t.rank_colls) (g t.rank_blocked))
      ranks;
    if t.collectives <> [] then begin
      pf "collectives:\n";
      List.iter
        (fun ((comm, signature), n) -> pf "  comm %d %s ×%d\n" comm signature n)
        t.collectives
    end
  end;
  (* deadlocks *)
  if t.deadlocks > 0 || t.witness <> [] then begin
    pf "\ndeadlocks: %d\n" t.deadlocks;
    if t.witness <> [] then begin
      pf "witness (wait-for edges):\n";
      List.iter
        (fun ({ we_rank; we_kind; we_peer; we_comm }, n) ->
          if we_peer >= 0 then
            pf "  rank %d %s ← rank %d (comm %d) ×%d\n" we_rank we_kind we_peer we_comm n
          else pf "  rank %d %s ← * (comm %d) ×%d\n" we_rank we_kind we_comm n)
        t.witness;
      match witness_cycle t with
      | Some cycle ->
        pf "wait-for cycle: %s → %s\n"
          (String.concat " → " (List.map string_of_int cycle))
          (string_of_int (List.hd cycle))
      | None -> ()
    end
  end;
  (* incidents *)
  if t.faults <> [] then begin
    pf "\nfaults (%d):\n" (List.length t.faults);
    List.iteri
      (fun i (iteration, rank, kind, detail) ->
        if i < 12 then pf "  [iter %d, rank %d] %s: %s\n" iteration rank kind detail)
      t.faults;
    if List.length t.faults > 12 then pf "  … %d more\n" (List.length t.faults - 12)
  end;
  if t.restarts <> [] then begin
    pf "\nrestarts:\n";
    List.iter (fun (reason, n) -> pf "  %-16s %d\n" reason n) t.restarts
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Live monitor: the frames `compi-cli watch` renders                  *)
(* ------------------------------------------------------------------ *)

(* Coverage-curve slope over the trailing [window] iterations: the
   plateau/ETA estimate the monitor shows. The curve is ascending
   (iteration, cumulative covered). *)
let estimate ?(window = 20) ~reachable curve =
  match List.rev curve with
  | [] -> (false, -1)
  | (_, c1) :: _ when c1 >= reachable && reachable > 0 -> (false, 0)
  | (i1, c1) :: older -> (
    let rec back = function
      | [] -> None
      | (i0, c0) :: rest -> if i1 - i0 >= window then Some (i0, c0) else back rest
    in
    match back older with
    | None -> (false, -1) (* not enough history for a slope *)
    | Some (i0, c0) ->
      let gained = c1 - c0 in
      if gained <= 0 then (true, -1)
      else
        let slope = float_of_int gained /. float_of_int (i1 - i0) in
        let remaining = max 0 (reachable - c1) in
        (false, int_of_float (ceil (float_of_int remaining /. slope))))

let finished t = t.final_reachable <> None

(* the campaign_end count once folded, else the newest curve point *)
let covered_now t =
  match (t.final_covered, List.rev t.curve) with
  | Some c, _ | None, (_, c) :: _ -> c
  | None, [] -> 0

let watch_text t =
  let b = Buffer.create 1024 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let budget = Option.value t.budget ~default:0 in
  let covered = covered_now t in
  add "target          %s"
    (match t.target with None | Some "" -> "(unnamed)" | Some tg -> tg);
  add "progress        %d / %d iteration(s)%s%s" t.iterations budget
    (if budget > 0 && budget < max_int then
       Printf.sprintf " (%.1f%%)" (pct t.iterations budget)
     else "")
    (if finished t then " — finished" else "");
  add "coverage        %d / %d reachable%s" covered t.reachable
    (if t.reachable > 0 then Printf.sprintf " (%.1f%%)" (pct covered t.reachable) else "");
  add "bugs            %d" (List.length t.faults);
  add "cache hit rate  %.0f%%" (pct t.cache_hits (t.cache_hits + t.cache_misses));
  add "schedule forks  %d" t.schedule_emitted;
  (match estimate ~reachable:t.reachable t.curve with
  | true, _ -> add "trend           plateau — no coverage gain over the trailing window"
  | false, 0 -> add "trend           fully covered"
  | false, n when n > 0 ->
    add "trend           ~%d iteration(s) to full reachable coverage at the current rate" n
  | false, _ -> add "trend           (not enough history for an estimate)");
  if t.curve <> [] then begin
    Buffer.add_char b '\n';
    Buffer.add_string b (ascii_curve t.curve)
  end;
  Buffer.contents b

let watch_line t =
  let plateau, eta = estimate ~reachable:t.reachable t.curve in
  Printf.sprintf "iter %d/%d cov %d/%d bugs %d cache %.0f%%%s%s" t.iterations
    (Option.value t.budget ~default:0)
    (covered_now t) t.reachable (List.length t.faults)
    (pct t.cache_hits (t.cache_hits + t.cache_misses))
    (if plateau then " plateau" else if eta > 0 then Printf.sprintf " eta ~%d" eta else "")
    (if finished t then " finished" else "")

(* ------------------------------------------------------------------ *)
(* Profile fold: where the nanoseconds went                            *)
(* ------------------------------------------------------------------ *)

(* The span vocabulary this build understands. Wait kinds are time a
   domain provably spent not working (parked on a condition variable);
   busy kinds are work, possibly nested (a "round" contains
   "merge", an "exec" contains "schedule"). Unknown kinds — a newer
   producer — are skipped and counted, mirroring the event-kind triage. *)
let span_wait_kind = function
  | "idle" | "join" | "queue.wait" -> true
  | _ -> false

let span_busy_kind = function
  | "campaign" | "task" | "exec" | "solve" | "interp" | "compiled"
  | "compile" | "schedule" | "strategy" | "checkpoint" | "report" | "round"
  | "inflight" | "dispatch" | "merge" | "cache.probe" -> true
  | _ -> false

(* Structural umbrellas: they tile the main domain so attribution can
   reach ~100%, but counting them as work would make domain 0 look
   always-busy and every round's critical path equal its wall. They
   contribute to coverage/attribution and the per-kind table only.
   ("inflight" is the pipelined engine's per-round streaming window —
   batch publication through last result consumed — and overlaps the
   merges and queue waits inside it, so it is structural too.) *)
let span_struct_kind = function
  | "round" | "campaign" | "inflight" -> true
  | _ -> false

let span_known_kind k = span_busy_kind k || span_wait_kind k

(* Integer interval lists [(lo, hi)], hi exclusive. [ivs_norm] sorts,
   drops empties, and merges overlaps into a disjoint ascending list —
   the form the other operations expect. *)
let ivs_norm ivs =
  match List.sort compare (List.filter (fun (a, b) -> b > a) ivs) with
  | [] -> []
  | first :: rest ->
    let merged, last =
      List.fold_left
        (fun (acc, (pa, pb)) (a, b) ->
          if a <= pb then (acc, (pa, max pb b)) else ((pa, pb) :: acc, (a, b)))
        ([], first) rest
    in
    List.rev (last :: merged)

let ivs_len ivs = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 ivs

(* [ivs_sub a b]: the parts of [a] not covered by [b]; both disjoint
   ascending. *)
let ivs_sub a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | rest, [] -> List.rev_append acc rest
    | (a0, a1) :: ar, (b0, b1) :: br ->
      if b1 <= a0 then go acc a br
      else if a1 <= b0 then go ((a0, a1) :: acc) ar b
      else
        let acc = if a0 < b0 then (a0, b0) :: acc else acc in
        if a1 > b1 then go acc ((b1, a1) :: ar) br else go acc ar b
  in
  go [] a b

let ivs_clip (lo, hi) ivs =
  List.filter_map
    (fun (a, b) ->
      let a = max a lo and b = min b hi in
      if b > a then Some (a, b) else None)
    ivs

type domain_prof = {
  dp_domain : int;
  dp_spans : int;
  dp_busy_ns : int;
  dp_wait_ns : int;
  dp_util : float;
}

type round_prof = {
  rp_index : int;
  rp_wall_ns : int;
  rp_crit_ns : int;
  rp_crit_domain : int;
  rp_stall_ns : int;
}

type profile = {
  pf_spans : int;
  pf_unknown : (string * int) list;
  pf_wall_ns : int;
  pf_kinds : (string * (int * int)) list;
  pf_domains : domain_prof list;
  pf_queue_wait_ns : int;
  pf_queue_waits : int;
  pf_idle_ns : int;
  pf_join_ns : int;
  pf_rounds : round_prof list;
  pf_attributed_pct : float;
}

(* Power-of-two bucket: 0 for <= 0 ns, else the smallest e >= 1 with
   ns <= 2^e. *)
let ns_bucket ns =
  if ns <= 0 then 0
  else begin
    let rec bits acc n = if n = 0 then acc else bits (acc + 1) (n lsr 1) in
    bits 0 (ns - 1) |> max 1
  end

let empty_profile =
  {
    pf_spans = 0;
    pf_unknown = [];
    pf_wall_ns = 0;
    pf_kinds = [];
    pf_domains = [];
    pf_queue_wait_ns = 0;
    pf_queue_waits = 0;
    pf_idle_ns = 0;
    pf_join_ns = 0;
    pf_rounds = [];
    pf_attributed_pct = 0.0;
  }

(* [span_summary] rows add to the per-kind table and the span counts;
   the spans they stand for lay inside a [span] interval, so every
   union below reads the intervals alone. *)
let profile t =
  let known, unknown_spans = List.partition (fun s -> span_known_kind s.sp_kind) t.spans in
  let rows, unknown_rows = List.partition (fun ((_, k), _) -> span_known_kind k) t.span_rows in
  let unknown = Hashtbl.create 4 in
  List.iter (fun s -> bump unknown s.sp_kind 1) unknown_spans;
  List.iter (fun ((_, k), (c, _)) -> bump unknown k c) unknown_rows;
  let pf_unknown = sorted_assoc unknown in
  match known with
  | [] -> { empty_profile with pf_unknown }
  | _ :: _ ->
    let t_min = List.fold_left (fun acc s -> min acc s.sp_t0) max_int known in
    let t_max = List.fold_left (fun acc s -> max acc s.sp_t1) t_min known in
    let wall = max 1 (t_max - t_min) in
    let kinds = Hashtbl.create 16 in
    List.iter (fun s -> bump2 kinds s.sp_kind (1, max 0 (s.sp_t1 - s.sp_t0))) known;
    List.iter (fun ((_, k), row) -> bump2 kinds k row) rows;
    let kind_total k =
      match Hashtbl.find_opt kinds k with Some (_, ns) -> ns | None -> 0
    in
    let kind_count k =
      match Hashtbl.find_opt kinds k with Some (c, _) -> c | None -> 0
    in
    let row_count d =
      List.fold_left (fun acc ((rd, _), (c, _)) -> if rd = d then acc + c else acc) 0 rows
    in
    let domains =
      List.sort_uniq compare (List.map (fun s -> s.sp_domain) known)
    in
    (* exclusive busy = union(busy \ structural) minus union(wait): a
       domain waiting on the result queue or holding no task is not
       busy, so per-domain utilization can never exceed 1; umbrella
       spans ("round", "campaign") are excluded or domain 0 would look
       always-busy. *)
    let excl_busy_of d =
      let mine = List.filter (fun s -> s.sp_domain = d) known in
      let iv p = ivs_norm (List.filter_map (fun s -> if p s.sp_kind then Some (s.sp_t0, s.sp_t1) else None) mine) in
      let busy = iv (fun k -> span_busy_kind k && not (span_struct_kind k)) in
      (ivs_sub busy (iv span_wait_kind), iv span_wait_kind, List.length mine + row_count d)
    in
    let per_domain = List.map (fun d -> (d, excl_busy_of d)) domains in
    let pf_domains =
      List.map
        (fun (d, (busy, wait, nspans)) ->
          let busy_ns = ivs_len busy in
          {
            dp_domain = d;
            dp_spans = nspans;
            dp_busy_ns = busy_ns;
            dp_wait_ns = ivs_len wait;
            dp_util = float_of_int busy_ns /. float_of_int wall;
          })
        per_domain
    in
    (* critical path per round: the longest exclusive-busy time any one
       domain accumulated inside the round window; the remainder of the
       round's wall is stall no schedule could have hidden. *)
    let rounds =
      List.filter (fun s -> s.sp_kind = "round") known
      |> List.sort (fun a b -> compare (a.sp_t0, a.sp_t1) (b.sp_t0, b.sp_t1))
    in
    let pf_rounds =
      List.mapi
        (fun i r ->
          let w = (r.sp_t0, r.sp_t1) in
          let crit_domain, crit =
            List.fold_left
              (fun (bd, bn) (d, (busy, _, _)) ->
                let n = ivs_len (ivs_clip w busy) in
                if n > bn then (d, n) else (bd, bn))
              (-1, -1) per_domain
          in
          let wall_r = max 0 (r.sp_t1 - r.sp_t0) in
          {
            rp_index = i + 1;
            rp_wall_ns = wall_r;
            rp_crit_ns = max 0 crit;
            rp_crit_domain = crit_domain;
            rp_stall_ns = max 0 (wall_r - max 0 crit);
          })
        rounds
    in
    (* attribution: how much of the global extent the main domain's
       named spans cover — the >= 95% acceptance gate for the
       instrumentation itself *)
    let main_cover =
      ivs_len
        (ivs_norm
           (List.filter_map
              (fun s -> if s.sp_domain = 0 then Some (s.sp_t0, s.sp_t1) else None)
              known))
    in
    {
      pf_spans = List.length known + List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 rows;
      pf_unknown;
      pf_wall_ns = wall;
      pf_kinds =
        sorted_assoc kinds
        |> List.sort (fun (ka, (_, na)) (kb, (_, nb)) -> compare (nb, ka) (na, kb));
      pf_domains;
      pf_queue_wait_ns = kind_total "queue.wait";
      pf_queue_waits = kind_count "queue.wait";
      pf_idle_ns = kind_total "idle";
      pf_join_ns = kind_total "join";
      pf_rounds;
      pf_attributed_pct = 100.0 *. float_of_int main_cover /. float_of_int wall;
    }

(* ------------------------------------------------------------------ *)
(* Profile renderers                                                   *)
(* ------------------------------------------------------------------ *)

let ns_to_s ns = float_of_int ns /. 1e9

(* Under [stable], absolute durations collapse to power-of-two tick
   buckets ("~2^30ns") and percentages round to whole points, so the
   numbers that survive are reproducible in shape across reruns of the
   same campaign; without it, raw seconds. *)
let dur ~stable ns =
  if stable then Printf.sprintf "~2^%dns" (ns_bucket ns)
  else Printf.sprintf "%.3fs" (ns_to_s ns)

let share ~stable num den =
  let p = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den in
  if stable then Printf.sprintf "%3.0f%%" p else Printf.sprintf "%5.1f%%" p

let profile_text ?(stable = false) t =
  let p = profile t in
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  if p.pf_spans = 0 then begin
    pf "no spans in trace";
    (match p.pf_unknown with
    | [] -> pf " (run the campaign with --trace-events to record them)\n"
    | u ->
      pf "; %d span(s) of unknown kind skipped: %s\n"
        (List.fold_left (fun acc (_, n) -> acc + n) 0 u)
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s (%d)" k n) u)));
    Buffer.contents b
  end
  else begin
    pf "spans: %d across %d domain(s), wall %s\n" p.pf_spans
      (List.length p.pf_domains) (dur ~stable p.pf_wall_ns);
    pf "attributed to named spans on the main domain: %s of wall\n"
      (share ~stable
         (int_of_float (float_of_int p.pf_wall_ns *. p.pf_attributed_pct /. 100.0))
         p.pf_wall_ns);
    if p.pf_unknown <> [] then
      pf "skipped %d span(s) of unknown kind: %s\n"
        (List.fold_left (fun acc (_, n) -> acc + n) 0 p.pf_unknown)
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s (%d)" k n) p.pf_unknown));
    pf "\nper-kind totals (nested spans count toward every enclosing kind):\n";
    pf "  %-16s %8s %12s %7s\n" "kind" "count" "total" "% wall";
    List.iter
      (fun (k, (c, ns)) ->
        pf "  %-16s %8d %12s %7s\n" k c (dur ~stable ns) (share ~stable ns p.pf_wall_ns))
      p.pf_kinds;
    pf "\nper-worker utilization (exclusive busy time / wall):\n";
    pf "  %-6s %12s %12s %6s\n" "domain" "busy" "wait" "util";
    List.iter
      (fun d ->
        let u = int_of_float (d.dp_util *. 100.0) in
        let bar = String.make (max 0 (min 30 (u * 30 / 100))) '#' in
        pf "  %-6d %12s %12s %5d%%  |%-30s|\n" d.dp_domain (dur ~stable d.dp_busy_ns)
          (dur ~stable d.dp_wait_ns) u bar)
      p.pf_domains;
    pf "\nstalls and contention:\n";
    pf "  pipeline queue wait (main waiting on the next in-order result): %s (%s of wall) across %d wait(s)\n"
      (dur ~stable p.pf_queue_wait_ns)
      (share ~stable p.pf_queue_wait_ns p.pf_wall_ns)
      p.pf_queue_waits;
    pf "  worker idle (no task claimable): %s\n" (dur ~stable p.pf_idle_ns);
    pf "  pool join: %s\n" (dur ~stable p.pf_join_ns);
    if p.pf_rounds <> [] then begin
      let nr = List.length p.pf_rounds in
      let tot f = List.fold_left (fun acc r -> acc + f r) 0 p.pf_rounds in
      let wall_t = tot (fun r -> r.rp_wall_ns) in
      let crit_t = tot (fun r -> r.rp_crit_ns) in
      let stall_t = tot (fun r -> r.rp_stall_ns) in
      pf "\nrounds: %d; critical path %s of round wall (stall %s)\n" nr
        (share ~stable crit_t wall_t) (share ~stable stall_t wall_t);
      if not stable then begin
        let slowest =
          List.sort (fun a b -> compare (b.rp_wall_ns, a.rp_index) (a.rp_wall_ns, b.rp_index)) p.pf_rounds
        in
        pf "  slowest rounds:\n";
        pf "    %5s %12s %12s %12s %6s\n" "round" "wall" "crit" "stall" "on";
        List.iteri
          (fun i r ->
            if i < 5 then
              pf "    %5d %12s %12s %12s %6d\n" r.rp_index (dur ~stable r.rp_wall_ns)
                (dur ~stable r.rp_crit_ns) (dur ~stable r.rp_stall_ns) r.rp_crit_domain)
          slowest
      end
    end;
    Buffer.contents b
  end
