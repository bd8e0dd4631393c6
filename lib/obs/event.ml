type solver_outcome = Sat | Unsat | Unknown

let outcome_name = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let outcome_of_name = function
  | "sat" -> Some Sat
  | "unsat" -> Some Unsat
  | "unknown" -> Some Unknown
  | _ -> None

type t =
  | Campaign_start of { target : string; iterations : int; seed : int; nprocs : int }
  | Compile of { target : string; funcs : int; conds : int; slots : int; time_s : float }
  | Campaign_end of {
      iterations_run : int;
      covered : int;
      reachable : int;
      bugs : int;
      wall_s : float;
    }
  | Iter_start of { iteration : int; nprocs : int; focus : int }
  | Iter_end of {
      iteration : int;
      covered : int;
      reachable : int;
      cs_size : int;
      faults : int;
      restarted : bool;
      exec_s : float;
      solve_s : float;
    }
  | Solver_call of {
      incremental : bool;
      outcome : solver_outcome;
      nodes : int;
      vars : int;
      constraints : int;
      time_s : float;
    }
  | Negation of { iteration : int; index : int; sat : bool }
  | Restart of { iteration : int; reason : string }
  | Sched_deadlock of { ranks : int list }
  | Fault of { iteration : int; rank : int; kind : string; detail : string }
  | Coverage_delta of { iteration : int; covered_before : int; covered_after : int }
  | Worker_spawn of { worker : int }
  | Worker_task of { worker : int; task : int; time_s : float }
  | Worker_exit of { worker : int; tasks : int }
  | Cache_lookup of { hit : bool; constraints : int; entries : int }
  | Cache_evict of { dropped : int; entries : int }
  | Checkpoint_write of { iteration : int; path : string; bytes : int }
  | Checkpoint_load of { iteration : int; path : string }
  | Lineage_test of {
      test : int;
      parent : int;
      origin : string;
      branch : int;
      index : int;
      cached : bool;
    }
  | Lineage_negation of {
      parent : int;
      index : int;
      branch : int;
      outcome : solver_outcome;
      cached : bool;
    }
  | Mpi_summary of {
      nprocs : int;
      sends : int list;
      recvs : int list;
      colls : int list;
      blocked : int list;
      matrix : int list;
      collectives : (int * string * int) list;
    }
  | Deadlock_witness of { rank : int; comm : int; kind : string; peer : int }
  | Schedule_choice of {
      rank : int;
      comm : int;
      tag : int;
      chosen : int;
      alts : int list;
      point : int;
    }
  | Schedule_enum of { parent : int; points : int; emitted : int; pruned : int }
  | Span of { domain : int; kind : string; t0 : int; t1 : int }
  | Status_snapshot of {
      rounds : int;
      executed : int;
      covered : int;
      reachable : int;
      bugs : int;
      queue : int;
      path : string;
    }
  | Ledger_append of { path : string; run : string; covered : int; reachable : int; bugs : int }

let kind_name = function
  | Campaign_start _ -> "campaign_start"
  | Compile _ -> "compile"
  | Campaign_end _ -> "campaign_end"
  | Iter_start _ -> "iter_start"
  | Iter_end _ -> "iter_end"
  | Solver_call _ -> "solver_call"
  | Negation _ -> "negation"
  | Restart _ -> "restart"
  | Sched_deadlock _ -> "sched_deadlock"
  | Fault _ -> "fault"
  | Coverage_delta _ -> "coverage_delta"
  | Worker_spawn _ -> "worker_spawn"
  | Worker_task _ -> "worker_task"
  | Worker_exit _ -> "worker_exit"
  | Cache_lookup _ -> "cache_lookup"
  | Cache_evict _ -> "cache_evict"
  | Checkpoint_write _ -> "checkpoint_write"
  | Checkpoint_load _ -> "checkpoint_load"
  | Lineage_test _ -> "lineage_test"
  | Lineage_negation _ -> "lineage_negation"
  | Mpi_summary _ -> "mpi_summary"
  | Deadlock_witness _ -> "deadlock_witness"
  | Schedule_choice _ -> "schedule_choice"
  | Schedule_enum _ -> "schedule_enum"
  | Span _ -> "span"
  | Status_snapshot _ -> "status_snapshot"
  | Ledger_append _ -> "ledger_append"

let fields = function
  | Campaign_start { target; iterations; seed; nprocs } ->
    [
      ("target", Json.Str target);
      ("iterations", Json.Int iterations);
      ("seed", Json.Int seed);
      ("nprocs", Json.Int nprocs);
    ]
  | Compile { target; funcs; conds; slots; time_s } ->
    [
      ("target", Json.Str target);
      ("funcs", Json.Int funcs);
      ("conds", Json.Int conds);
      ("slots", Json.Int slots);
      ("time_s", Json.Float time_s);
    ]
  | Campaign_end { iterations_run; covered; reachable; bugs; wall_s } ->
    [
      ("iterations_run", Json.Int iterations_run);
      ("covered", Json.Int covered);
      ("reachable", Json.Int reachable);
      ("bugs", Json.Int bugs);
      ("wall_s", Json.Float wall_s);
    ]
  | Iter_start { iteration; nprocs; focus } ->
    [
      ("iteration", Json.Int iteration);
      ("nprocs", Json.Int nprocs);
      ("focus", Json.Int focus);
    ]
  | Iter_end { iteration; covered; reachable; cs_size; faults; restarted; exec_s; solve_s }
    ->
    [
      ("iteration", Json.Int iteration);
      ("covered", Json.Int covered);
      ("reachable", Json.Int reachable);
      ("cs_size", Json.Int cs_size);
      ("faults", Json.Int faults);
      ("restarted", Json.Bool restarted);
      ("exec_s", Json.Float exec_s);
      ("solve_s", Json.Float solve_s);
    ]
  | Solver_call { incremental; outcome; nodes; vars; constraints; time_s } ->
    [
      ("incremental", Json.Bool incremental);
      ("outcome", Json.Str (outcome_name outcome));
      ("nodes", Json.Int nodes);
      ("vars", Json.Int vars);
      ("constraints", Json.Int constraints);
      ("time_s", Json.Float time_s);
    ]
  | Negation { iteration; index; sat } ->
    [ ("iteration", Json.Int iteration); ("index", Json.Int index); ("sat", Json.Bool sat) ]
  | Restart { iteration; reason } ->
    [ ("iteration", Json.Int iteration); ("reason", Json.Str reason) ]
  | Sched_deadlock { ranks } ->
    [ ("ranks", Json.List (List.map (fun r -> Json.Int r) ranks)) ]
  | Fault { iteration; rank; kind; detail } ->
    [
      ("iteration", Json.Int iteration);
      ("rank", Json.Int rank);
      ("kind", Json.Str kind);
      ("detail", Json.Str detail);
    ]
  | Coverage_delta { iteration; covered_before; covered_after } ->
    [
      ("iteration", Json.Int iteration);
      ("covered_before", Json.Int covered_before);
      ("covered_after", Json.Int covered_after);
    ]
  | Worker_spawn { worker } -> [ ("worker", Json.Int worker) ]
  | Worker_task { worker; task; time_s } ->
    [
      ("worker", Json.Int worker);
      ("task", Json.Int task);
      ("time_s", Json.Float time_s);
    ]
  | Worker_exit { worker; tasks } ->
    [ ("worker", Json.Int worker); ("tasks", Json.Int tasks) ]
  | Cache_lookup { hit; constraints; entries } ->
    [
      ("hit", Json.Bool hit);
      ("constraints", Json.Int constraints);
      ("entries", Json.Int entries);
    ]
  | Cache_evict { dropped; entries } ->
    [ ("dropped", Json.Int dropped); ("entries", Json.Int entries) ]
  | Checkpoint_write { iteration; path; bytes } ->
    [
      ("iteration", Json.Int iteration);
      ("path", Json.Str path);
      ("bytes", Json.Int bytes);
    ]
  | Checkpoint_load { iteration; path } ->
    [ ("iteration", Json.Int iteration); ("path", Json.Str path) ]
  | Lineage_test { test; parent; origin; branch; index; cached } ->
    [
      ("test", Json.Int test);
      ("parent", Json.Int parent);
      ("origin", Json.Str origin);
      ("branch", Json.Int branch);
      ("index", Json.Int index);
      ("cached", Json.Bool cached);
    ]
  | Lineage_negation { parent; index; branch; outcome; cached } ->
    [
      ("parent", Json.Int parent);
      ("index", Json.Int index);
      ("branch", Json.Int branch);
      ("outcome", Json.Str (outcome_name outcome));
      ("cached", Json.Bool cached);
    ]
  | Mpi_summary { nprocs; sends; recvs; colls; blocked; matrix; collectives } ->
    let ints xs = Json.List (List.map (fun n -> Json.Int n) xs) in
    [
      ("nprocs", Json.Int nprocs);
      ("sends", ints sends);
      ("recvs", ints recvs);
      ("colls", ints colls);
      ("blocked", ints blocked);
      ("matrix", ints matrix);
      ("coll_comms", ints (List.map (fun (c, _, _) -> c) collectives));
      ("coll_sigs", Json.List (List.map (fun (_, s, _) -> Json.Str s) collectives));
      ("coll_counts", ints (List.map (fun (_, _, n) -> n) collectives));
    ]
  | Deadlock_witness { rank; comm; kind; peer } ->
    [
      ("rank", Json.Int rank);
      ("comm", Json.Int comm);
      ("kind", Json.Str kind);
      ("peer", Json.Int peer);
    ]
  | Schedule_choice { rank; comm; tag; chosen; alts; point } ->
    [
      ("rank", Json.Int rank);
      ("comm", Json.Int comm);
      ("tag", Json.Int tag);
      ("chosen", Json.Int chosen);
      ("alts", Json.List (List.map (fun r -> Json.Int r) alts));
      ("point", Json.Int point);
    ]
  | Schedule_enum { parent; points; emitted; pruned } ->
    [
      ("parent", Json.Int parent);
      ("points", Json.Int points);
      ("emitted", Json.Int emitted);
      ("pruned", Json.Int pruned);
    ]
  | Span { domain; kind; t0; t1 } ->
    [
      ("domain", Json.Int domain);
      ("kind", Json.Str kind);
      ("t0", Json.Int t0);
      ("t1", Json.Int t1);
    ]
  | Status_snapshot { rounds; executed; covered; reachable; bugs; queue; path } ->
    [
      ("rounds", Json.Int rounds);
      ("executed", Json.Int executed);
      ("covered", Json.Int covered);
      ("reachable", Json.Int reachable);
      ("bugs", Json.Int bugs);
      ("queue", Json.Int queue);
      ("path", Json.Str path);
    ]
  | Ledger_append { path; run; covered; reachable; bugs } ->
    [
      ("path", Json.Str path);
      ("run", Json.Str run);
      ("covered", Json.Int covered);
      ("reachable", Json.Int reachable);
      ("bugs", Json.Int bugs);
    ]

let to_json ?t ev =
  let time_field = match t with Some x -> [ ("t", Json.Float x) ] | None -> [] in
  Json.Obj ((("ev", Json.Str (kind_name ev)) :: time_field) @ fields ev)

(* Field accessors that fail with a descriptive message: of_json is used
   by `compi-cli replay` on user-supplied files. *)
let of_json j =
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %s" name)
  in
  let int name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "missing int field %s" name)
  in
  let flt name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "missing float field %s" name)
  in
  let bool name =
    match Option.bind (Json.member name j) Json.to_bool with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "missing bool field %s" name)
  in
  let list name elt =
    match Option.bind (Json.member name j) Json.to_list with
    | None -> Error (Printf.sprintf "missing list field %s" name)
    | Some xs ->
      let ys = List.filter_map elt xs in
      if List.length ys = List.length xs then Ok ys
      else Error (Printf.sprintf "ill-typed element in %s" name)
  in
  let ( let* ) = Result.bind in
  let* ev = str "ev" in
  match ev with
  | "campaign_start" ->
    let* target = str "target" in
    let* iterations = int "iterations" in
    let* seed = int "seed" in
    let* nprocs = int "nprocs" in
    Ok (Campaign_start { target; iterations; seed; nprocs })
  | "compile" ->
    let* target = str "target" in
    let* funcs = int "funcs" in
    let* conds = int "conds" in
    let* slots = int "slots" in
    let* time_s = flt "time_s" in
    Ok (Compile { target; funcs; conds; slots; time_s })
  | "campaign_end" ->
    let* iterations_run = int "iterations_run" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* bugs = int "bugs" in
    let* wall_s = flt "wall_s" in
    Ok (Campaign_end { iterations_run; covered; reachable; bugs; wall_s })
  | "iter_start" ->
    let* iteration = int "iteration" in
    let* nprocs = int "nprocs" in
    let* focus = int "focus" in
    Ok (Iter_start { iteration; nprocs; focus })
  | "iter_end" ->
    let* iteration = int "iteration" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* cs_size = int "cs_size" in
    let* faults = int "faults" in
    let* restarted = bool "restarted" in
    let* exec_s = flt "exec_s" in
    let* solve_s = flt "solve_s" in
    Ok (Iter_end { iteration; covered; reachable; cs_size; faults; restarted; exec_s; solve_s })
  | "solver_call" ->
    let* incremental = bool "incremental" in
    let* outcome_s = str "outcome" in
    let* outcome =
      match outcome_of_name outcome_s with
      | Some o -> Ok o
      | None -> Error (Printf.sprintf "bad solver outcome %s" outcome_s)
    in
    let* nodes = int "nodes" in
    let* vars = int "vars" in
    let* constraints = int "constraints" in
    let* time_s = flt "time_s" in
    Ok (Solver_call { incremental; outcome; nodes; vars; constraints; time_s })
  | "negation" ->
    let* iteration = int "iteration" in
    let* index = int "index" in
    let* sat = bool "sat" in
    Ok (Negation { iteration; index; sat })
  | "restart" ->
    let* iteration = int "iteration" in
    let* reason = str "reason" in
    Ok (Restart { iteration; reason })
  | "sched_deadlock" ->
    let* ranks = list "ranks" Json.to_int in
    Ok (Sched_deadlock { ranks })
  | "fault" ->
    let* iteration = int "iteration" in
    let* rank = int "rank" in
    let* kind = str "kind" in
    let* detail = str "detail" in
    Ok (Fault { iteration; rank; kind; detail })
  | "coverage_delta" ->
    let* iteration = int "iteration" in
    let* covered_before = int "covered_before" in
    let* covered_after = int "covered_after" in
    Ok (Coverage_delta { iteration; covered_before; covered_after })
  | "worker_spawn" ->
    let* worker = int "worker" in
    Ok (Worker_spawn { worker })
  | "worker_task" ->
    let* worker = int "worker" in
    let* task = int "task" in
    let* time_s = flt "time_s" in
    Ok (Worker_task { worker; task; time_s })
  | "worker_exit" ->
    let* worker = int "worker" in
    let* tasks = int "tasks" in
    Ok (Worker_exit { worker; tasks })
  | "cache_lookup" ->
    let* hit = bool "hit" in
    let* constraints = int "constraints" in
    let* entries = int "entries" in
    Ok (Cache_lookup { hit; constraints; entries })
  | "cache_evict" ->
    let* dropped = int "dropped" in
    let* entries = int "entries" in
    Ok (Cache_evict { dropped; entries })
  | "checkpoint_write" ->
    let* iteration = int "iteration" in
    let* path = str "path" in
    let* bytes = int "bytes" in
    Ok (Checkpoint_write { iteration; path; bytes })
  | "checkpoint_load" ->
    let* iteration = int "iteration" in
    let* path = str "path" in
    Ok (Checkpoint_load { iteration; path })
  | "lineage_test" ->
    let* test = int "test" in
    let* parent = int "parent" in
    let* origin = str "origin" in
    let* branch = int "branch" in
    let* index = int "index" in
    let* cached = bool "cached" in
    Ok (Lineage_test { test; parent; origin; branch; index; cached })
  | "lineage_negation" ->
    let* parent = int "parent" in
    let* index = int "index" in
    let* branch = int "branch" in
    let* outcome_s = str "outcome" in
    let* outcome =
      match outcome_of_name outcome_s with
      | Some o -> Ok o
      | None -> Error (Printf.sprintf "bad solver outcome %s" outcome_s)
    in
    let* cached = bool "cached" in
    Ok (Lineage_negation { parent; index; branch; outcome; cached })
  | "mpi_summary" ->
    let* nprocs = int "nprocs" in
    let* sends = list "sends" Json.to_int in
    let* recvs = list "recvs" Json.to_int in
    let* colls = list "colls" Json.to_int in
    let* blocked = list "blocked" Json.to_int in
    let* matrix = list "matrix" Json.to_int in
    let* comms = list "coll_comms" Json.to_int in
    let* sigs = list "coll_sigs" Json.to_str in
    let* counts = list "coll_counts" Json.to_int in
    let sized name n xs =
      if List.length xs = n then Ok ()
      else Error (Printf.sprintf "%s has %d entries, expected %d" name (List.length xs) n)
    in
    let* () = if nprocs >= 0 then Ok () else Error "negative nprocs" in
    let* () = sized "sends" nprocs sends in
    let* () = sized "recvs" nprocs recvs in
    let* () = sized "colls" nprocs colls in
    let* () = sized "blocked" nprocs blocked in
    let* () = sized "matrix" (nprocs * nprocs) matrix in
    let* () = sized "coll_sigs" (List.length comms) sigs in
    let* () = sized "coll_counts" (List.length comms) counts in
    if List.exists (fun n -> n < 0) (List.concat [ sends; recvs; colls; blocked; matrix; counts ])
    then Error "negative count in mpi_summary"
    else
      let collectives = List.map2 (fun (c, s) n -> (c, s, n)) (List.combine comms sigs) counts in
      Ok (Mpi_summary { nprocs; sends; recvs; colls; blocked; matrix; collectives })
  | "deadlock_witness" ->
    let* rank = int "rank" in
    let* comm = int "comm" in
    let* kind = str "kind" in
    let* peer = int "peer" in
    Ok (Deadlock_witness { rank; comm; kind; peer })
  | "schedule_choice" ->
    let* rank = int "rank" in
    let* comm = int "comm" in
    let* tag = int "tag" in
    let* chosen = int "chosen" in
    let* alts = list "alts" Json.to_int in
    let* point = int "point" in
    Ok (Schedule_choice { rank; comm; tag; chosen; alts; point })
  | "schedule_enum" ->
    let* parent = int "parent" in
    let* points = int "points" in
    let* emitted = int "emitted" in
    let* pruned = int "pruned" in
    Ok (Schedule_enum { parent; points; emitted; pruned })
  | "span" ->
    let* domain = int "domain" in
    let* kind = str "kind" in
    let* t0 = int "t0" in
    let* t1 = int "t1" in
    Ok (Span { domain; kind; t0; t1 })
  | "status_snapshot" ->
    let* rounds = int "rounds" in
    let* executed = int "executed" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* bugs = int "bugs" in
    let* queue = int "queue" in
    let* path = str "path" in
    Ok (Status_snapshot { rounds; executed; covered; reachable; bugs; queue; path })
  | "ledger_append" ->
    let* path = str "path" in
    let* run = str "run" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* bugs = int "bugs" in
    Ok (Ledger_append { path; run; covered; reachable; bugs })
  | other -> Error (Printf.sprintf "unknown event kind %s" other)
