type solver_outcome = Sat | Unsat | Unknown

let outcome_name = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let outcome_of_name = function
  | "sat" -> Some Sat
  | "unsat" -> Some Unsat
  | "unknown" -> Some Unknown
  | _ -> None

type t =
  | Campaign_start of {
      target : string;
      iterations : int;
      seed : int;
      nprocs : int;
      solver_cache : bool;
    }
  | Compile of { target : string; funcs : int; conds : int; slots : int; time_s : float }
  | Campaign_end of {
      iterations_run : int;
      covered : int;
      reachable : int;
      bugs : int;
      wall_s : float;
    }
  | Test of {
      test : int;
      parent : int;
      origin : string;
      branch : int;
      index : int;
      cached : bool;
      nprocs : int;
      focus : int;
      covered : int;
      reachable : int;
      cs_size : int;
      faults : int;
      restarted : bool;
      exec_s : float;
      solve_s : float;
    }
  | Restart of { iteration : int; reason : string }
  | Sched_deadlock of { ranks : int list }
  | Fault of { iteration : int; rank : int; kind : string; detail : string }
  | Cache_evict of { dropped : int; entries : int }
  | Checkpoint_write of { iteration : int; path : string; bytes : int }
  | Checkpoint_load of { iteration : int; path : string }
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
  | Span_summary of { rows : (int * string * int * int) list }
  | Ledger_append of { path : string; run : string; covered : int; reachable : int; bugs : int }

let kind_name = function
  | Campaign_start _ -> "campaign_start"
  | Compile _ -> "compile"
  | Campaign_end _ -> "campaign_end"
  | Test _ -> "test"
  | Restart _ -> "restart"
  | Sched_deadlock _ -> "sched_deadlock"
  | Fault _ -> "fault"
  | Cache_evict _ -> "cache_evict"
  | Checkpoint_write _ -> "checkpoint_write"
  | Checkpoint_load _ -> "checkpoint_load"
  | Lineage_negation _ -> "lineage_negation"
  | Mpi_summary _ -> "mpi_summary"
  | Deadlock_witness _ -> "deadlock_witness"
  | Schedule_choice _ -> "schedule_choice"
  | Schedule_enum _ -> "schedule_enum"
  | Span _ -> "span"
  | Span_summary _ -> "span_summary"
  | Ledger_append _ -> "ledger_append"

let fields = function
  | Campaign_start { target; iterations; seed; nprocs; solver_cache } ->
    [
      ("target", Json.Str target);
      ("iterations", Json.Int iterations);
      ("seed", Json.Int seed);
      ("nprocs", Json.Int nprocs);
      ("solver_cache", Json.Bool solver_cache);
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
  | Test
      {
        test;
        parent;
        origin;
        branch;
        index;
        cached;
        nprocs;
        focus;
        covered;
        reachable;
        cs_size;
        faults;
        restarted;
        exec_s;
        solve_s;
      } ->
    [
      ("test", Json.Int test);
      ("parent", Json.Int parent);
      ("origin", Json.Str origin);
      ("branch", Json.Int branch);
      ("index", Json.Int index);
      ("cached", Json.Bool cached);
      ("nprocs", Json.Int nprocs);
      ("focus", Json.Int focus);
      ("covered", Json.Int covered);
      ("reachable", Json.Int reachable);
      ("cs_size", Json.Int cs_size);
      ("faults", Json.Int faults);
      ("restarted", Json.Bool restarted);
      ("exec_s", Json.Float exec_s);
      ("solve_s", Json.Float solve_s);
    ]
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
  | Span_summary { rows } ->
    let row (d, k, c, ns) = Json.List [ Json.Int d; Json.Str k; Json.Int c; Json.Int ns ] in
    [ ("rows", Json.List (List.map row rows)) ]
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

(* Field accessors that fail with a descriptive message: of_json reads
   user-supplied trace files. *)
let of_json j =
  let str n = Json.str_field n j and int n = Json.int_field n j in
  let flt n = Json.float_field n j and bool n = Json.bool_field n j in
  let list n elt = Json.list_field n elt j in
  let ( let* ) = Result.bind in
  let* ev = str "ev" in
  match ev with
  | "campaign_start" ->
    let* target = str "target" in
    let* iterations = int "iterations" in
    let* seed = int "seed" in
    let* nprocs = int "nprocs" in
    let* solver_cache = bool "solver_cache" in
    Ok (Campaign_start { target; iterations; seed; nprocs; solver_cache })
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
  | "test" ->
    let* test = int "test" in
    let* parent = int "parent" in
    let* origin = str "origin" in
    let* branch = int "branch" in
    let* index = int "index" in
    let* cached = bool "cached" in
    let* nprocs = int "nprocs" in
    let* focus = int "focus" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* cs_size = int "cs_size" in
    let* faults = int "faults" in
    let* restarted = bool "restarted" in
    let* exec_s = flt "exec_s" in
    let* solve_s = flt "solve_s" in
    Ok
      (Test
         {
           test;
           parent;
           origin;
           branch;
           index;
           cached;
           nprocs;
           focus;
           covered;
           reachable;
           cs_size;
           faults;
           restarted;
           exec_s;
           solve_s;
         })
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
  | "span_summary" ->
    let row = function
      | Json.List [ Json.Int d; Json.Str k; Json.Int c; Json.Int ns ] when c >= 0 && ns >= 0 ->
        Some (d, k, c, ns)
      | _ -> None
    in
    let* rows = list "rows" row in
    Ok (Span_summary { rows })
  | "ledger_append" ->
    let* path = str "path" in
    let* run = str "run" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* bugs = int "bugs" in
    Ok (Ledger_append { path; run; covered; reachable; bugs })
  | other -> Error (Printf.sprintf "unknown event kind %s" other)
