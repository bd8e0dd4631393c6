type solver_outcome = Sat | Unsat | Unknown

let outcome_name = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let outcome_of_name = function
  | "sat" -> Some Sat
  | "unsat" -> Some Unsat
  | "unknown" -> Some Unknown
  | _ -> None

type test = {
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
  | Test of test
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

(* [t] in fixed point with exactly six decimals, rounded to the nearest
   microsecond (the resolution of [Unix.gettimeofday]), in integer
   arithmetic; beyond 10^12 s the microsecond count leaves the exact
   range, and [%.6f] writes the same form. *)
let add_seconds b t =
  if not (Float.is_finite t) then Buffer.add_string b "null"
  else if Float.abs t >= 1e12 then Printf.bprintf b "%.6f" t
  else begin
    let us = Float.to_int (Float.round (t *. 1e6)) in
    if us < 0 then Buffer.add_char b '-';
    let us = abs us in
    Json.add_int b (us / 1_000_000);
    Buffer.add_char b '.';
    let frac = us mod 1_000_000 in
    let p = ref 100_000 in
    while !p > 0 do
      Buffer.add_char b (Char.unsafe_chr (48 + (frac / !p mod 10)));
      p := !p / 10
    done
  end

(* One writer per field type; [name] is a constant needing no escape. *)
let key b name =
  Buffer.add_string b ",\"";
  Buffer.add_string b name;
  Buffer.add_string b "\":"

let int b name v = key b name; Json.add_int b v
let str b name v = key b name; Json.add_string b v
let flt b name v = key b name; Json.add_float b v
let ints b name vs = key b name; Json.add_list b Json.add_int vs

let bool b name v =
  key b name;
  Buffer.add_string b (if v then "true" else "false")

let write ?t b ev =
  Buffer.add_string b "{\"ev\":\"";
  Buffer.add_string b (kind_name ev);
  Buffer.add_char b '"';
  Option.iter (fun t -> key b "t"; add_seconds b t) t;
  (match ev with
  | Campaign_start { target; iterations; seed; nprocs; solver_cache } ->
    str b "target" target;
    int b "iterations" iterations;
    int b "seed" seed;
    int b "nprocs" nprocs;
    bool b "solver_cache" solver_cache
  | Compile { target; funcs; conds; slots; time_s } ->
    str b "target" target;
    int b "funcs" funcs;
    int b "conds" conds;
    int b "slots" slots;
    flt b "time_s" time_s
  | Campaign_end { iterations_run; covered; reachable; bugs; wall_s } ->
    int b "iterations_run" iterations_run;
    int b "covered" covered;
    int b "reachable" reachable;
    int b "bugs" bugs;
    flt b "wall_s" wall_s
  | Test r ->
    int b "test" r.test;
    int b "parent" r.parent;
    str b "origin" r.origin;
    int b "branch" r.branch;
    int b "index" r.index;
    bool b "cached" r.cached;
    int b "nprocs" r.nprocs;
    int b "focus" r.focus;
    int b "covered" r.covered;
    int b "reachable" r.reachable;
    int b "cs_size" r.cs_size;
    int b "faults" r.faults;
    bool b "restarted" r.restarted;
    flt b "exec_s" r.exec_s;
    flt b "solve_s" r.solve_s
  | Restart { iteration; reason } ->
    int b "iteration" iteration;
    str b "reason" reason
  | Sched_deadlock { ranks } -> ints b "ranks" ranks
  | Fault { iteration; rank; kind; detail } ->
    int b "iteration" iteration;
    int b "rank" rank;
    str b "kind" kind;
    str b "detail" detail
  | Cache_evict { dropped; entries } ->
    int b "dropped" dropped;
    int b "entries" entries
  | Checkpoint_write { iteration; path; bytes } ->
    int b "iteration" iteration;
    str b "path" path;
    int b "bytes" bytes
  | Checkpoint_load { iteration; path } ->
    int b "iteration" iteration;
    str b "path" path
  | Lineage_negation { parent; index; branch; outcome; cached } ->
    int b "parent" parent;
    int b "index" index;
    int b "branch" branch;
    str b "outcome" (outcome_name outcome);
    bool b "cached" cached
  | Mpi_summary { nprocs; sends; recvs; colls; blocked; matrix; collectives } ->
    int b "nprocs" nprocs;
    ints b "sends" sends;
    ints b "recvs" recvs;
    ints b "colls" colls;
    ints b "blocked" blocked;
    ints b "matrix" matrix;
    key b "coll_comms";
    Json.add_list b (fun b (c, _, _) -> Json.add_int b c) collectives;
    key b "coll_sigs";
    Json.add_list b (fun b (_, s, _) -> Json.add_string b s) collectives;
    key b "coll_counts";
    Json.add_list b (fun b (_, _, n) -> Json.add_int b n) collectives
  | Deadlock_witness { rank; comm; kind; peer } ->
    int b "rank" rank;
    int b "comm" comm;
    str b "kind" kind;
    int b "peer" peer
  | Schedule_choice { rank; comm; tag; chosen; alts; point } ->
    int b "rank" rank;
    int b "comm" comm;
    int b "tag" tag;
    int b "chosen" chosen;
    ints b "alts" alts;
    int b "point" point
  | Schedule_enum { parent; points; emitted; pruned } ->
    int b "parent" parent;
    int b "points" points;
    int b "emitted" emitted;
    int b "pruned" pruned
  | Span { domain; kind; t0; t1 } ->
    int b "domain" domain;
    str b "kind" kind;
    int b "t0" t0;
    int b "t1" t1
  | Span_summary { rows } ->
    let row b (d, k, c, ns) =
      Buffer.add_char b '[';
      Json.add_int b d;
      Buffer.add_char b ',';
      Json.add_string b k;
      Buffer.add_char b ',';
      Json.add_int b c;
      Buffer.add_char b ',';
      Json.add_int b ns;
      Buffer.add_char b ']'
    in
    key b "rows";
    Json.add_list b row rows
  | Ledger_append { path; run; covered; reachable; bugs } ->
    str b "path" path;
    str b "run" run;
    int b "covered" covered;
    int b "reachable" reachable;
    int b "bugs" bugs);
  Buffer.add_char b '}'

let to_line ?t ev =
  let b = Buffer.create 128 in
  write ?t b ev;
  Buffer.contents b

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
