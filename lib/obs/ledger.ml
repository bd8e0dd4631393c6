(* Persistent run ledger: one versioned JSONL record appended per
   campaign, the longitudinal store behind `compi-cli history` and
   `compi-cli compare`. Forward-compat mirrors the trace: a record
   whose version this build does not know is skipped and counted, never
   an error. *)

let version = 1

type bug = { bug_test : int; bug_rank : int; bug_kind : string }

type record = {
  run : string;  (* "<target>#<seq>" assigned at append *)
  target : string;
  fingerprint : string;
  exec_mode : string;
  jobs : int;
  seed : int;
  budget : int;
  executed : int;
  rounds : int;
  covered : int;
  reachable : int;
  bugs : bug list;
  curve : (int * int) list;
  wall_s : float;
  solver_calls : int;
  cache_hits : int;
  cache_misses : int;
  schedule_forks : int;
}

(* FNV-1a over "k=v" lines: a stable, dependency-free digest of the
   settings fingerprint, identical across runs and builds for identical
   settings. *)
let digest kvs =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let feed s =
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
      s
  in
  List.iter
    (fun (k, v) ->
      feed k;
      feed "=";
      feed v;
      feed "\n")
    kvs;
  Printf.sprintf "%016Lx" !h

(* Coverage, bugs, the curve and the solver, cache and schedule counts
   come from the finished fold of the campaign's own events; the rest is
   settings and engine state only the campaign holds. *)
let of_fold ~target ~fingerprint ~exec_mode ~jobs ~seed ~budget ~executed ~rounds ~wall_s
    (f : Fold.t) =
  {
    run = "";
    target;
    fingerprint;
    exec_mode;
    jobs;
    seed;
    budget;
    executed;
    rounds;
    covered = Option.value f.Fold.final_covered ~default:0;
    reachable = Option.value f.Fold.final_reachable ~default:0;
    bugs =
      List.map (fun (bug_test, bug_rank, bug_kind, _) -> { bug_test; bug_rank; bug_kind })
        f.Fold.faults;
    curve = f.Fold.curve;
    wall_s;
    solver_calls = f.Fold.solver_calls;
    cache_hits = f.Fold.cache_hits;
    cache_misses = f.Fold.cache_misses;
    schedule_forks = f.Fold.schedule_emitted;
  }

let to_json r =
  Json.Obj
    [
      ("v", Json.Int version);
      ("run", Json.Str r.run);
      ("target", Json.Str r.target);
      ("fingerprint", Json.Str r.fingerprint);
      ("exec_mode", Json.Str r.exec_mode);
      ("jobs", Json.Int r.jobs);
      ("seed", Json.Int r.seed);
      ("budget", Json.Int r.budget);
      ("executed", Json.Int r.executed);
      ("rounds", Json.Int r.rounds);
      ("covered", Json.Int r.covered);
      ("reachable", Json.Int r.reachable);
      ( "bugs",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("test", Json.Int b.bug_test);
                   ("rank", Json.Int b.bug_rank);
                   ("kind", Json.Str b.bug_kind);
                 ])
             r.bugs) );
      ( "curve",
        Json.List
          (List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ]) r.curve) );
      ("wall_s", Json.Float r.wall_s);
      ("solver_calls", Json.Int r.solver_calls);
      ("cache_hits", Json.Int r.cache_hits);
      ("cache_misses", Json.Int r.cache_misses);
      ("schedule_forks", Json.Int r.schedule_forks);
    ]

let of_json j =
  let str n = Json.str_field n j and int n = Json.int_field n j in
  let flt n = Json.float_field n j in
  let ( let* ) = Result.bind in
  let* v = int "v" in
  if v > version then Error (Printf.sprintf "unknown ledger version %d" v)
  else
    let* run = str "run" in
    let* target = str "target" in
    let* fingerprint = str "fingerprint" in
    let* exec_mode = str "exec_mode" in
    let* jobs = int "jobs" in
    let* seed = int "seed" in
    let* budget = int "budget" in
    let* executed = int "executed" in
    let* rounds = int "rounds" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* wall_s = flt "wall_s" in
    let* solver_calls = int "solver_calls" in
    let* cache_hits = int "cache_hits" in
    let* cache_misses = int "cache_misses" in
    let* schedule_forks = int "schedule_forks" in
    let* bugs =
      Json.list_field "bugs"
        (fun b ->
          match (Json.int_field "test" b, Json.int_field "rank" b, Json.str_field "kind" b) with
          | Ok bug_test, Ok bug_rank, Ok bug_kind -> Some { bug_test; bug_rank; bug_kind }
          | _ -> None)
        j
    in
    let* curve =
      Json.list_field "curve"
        (fun p ->
          match Option.map (List.map Json.to_int) (Json.to_list p) with
          | Some [ Some i; Some c ] -> Some (i, c)
          | _ -> None)
        j
    in
    Ok
      {
        run;
        target;
        fingerprint;
        exec_mode;
        jobs;
        seed;
        budget;
        executed;
        rounds;
        covered;
        reachable;
        bugs;
        curve;
        wall_s;
        solver_calls;
        cache_hits;
        cache_misses;
        schedule_forks;
      }

type store = { records : record list; skipped : int; malformed : int }

let load path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
    let records = ref [] and skipped = ref 0 and malformed = ref 0 in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" then
          match Json.parse line with
          | Error _ -> incr malformed
          | Ok j -> (
            match of_json j with
            | Ok r -> records := r :: !records
            | Error e ->
              (* version triage mirrors the trace: records from a
                 newer producer are skips, bad fields are corruption *)
              if String.length e >= 22 && String.sub e 0 22 = "unknown ledger version"
              then incr skipped
              else incr malformed))
      lines;
    Ok { records = List.rev !records; skipped = !skipped; malformed = !malformed }

(* Appends assign the run id "<target>#<seq>" where seq counts every
   existing line (even ones this build cannot parse), so ids stay unique
   under mixed producers. Single open in append mode: concurrent
   campaigns interleave whole lines, never bytes, on POSIX O_APPEND. *)
let append path r =
  let seq =
    match In_channel.with_open_bin path In_channel.input_lines with
    | exception Sys_error _ -> 0
    | lines -> List.length (List.filter (fun l -> String.trim l <> "") lines)
  in
  let r = { r with run = Printf.sprintf "%s#%d" r.target seq } in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string (to_json r));
  output_char oc '\n';
  close_out oc;
  r

(* Run selector for `compare A B` / `history`: an integer is an index
   into the store (negative counts from the end, -1 = latest), anything
   else matches a run id exactly. *)
let find store sel =
  match int_of_string_opt sel with
  | Some i ->
    let n = List.length store.records in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then None else Some (List.nth store.records i)
  | None -> List.find_opt (fun r -> r.run = sel) store.records

type delta = {
  d_covered : int;
  d_reachable : int;
  d_bugs : int;
  d_executed : int;
  d_wall_s : float;
  d_solver_calls : int;
  d_hit_rate : float;
  same_settings : bool;
  regression : bool;
}

let hit_rate r =
  let probes = r.cache_hits + r.cache_misses in
  if probes = 0 then 0.0 else float_of_int r.cache_hits /. float_of_int probes

(* B relative to A. Only coverage gates ([regression]): bugs, wall
   time, solver calls and hit rate stay informational (the last three
   vary run to run on the same settings), so two identical-settings
   runs always compare as zero-delta/no-regression. *)
let diff ?(tolerance = 0) a b =
  {
    d_covered = b.covered - a.covered;
    d_reachable = b.reachable - a.reachable;
    d_bugs = List.length b.bugs - List.length a.bugs;
    d_executed = b.executed - a.executed;
    d_wall_s = b.wall_s -. a.wall_s;
    d_solver_calls = b.solver_calls - a.solver_calls;
    d_hit_rate = hit_rate b -. hit_rate a;
    same_settings = a.fingerprint = b.fingerprint;
    regression = b.covered - a.covered < -tolerance;
  }
