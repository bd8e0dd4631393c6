(* Crash-safe campaign snapshots.

   Layout of campaign.ckpt:

     COMPI-CKPT <version>\n
     <md5-hex-of-payload> <payload-length>\n
     <payload: Marshal of state>

   The payload is one Marshal call over the whole state record, which
   preserves physical sharing between the strategy's pending candidates
   and the work-list tail — Strategy.next_batch deduplicates by record
   identity, so losing that sharing would change the trajectory after a
   resume. Marshal rejects closures, which doubles as a guard against
   accidentally snapshotting something callback-bearing.

   Durability: write to a temp file in the same directory, then rename.
   POSIX rename is atomic within a filesystem, so a SIGKILL leaves
   either the old snapshot or the new one. The header digest catches the
   remaining failure modes (torn writes on non-POSIX filesystems,
   bit rot, hand-edited files): load never trusts a payload it cannot
   re-hash to the header's MD5. *)

type work =
  | W_fresh of Driver.pending
  | W_negate of Concolic.Strategy.candidate

type state = {
  fingerprint : (string * string) list;
  mutable iter : int;
  mutable rounds : int;
  mutable speculated : int;
  fold : Obs.Fold.state;
  mutable max_cs : int;
  mutable last_improvement : int;
  mutable barren : int;
  mutable last_np : int * int;
  mutable derived_bound : int option;
  rng : Random.State.t;
  mutable strategy : Concolic.Strategy.t;
  coverage : Concolic.Coverage.t;
  cache : Smt.Cache.t option;
  mutable bugs : Driver.bug list;
  mutable forced : Driver.pending list;
  mutable stagnated_round : bool;
  mutable schedules : Driver.pending list;
  mutable work : work list;
}

(* version 2: [Driver.pending] gained [p_origin] and [Execution.t]
   gained [exec_id] — v1 snapshots marshal a different layout.
   version 3: [Smt.Cache.t] became a sharded table (array of shard
   records instead of one table/queue pair), so [ck_cache] marshals a
   different layout than v2.
   version 4: schedule-space exploration — [Driver.pending] gained
   [p_schedule], [Execution.t] gained [exec_schedule], and the snapshot
   gained [ck_schedules] (enumerated-but-unexecuted schedule forks).
   version 5: [Execution.t] gained [closure_index], the per-run
   constraint index negations are prepared from.
   version 6: [Concolic.Coverage.t] became a byte map indexed by branch
   id plus a count, so [ck_coverage] marshals a different layout than
   v5's balanced set.
   version 7: the snapshot gained [ck_cache_hits], the merged cache
   hits behind the campaign's cache accounting.
   version 8: [ck_fold], the fold of the campaign's own events that its
   result, status file and ledger read, replaced [ck_solver_calls] and
   [ck_cache_hits].
   version 9: [Obs.Fold.state] gained the [span_summary] rows, so
   [ck_fold] marshals a different layout than v8's.
   version 10: the snapshot became the campaign's own state record —
   [ck_executed], [ck_best_covered] and [ck_stats] went, the fold keeps
   each [test] event whole, and [Smt.Cache.t] became one table and one
   queue again.
   version 11: the closure index stores each distinct constraint's flat
   integer form (and its hash and the variables' domains) in place of
   per-slot hashes and variable arrays, a cache key is those forms'
   offsets and the domains as ints instead of a constraint list, and
   [Concolic.Coverage.t] counts its functions. *)
let version = 11

(* MD5 of the marshalled probe state that test/test_checkpoint.ml
   builds from fixed values, recorded with the version it belongs to.
   The test fails when the digest moves: a change to the marshalled
   layout of [state] (any field, constructor or nested type) must bump
   [version] and record the new digest here. *)
let layout_digest = (11, "4461185533114b8785510506ede296d3")
let magic = "COMPI-CKPT"
let file ~dir = Filename.concat dir "campaign.ckpt"
let corpus_file ~dir = Filename.concat dir "corpus.txt"

type error =
  | No_checkpoint of string
  | Bad_magic of string
  | Version_mismatch of { found : int; expected : int }
  | Truncated of { expected : int; actual : int }
  | Checksum_mismatch
  | Corrupt of string
  | Settings_mismatch of (string * string * string) list

exception Load_error of error

let error_to_string = function
  | No_checkpoint dir -> Printf.sprintf "no checkpoint found under %s" dir
  | Bad_magic head ->
    Printf.sprintf "not a COMPI checkpoint (file starts with %S)" head
  | Version_mismatch { found; expected } ->
    Printf.sprintf
      "checkpoint format version %d, this build reads version %d — re-run the \
       original campaign to produce a fresh checkpoint"
      found expected
  | Truncated { expected; actual } ->
    Printf.sprintf "checkpoint truncated: header declares %d payload bytes, found %d"
      expected actual
  | Checksum_mismatch -> "checkpoint payload does not match its checksum"
  | Corrupt detail -> Printf.sprintf "checkpoint unreadable: %s" detail
  | Settings_mismatch ms ->
    "checkpoint was written under different settings:"
    ^ String.concat ""
        (List.map
           (fun (key, stored, current) ->
             Printf.sprintf "\n  %s: checkpoint has %s, this run has %s" key stored
               current)
           ms)

(* --- settings fingerprint ------------------------------------------ *)

let fingerprint ~label ~batch ~solver_cache ~cache_capacity (s : Driver.settings) =
  let b = string_of_bool in
  let i = string_of_int in
  let opt_i = function Some n -> string_of_int n | None -> "none" in
  [
    ("target", label);
    ("seed", i s.Driver.seed);
    ("strategy", Driver.strategy_choice_name s.Driver.strategy);
    ("dfs_phase_iters", i s.Driver.dfs_phase_iters);
    ("depth_bound", opt_i s.Driver.depth_bound);
    ("initial_nprocs", i s.Driver.initial_nprocs);
    ("initial_focus", i s.Driver.initial_focus);
    ("nprocs_cap", i s.Driver.nprocs_cap);
    ("reduce", b s.Driver.reduce);
    ("two_way", b s.Driver.two_way);
    ("framework", b s.Driver.framework);
    ("step_limit", i s.Driver.step_limit);
    ( "cap_overrides",
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.Driver.cap_overrides) );
    ("max_procs", i s.Driver.max_procs);
    ("solver_budget", i s.Driver.solver_budget);
    ("max_solve_attempts", i s.Driver.max_solve_attempts);
    ("random_lo", i s.Driver.random_lo);
    ("random_hi", i s.Driver.random_hi);
    ("stagnation_restart", opt_i s.Driver.stagnation_restart);
    ("resolve_conflicts", b s.Driver.resolve_conflicts);
    ("batch", i batch);
    ("solver_cache", b solver_cache);
    ("cache_capacity", i cache_capacity);
    ("schedules", b s.Driver.schedules);
    ("schedule_depth", i s.Driver.schedule_depth);
  ]

let mismatches ~stored ~current =
  let absent = "<absent>" in
  let value k l = Option.value (List.assoc_opt k l) ~default:absent in
  let keys =
    List.sort_uniq String.compare (List.map fst stored @ List.map fst current)
  in
  List.filter_map
    (fun k ->
      let s = value k stored and c = value k current in
      if s = c then None else Some (k, s, c))
    keys

(* --- write --------------------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Commit [content] at [path] via a same-directory temp file + rename. *)
let write_atomic ~path content =
  let tmp =
    Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save ~dir ~target state =
  mkdir_p dir;
  let payload = Marshal.to_string state [] in
  let header =
    Printf.sprintf "%s %d\n%s %d\n" magic version
      (Digest.to_hex (Digest.string payload))
      (String.length payload)
  in
  write_atomic ~path:(file ~dir) (header ^ payload);
  let corpus =
    let buf = Buffer.create 256 in
    List.iteri
      (fun k bug ->
        if k > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (Testcase.to_string (Testcase.of_bug ~target bug)))
      (List.rev state.bugs);
    Buffer.contents buf
  in
  write_atomic ~path:(corpus_file ~dir) corpus;
  String.length payload

(* --- read ---------------------------------------------------------- *)

let load ~dir =
  let path = file ~dir in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Error (No_checkpoint dir)
  | raw -> (
    let line_end from =
      match String.index_from_opt raw from '\n' with
      | Some k -> Ok k
      | None ->
        (* no complete header: junk, or a file cut before the payload *)
        if String.length raw >= String.length magic
           && String.sub raw 0 (String.length magic) = magic
        then Error (Corrupt "incomplete header")
        else Error (Bad_magic (String.sub raw 0 (min 16 (String.length raw))))
    in
    let ( let* ) = Result.bind in
    let* e1 = line_end 0 in
    let l1 = String.sub raw 0 e1 in
    let* found_version =
      match String.split_on_char ' ' l1 with
      | [ m; v ] when m = magic -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Corrupt (Printf.sprintf "bad version field %S" v)))
      | _ -> Error (Bad_magic (String.sub l1 0 (min 16 (String.length l1))))
    in
    if found_version <> version then
      Error (Version_mismatch { found = found_version; expected = version })
    else
      let* e2 = line_end (e1 + 1) in
      let l2 = String.sub raw (e1 + 1) (e2 - e1 - 1) in
      let* digest, declared =
        match String.split_on_char ' ' l2 with
        | [ d; n ] -> (
          match int_of_string_opt n with
          | Some len when String.length d = 32 -> Ok (d, len)
          | Some _ | None -> Error (Corrupt (Printf.sprintf "bad digest line %S" l2)))
        | _ -> Error (Corrupt (Printf.sprintf "bad digest line %S" l2))
      in
      let actual = String.length raw - e2 - 1 in
      if actual <> declared then Error (Truncated { expected = declared; actual })
      else
        let payload = String.sub raw (e2 + 1) declared in
        if Digest.to_hex (Digest.string payload) <> digest then Error Checksum_mismatch
        else
          match (Marshal.from_string payload 0 : state) with
          | state -> Ok state
          | exception (Failure msg | Invalid_argument msg) -> Error (Corrupt msg))
