(* Tests for the telemetry layer: the JSON emitter/parser round-trip,
   the event vocabulary encoding, histogram bucketing edge cases, and
   the guarantee that telemetry (null sink, metrics) never perturbs a
   campaign's results. *)

(* ------------------------------------------------------------------ *)
(* Json: escaping and round-trips                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip j =
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "re-parse failed: %s on %s" e (Obs.Json.to_string j)

let test_json_escaping () =
  let check_str s =
    match roundtrip (Obs.Json.Str s) with
    | Obs.Json.Str s' -> Alcotest.(check string) "string round-trip" s s'
    | _ -> Alcotest.fail "not a string"
  in
  check_str "";
  check_str "plain";
  check_str "quote \" backslash \\ slash /";
  check_str "newline \n tab \t return \r";
  check_str "\x00\x01\x1f control bytes";
  check_str "utf-8 passthrough: \xc3\xa9\xe2\x86\x92";
  (* control characters must appear escaped on the wire *)
  let wire = Obs.Json.to_string (Obs.Json.Str "\x07") in
  Alcotest.(check string) "control char escaped" "\"\\u0007\"" wire;
  Alcotest.(check string) "newline escaped" "\"\\n\""
    (Obs.Json.to_string (Obs.Json.Str "\n"))

let test_json_floats () =
  let check_float x =
    match Obs.Json.to_float (roundtrip (Obs.Json.Float x)) with
    | Some x' ->
      Alcotest.(check bool) (Printf.sprintf "float %h round-trips" x) true (x = x')
    | None -> Alcotest.fail "not a number"
  in
  List.iter check_float
    [ 0.0; 1.0; -1.5; 0.1; 1e-9; 1.7976931348623157e308; 4.9e-324; 3.141592653589793 ];
  (* integer-valued floats must stay floats on the wire *)
  let wire = Obs.Json.to_string (Obs.Json.Float 2.0) in
  Alcotest.(check bool) "2.0 renders with a point" true (String.contains wire '.');
  Alcotest.(check string) "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_structures () =
  let doc =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int (-42));
        ("b", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null; Obs.Json.Str "x" ]);
        ("max", Obs.Json.Int max_int);
        ("min", Obs.Json.Int min_int);
        ("nested", Obs.Json.Obj [ ("empty", Obs.Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "structure round-trips" true (roundtrip doc = doc);
  (match Obs.Json.parse "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Obs.Json.parse " [1, 2.5, \"\\u0041\\n\", {}] " with
  | Ok (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Str "A\n"; Obs.Json.Obj [] ])
    -> ()
  | Ok j -> Alcotest.failf "unexpected parse: %s" (Obs.Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Event: every constructor encodes and decodes exactly                *)
(* ------------------------------------------------------------------ *)

let sample_events : Obs.Event.t list =
  [
    Campaign_start
      { target = "toy \"quoted\""; iterations = 200; seed = 42; nprocs = 4; solver_cache = false };
    Campaign_end
      { iterations_run = 200; covered = 17; reachable = 20; bugs = 1; wall_s = 0.125 };
    Compile { target = "toy"; funcs = 3; conds = 7; slots = 12; time_s = 0.0005 };
    Test
      {
        test = 12;
        parent = 7;
        origin = "negated";
        branch = 35;
        index = 4;
        cached = true;
        nprocs = 8;
        focus = 2;
        covered = 12;
        reachable = 20;
        cs_size = 9;
        faults = 0;
        restarted = true;
        exec_s = 0.01;
        solve_s = 0.002;
      };
    Test
      {
        test = 0;
        parent = -1;
        origin = "seed";
        branch = -1;
        index = -1;
        cached = false;
        nprocs = 1;
        focus = 0;
        covered = 2;
        reachable = 4;
        cs_size = 2;
        faults = 1;
        restarted = false;
        exec_s = 6.8e-05;
        solve_s = 0.0;
      };
    Lineage_negation
      { parent = 12; index = 4; branch = 35; outcome = Obs.Event.Sat; cached = true };
    Lineage_negation
      { parent = 0; index = 0; branch = 0; outcome = Obs.Event.Unsat; cached = true };
    Lineage_negation
      { parent = max_int; index = 1; branch = 1; outcome = Obs.Event.Unknown; cached = false };
    Restart { iteration = 50; reason = "stagnation" };
    Sched_deadlock { ranks = [ 0; 1; 3 ] };
    Fault { iteration = 9; rank = 2; kind = "assert"; detail = "x > 0\nline 3" };
    Lineage_negation
      { parent = 7; index = 5; branch = 40; outcome = Obs.Event.Sat; cached = false };
    Cache_evict { dropped = 3; entries = 4096 };
    Checkpoint_write { iteration = 60; path = "/tmp/ckpt/campaign.ckpt"; bytes = 8192 };
    Checkpoint_load { iteration = 60; path = "/tmp/ckpt/campaign.ckpt" };
    Lineage_negation
      { parent = 12; index = 9; branch = 18; outcome = Obs.Event.Unsat; cached = false };
    Mpi_summary
      {
        nprocs = 2;
        sends = [ 3; 0 ];
        recvs = [ 0; 2 ];
        colls = [ 1; 1 ];
        blocked = [ 0; 1 ];
        matrix = [ 0; 3; 0; 0 ];
        collectives = [ (0, "barrier", 1); (3, "allreduce:max", 0) ];
      };
    Mpi_summary
      { nprocs = 0; sends = []; recvs = []; colls = []; blocked = []; matrix = []; collectives = [] };
    Deadlock_witness { rank = 1; comm = 0; kind = "collective:barrier"; peer = 3 };
    Schedule_choice { rank = 0; comm = 0; tag = 3; chosen = 2; alts = [ 1; 2 ]; point = 0 };
    Schedule_enum { parent = 12; points = 2; emitted = 1; pruned = 1 };
    Span { domain = 1; kind = "cache.lock.wait"; t0 = 1_000; t1 = 2_500 };
    Span_summary { rows = [ (0, "exec", 3, 4_200); (1, "compiled", 12, 0) ] };
    Span_summary { rows = [] };
    Ledger_append
      { path = "/tmp/ledger.jsonl"; run = "toy#3"; covered = 30; reachable = 38; bugs = 1 };
  ]

let test_event_roundtrip () =
  (* every constructor appears in the sample set *)
  let kinds =
    List.sort_uniq String.compare (List.map Obs.Event.kind_name sample_events)
  in
  Alcotest.(check int) "all 18 event kinds sampled" 18 (List.length kinds);
  List.iter
    (fun ev ->
      let wire = Obs.Event.to_line ~t:1.25 ev in
      match Obs.Json.parse wire with
      | Error e -> Alcotest.failf "%s: unparseable wire %s (%s)" (Obs.Event.kind_name ev) wire e
      | Ok j -> (
        match Obs.Event.of_json j with
        | Ok ev' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" (Obs.Event.kind_name ev))
            true (ev = ev')
        | Error e -> Alcotest.failf "%s: decode failed: %s" (Obs.Event.kind_name ev) e))
    sample_events

let test_event_of_json_rejects () =
  let reject s =
    match Obs.Json.parse s with
    | Error _ -> ()
    | Ok j -> (
      match Obs.Event.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad event %s" s)
  in
  reject "{\"no_ev\": 1}";
  reject "{\"ev\": \"not_a_kind\"}";
  reject "{\"ev\": \"test\", \"test\": 1}";
  reject "{\"ev\": \"span_summary\", \"rows\": [[0, \"exec\", 1]]}";
  reject "{\"ev\": \"span_summary\", \"rows\": [[0, \"exec\", -1, 5]]}";
  reject "[1,2,3]"

(* Random summaries of any shape round-trip exactly through the wire
   format and the line triage. *)
let gen_summary =
  QCheck.Gen.(
    let count = int_bound 1_000_000 in
    let* nprocs = int_bound 9 in
    let per_rank = list_repeat nprocs count in
    let* sends = per_rank in
    let* recvs = per_rank in
    let* colls = per_rank in
    let* blocked = per_rank in
    let* matrix = list_repeat (nprocs * nprocs) count in
    let* collectives =
      list_size (int_bound 6)
        (triple (int_bound 20) (string_size ~gen:printable (int_bound 12)) count)
    in
    return (Obs.Event.Mpi_summary { nprocs; sends; recvs; colls; blocked; matrix; collectives }))

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"mpi_summary: wire round trip" ~count:300
    (QCheck.make gen_summary)
    (fun ev ->
      match Obs.Fold.classify_line (Obs.Event.to_line ~t:0.5 ev) with
      | `Event ev' -> ev = ev'
      | `Blank | `Unknown _ | `Malformed _ -> false)

(* Events of every kind with extreme ints, finite floats and strings of
   arbitrary bytes. Counts the decoder requires non-negative stay so. *)
let gen_event =
  QCheck.Gen.(
    let num = oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ] in
    let count = map (fun n -> n land max_int) num in
    let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
    let flt = oneof [ finite; oneofl [ 0.0; -0.0; 1e-7; 0.1 +. 0.2; 2.0; 5e-324; 1e300 ] ] in
    let text = string_size ~gen:char (int_bound 10) in
    let* ints = array_repeat 12 num in
    let* strs = array_repeat 2 text in
    let* floats = array_repeat 2 flt in
    let* bools = array_repeat 2 bool in
    let* ranks = list_size (int_bound 5) num in
    let* summary = gen_summary in
    let* rows = list_size (int_bound 4) (quad num text count count) in
    let* outcome = oneofl Obs.Event.[ Sat; Unsat; Unknown ] in
    let+ kind = int_bound 17 in
    let i k = ints.(k) and s k = strs.(k) and f k = floats.(k) and b k = bools.(k) in
    match kind with
    | 0 ->
      Obs.Event.Campaign_start
        { target = s 0; iterations = i 0; seed = i 1; nprocs = i 2; solver_cache = b 0 }
    | 1 -> Compile { target = s 0; funcs = i 0; conds = i 1; slots = i 2; time_s = f 0 }
    | 2 ->
      Campaign_end
        { iterations_run = i 0; covered = i 1; reachable = i 2; bugs = i 3; wall_s = f 0 }
    | 3 ->
      Test
        {
          test = i 0;
          parent = i 1;
          origin = s 0;
          branch = i 2;
          index = i 3;
          cached = b 0;
          nprocs = i 4;
          focus = i 5;
          covered = i 6;
          reachable = i 7;
          cs_size = i 8;
          faults = i 9;
          restarted = b 1;
          exec_s = f 0;
          solve_s = f 1;
        }
    | 4 -> Restart { iteration = i 0; reason = s 0 }
    | 5 -> Sched_deadlock { ranks }
    | 6 -> Fault { iteration = i 0; rank = i 1; kind = s 0; detail = s 1 }
    | 7 -> Cache_evict { dropped = i 0; entries = i 1 }
    | 8 -> Checkpoint_write { iteration = i 0; path = s 0; bytes = i 1 }
    | 9 -> Checkpoint_load { iteration = i 0; path = s 0 }
    | 10 -> Lineage_negation { parent = i 0; index = i 1; branch = i 2; outcome; cached = b 0 }
    | 11 -> summary
    | 12 -> Deadlock_witness { rank = i 0; comm = i 1; kind = s 0; peer = i 2 }
    | 13 ->
      Schedule_choice { rank = i 0; comm = i 1; tag = i 2; chosen = i 3; alts = ranks; point = i 4 }
    | 14 -> Schedule_enum { parent = i 0; points = i 1; emitted = i 2; pruned = i 3 }
    | 15 -> Span { domain = i 0; kind = s 0; t0 = i 1; t1 = i 2 }
    | 16 -> Span_summary { rows }
    | _ -> Ledger_append { path = s 0; run = s 1; covered = i 0; reachable = i 1; bugs = i 2 })

(* A line without [t] is in canonical form (re-rendering its parse gives
   the same bytes) and decodes to the event; with [t], the timestamp
   reads back within a microsecond. *)
let prop_event_line_canonical =
  QCheck.Test.make ~name:"event line: canonical form and round trip" ~count:1000
    (QCheck.make
       ~print:(fun (ev, t) -> Printf.sprintf "%s at %h" (Obs.Event.to_line ev) t)
       QCheck.Gen.(
         pair gen_event
           (oneof [ float_range (-1.0) 1e6; oneofl [ 0.0; -0.0; 0.0000005; 1.0000005; 1e13 ] ])))
    (fun (ev, t) ->
      let line = Obs.Event.to_line ev in
      let canonical, decoded =
        match Obs.Json.parse line with
        | Ok j -> (Obs.Json.to_string j = line, Obs.Event.of_json j = Ok ev)
        | Error _ -> (false, false)
      in
      let stamped =
        match Obs.Json.parse (Obs.Event.to_line ~t ev) with
        | Ok j -> (
          match Option.bind (Obs.Json.member "t" j) Obs.Json.to_float with
          | Some t' -> Float.abs (t' -. t) <= 1e-6 && Obs.Event.of_json j = Ok ev
          | None -> false)
        | Error _ -> false
      in
      canonical && decoded && stamped)

(* A summary line whose lists disagree in length with [nprocs] or with
   each other is corruption, not a newer producer. *)
let test_summary_length_mismatch () =
  let line ?(sends = "[1,0]") ?(matrix = "[0,1,0,0]") ?(coll_counts = "[1]") () =
    Printf.sprintf
      "{\"ev\":\"mpi_summary\",\"nprocs\":2,\"sends\":%s,\"recvs\":[0,1],\
       \"colls\":[0,0],\"blocked\":[0,0],\"matrix\":%s,\"coll_comms\":[0],\
       \"coll_sigs\":[\"barrier\"],\"coll_counts\":%s}"
      sends matrix coll_counts
  in
  (match Obs.Fold.classify_line (line ()) with
  | `Event (Obs.Event.Mpi_summary _) -> ()
  | _ -> Alcotest.fail "well-formed summary rejected");
  List.iter
    (fun (what, raw) ->
      match Obs.Fold.classify_line raw with
      | `Malformed _ -> ()
      | _ -> Alcotest.failf "%s: not classified malformed" what)
    [
      ("short per-rank list", line ~sends:"[1]" ());
      ("long matrix", line ~matrix:"[0,1,0,0,0]" ());
      ("collective lists disagree", line ~coll_counts:"[1,2]" ());
      ("negative count", line ~sends:"[-1,0]" ());
      ("ill-typed element", line ~sends:"[1,\"x\"]" ());
    ]

(* ------------------------------------------------------------------ *)
(* Metrics: histogram bucketing edge cases                             *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  (* non-positive values land in the underflow bucket *)
  Alcotest.(check int) "0 -> bucket 0" 0 (Obs.Metrics.bucket_index 0.0);
  Alcotest.(check int) "-1 -> bucket 0" 0 (Obs.Metrics.bucket_index (-1.0));
  Alcotest.(check int) "-inf -> bucket 0" 0 (Obs.Metrics.bucket_index Float.neg_infinity);
  (* buckets are monotone in the value *)
  let idx = List.map Obs.Metrics.bucket_index [ 1e-9; 1e-3; 1.0; 2.0; 1e6; 1e18 ] in
  Alcotest.(check (list int)) "monotone" (List.sort_uniq compare idx) idx;
  (* every probed value lies inside its bucket's bounds: bucket 0 is
     (-inf, 0], positive buckets are [lo, hi) *)
  List.iter
    (fun v ->
      let i = Obs.Metrics.bucket_index v in
      let lo, hi = Obs.Metrics.bucket_bounds i in
      Alcotest.(check bool)
        (Printf.sprintf "%h in bucket %d [%h, %h)" v i lo hi)
        true
        (if i = 0 then v <= 0.0 else v >= lo && v < hi))
    [ 1e-9; 0.5; 1.0; 1.5; 2.0; 1024.0; float_of_int max_int ];
  (* max_int observes without escaping the bucket range *)
  let h = Obs.Metrics.histogram "test.buckets" in
  Obs.Metrics.observe_int h max_int;
  Obs.Metrics.observe_int h 0;
  Obs.Metrics.observe h 1e300;
  Alcotest.(check int) "3 observations" 3 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e280)) "sum tracks" (float_of_int max_int +. 1e300)
    (Obs.Metrics.histogram_sum h)

let test_histogram_snapshot () =
  let get_hist name =
    match Obs.Json.member "metrics" (Obs.Metrics.snapshot_json ()) with
    | None -> Alcotest.fail "snapshot has no metrics object"
    | Some m -> (
      match Obs.Json.member name m with
      | Some h -> h
      | None -> Alcotest.failf "histogram %s missing from snapshot" name)
  in
  let buckets h =
    match Obs.Json.member "buckets" h with
    | Some b -> Option.get (Obs.Json.to_list b)
    | None -> Alcotest.fail "no buckets field"
  in
  let int_field k j = Option.get (Obs.Json.to_int (Option.get (Obs.Json.member k j))) in
  let float_field k j =
    Option.get (Obs.Json.to_float (Option.get (Obs.Json.member k j)))
  in
  (* zero-count snapshot: count 0, empty bucket list, null min/max *)
  let _ = Obs.Metrics.histogram "test.snap.empty" in
  let h = get_hist "test.snap.empty" in
  Alcotest.(check int) "empty count" 0 (int_field "count" h);
  Alcotest.(check int) "empty buckets" 0 (List.length (buckets h));
  Alcotest.(check bool) "empty min is null" true
    (Obs.Json.member "min" h = Some Obs.Json.Null);
  Alcotest.(check bool) "empty max is null" true
    (Obs.Json.member "max" h = Some Obs.Json.Null);
  (* negative and zero samples all land in the one underflow bucket,
     whose lo exports as null (-inf is not representable in JSON) *)
  let neg = Obs.Metrics.histogram "test.snap.neg" in
  Obs.Metrics.observe neg 0.0;
  Obs.Metrics.observe neg (-5.0);
  Obs.Metrics.observe_int neg (-1);
  let h = get_hist "test.snap.neg" in
  Alcotest.(check int) "neg count" 3 (int_field "count" h);
  (match buckets h with
  | [ b ] ->
    Alcotest.(check int) "underflow n" 3 (int_field "n" b);
    Alcotest.(check bool) "underflow lo is null" true
      (Obs.Json.member "lo" b = Some Obs.Json.Null);
    Alcotest.(check (float 0.0)) "underflow hi" 0.0 (float_field "hi" b)
  | bs -> Alcotest.failf "expected one underflow bucket, got %d" (List.length bs));
  Alcotest.(check (float 1e-9)) "neg min" (-5.0) (float_field "min" h);
  Alcotest.(check (float 1e-9)) "neg max" 0.0 (float_field "max" h);
  (* single-bucket saturation: 1000 identical samples export exactly one
     bucket holding all of them, with the value inside its bounds *)
  let sat = Obs.Metrics.histogram "test.snap.sat" in
  for _ = 1 to 1000 do
    Obs.Metrics.observe sat 3.0
  done;
  let h = get_hist "test.snap.sat" in
  Alcotest.(check int) "sat count" 1000 (int_field "count" h);
  (match buckets h with
  | [ b ] ->
    Alcotest.(check int) "sat bucket n" 1000 (int_field "n" b);
    let lo = float_field "lo" b and hi = float_field "hi" b in
    Alcotest.(check bool) "3.0 inside [lo, hi)" true (lo <= 3.0 && 3.0 < hi)
  | bs -> Alcotest.failf "expected one saturated bucket, got %d" (List.length bs));
  Alcotest.(check (float 1e-6)) "sat sum" 3000.0 (Obs.Metrics.histogram_sum sat)

let test_metrics_registry () =
  let c = Obs.Metrics.counter "test.reg.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.value c);
  (* find-or-create returns the same instrument *)
  Obs.Metrics.incr (Obs.Metrics.counter "test.reg.c");
  Alcotest.(check int) "idempotent creation" 6 (Obs.Metrics.value c);
  (* kind mismatch is a programming error *)
  (match Obs.Metrics.gauge "test.reg.c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted");
  (* reset zeroes in place: the cached handle stays valid *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes counter" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.Metrics.value c)

let short_campaign ?(solver_budget = Smt.Solver.default_budget)
    ?(cache_capacity = Smt.Cache.default_capacity) name =
  let t = Targets.Catalog.find_exn name in
  let tn = t.Targets.Registry.tuning in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 30;
          dfs_phase_iters = tn.Targets.Registry.dfs_phase;
          initial_nprocs = tn.Targets.Registry.initial_nprocs;
          step_limit = tn.Targets.Registry.step_limit;
          solver_budget;
          seed = 1;
        };
      cache_capacity;
    }
  in
  Compi.Campaign.run ~settings ~label:name (Targets.Registry.instrument t)

(* perfbench reads four instruments through the find-or-create calls,
   so a renamed one would read 0 without an error. Each must be
   registered by the engine under its name and kind before anything
   else asks for it, and a short imb-mpi1 campaign must move it (a
   two-node solver budget makes a few solves give up). *)
let test_perfbench_instruments () =
  let metrics () =
    match Obs.Json.member "metrics" (Obs.Metrics.snapshot_json ()) with
    | Some (Obs.Json.Obj kvs) -> kvs
    | _ -> Alcotest.fail "snapshot has no metrics object"
  in
  (* an instrument's kind and the figure perfbench reads from it *)
  let reading kvs name =
    match List.assoc_opt name kvs with
    | Some (Obs.Json.Int n) -> ("counter", float_of_int n)
    | Some (Obs.Json.Obj _ as h) ->
      ("histogram", Option.get (Option.bind (Obs.Json.member "sum" h) Obs.Json.to_float))
    | Some _ -> ("other", 0.0)
    | None -> ("absent", 0.0)
  in
  let before = metrics () in
  ignore (short_campaign ~solver_budget:2 "imb-mpi1");
  let after = metrics () in
  List.iter
    (fun (name, kind) ->
      let k0, v0 = reading before name and k1, v1 = reading after name in
      Alcotest.(check string) (name ^ " registered") kind k0;
      Alcotest.(check string) (name ^ " kind") kind k1;
      Alcotest.(check bool) (Printf.sprintf "%s moved (%g -> %g)" name v0 v1) true (v1 > v0))
    [
      ("solver.unknown", "counter");
      ("compiled.steps_per_run", "histogram");
      ("sched.messages", "counter");
      ("sched.collectives", "counter");
    ]

(* The cache's own instruments equal the campaign's cache stats: the
   entries gauge is set at every insert and the evictions counter
   grows with every drop (an 8-entry cache drops some). *)
let test_cache_instruments () =
  let evictions = Obs.Metrics.counter "cache.evictions" in
  let e0 = Obs.Metrics.value evictions in
  let r = short_campaign ~cache_capacity:8 "heat2d" in
  let cs = Option.get r.Compi.Campaign.cache in
  Alcotest.(check bool) "the cache evicted" true (cs.Smt.Cache.evictions > 0);
  Alcotest.(check int) "cache.evictions" cs.Smt.Cache.evictions
    (Obs.Metrics.value evictions - e0);
  Alcotest.(check (float 0.0)) "cache.entries" (float_of_int cs.Smt.Cache.entries)
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge "cache.entries"))

(* ------------------------------------------------------------------ *)
(* Sink: emission shape, and the null sink changes nothing             *)
(* ------------------------------------------------------------------ *)

let test_buffer_sink () =
  let buf = Buffer.create 256 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Alcotest.(check bool) "buffer sink active" true (Obs.Sink.active ());
      Obs.Sink.emit (Obs.Event.Restart { iteration = 1; reason = "stagnation" });
      Obs.Sink.emit (Obs.Event.Sched_deadlock { ranks = [ 2 ] });
      Obs.Sink.emit_all
        [ Obs.Event.Cache_evict { dropped = 1; entries = 2 }; Obs.Event.Span_summary { rows = [] } ]);
  Alcotest.(check bool) "restored to inactive" false (Obs.Sink.active ());
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" 4 (List.length lines);
  (* the text of "t", the second field *)
  let t_text line =
    match String.split_on_char ':' line with
    | _ :: key :: value :: _ when String.ends_with ~suffix:",\"t\"" key ->
      String.sub value 0 (String.index value ',')
    | _ -> Alcotest.failf "no t field second in %s" line
  in
  List.iter
    (fun line ->
      (match String.split_on_char '.' (t_text line) with
      | [ secs; frac ] when secs <> "" && String.length frac = 6 -> ()
      | _ -> Alcotest.failf "t not in six-decimal form: %s" line);
      match Obs.Json.parse line with
      | Ok j -> Alcotest.(check bool) "has ev" true (Obs.Json.member "ev" j <> None)
      | Error e -> Alcotest.failf "bad JSONL line %s: %s" line e)
    lines;
  Alcotest.(check string) "one stamp per batch" (t_text (List.nth lines 2)) (t_text (List.nth lines 3))

let toy_result () =
  let t = Targets.Catalog.find_exn "toy-fig2" in
  let info = Targets.Registry.instrument t in
  let settings =
    { Compi.Driver.default_settings with Compi.Driver.iterations = 30; seed = 7 }
  in
  let settings = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  (Compi.Campaign.run ~settings info).Compi.Campaign.summary

(* Everything observable about a result except wall-clock times. *)
let fingerprint (r : Compi.Driver.result) =
  ( ( r.Compi.Driver.covered_branches,
      r.Compi.Driver.reachable_branches,
      r.Compi.Driver.total_branches,
      r.Compi.Driver.iterations_run,
      r.Compi.Driver.max_constraint_set,
      r.Compi.Driver.derived_bound ),
    List.map
      (fun (s : Compi.Driver.iter_stat) ->
        ( s.Compi.Driver.iteration,
          s.Compi.Driver.nprocs,
          s.Compi.Driver.focus,
          s.Compi.Driver.constraint_set_size,
          s.Compi.Driver.covered_after,
          s.Compi.Driver.faults_seen,
          s.Compi.Driver.restarted ))
      r.Compi.Driver.stats,
    List.map Compi.Driver.bug_key r.Compi.Driver.bugs )

let test_null_sink_transparent () =
  let bare = fingerprint (toy_result ()) in
  let nulled =
    Obs.Sink.with_sink Obs.Sink.Null_sink (fun () -> fingerprint (toy_result ()))
  in
  Alcotest.(check bool) "null sink leaves results identical" true (bare = nulled);
  let buf = Buffer.create 4096 in
  let buffered =
    Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () -> fingerprint (toy_result ()))
  in
  Alcotest.(check bool) "buffer sink leaves results identical" true (bare = buffered);
  Alcotest.(check bool) "buffer sink captured events" true (Buffer.length buf > 0)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json string escaping" `Quick test_json_escaping;
        Alcotest.test_case "json float round-trip" `Quick test_json_floats;
        Alcotest.test_case "json structures" `Quick test_json_structures;
        Alcotest.test_case "event round-trip (all kinds)" `Quick test_event_roundtrip;
        Alcotest.test_case "event decode rejects junk" `Quick test_event_of_json_rejects;
        QCheck_alcotest.to_alcotest prop_summary_roundtrip;
        QCheck_alcotest.to_alcotest prop_event_line_canonical;
        Alcotest.test_case "mpi_summary length mismatch is malformed" `Quick
          test_summary_length_mismatch;
        Alcotest.test_case "histogram bucket edges" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram snapshot edge cases" `Quick test_histogram_snapshot;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "perfbench's instruments move" `Quick test_perfbench_instruments;
        Alcotest.test_case "cache instruments = cache stats" `Quick test_cache_instruments;
        Alcotest.test_case "buffer sink JSONL shape" `Quick test_buffer_sink;
        Alcotest.test_case "sinks do not perturb campaigns" `Quick
          test_null_sink_transparent;
      ] );
  ]
