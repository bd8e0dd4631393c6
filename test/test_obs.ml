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
    Ledger_append
      { path = "/tmp/ledger.jsonl"; run = "toy#3"; covered = 30; reachable = 38; bugs = 1 };
  ]

let test_event_roundtrip () =
  (* every constructor appears in the sample set *)
  let kinds =
    List.sort_uniq String.compare (List.map Obs.Event.kind_name sample_events)
  in
  Alcotest.(check int) "all 17 event kinds sampled" 17 (List.length kinds);
  List.iter
    (fun ev ->
      let wire = Obs.Json.to_string (Obs.Event.to_json ~t:1.25 ev) in
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
      match Obs.Fold.classify_line (Obs.Json.to_string (Obs.Event.to_json ~t:0.5 ev)) with
      | `Event ev' -> ev = ev'
      | `Blank | `Unknown _ | `Malformed _ -> false)

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

(* ------------------------------------------------------------------ *)
(* Sink: emission shape, and the null sink changes nothing             *)
(* ------------------------------------------------------------------ *)

let test_buffer_sink () =
  let buf = Buffer.create 256 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Alcotest.(check bool) "buffer sink active" true (Obs.Sink.active ());
      Obs.Sink.emit (Obs.Event.Restart { iteration = 1; reason = "stagnation" });
      Obs.Sink.emit (Obs.Event.Sched_deadlock { ranks = [ 2 ] }));
  Alcotest.(check bool) "restored to inactive" false (Obs.Sink.active ());
  let lines =
    Buffer.contents buf |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Ok j ->
        Alcotest.(check bool) "has ev" true (Obs.Json.member "ev" j <> None);
        Alcotest.(check bool) "has t" true (Obs.Json.member "t" j <> None)
      | Error e -> Alcotest.failf "bad JSONL line %s: %s" line e)
    lines

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
        Alcotest.test_case "mpi_summary length mismatch is malformed" `Quick
          test_summary_length_mismatch;
        Alcotest.test_case "histogram bucket edges" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram snapshot edge cases" `Quick test_histogram_snapshot;
        Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
        Alcotest.test_case "buffer sink JSONL shape" `Quick test_buffer_sink;
        Alcotest.test_case "sinks do not perturb campaigns" `Quick
          test_null_sink_transparent;
      ] );
  ]
