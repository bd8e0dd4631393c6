(* The span timeline and the profile fold built on it: live recording
   through drain into a sink, the interval accounting's invariants
   (utilization bounds, critical path), unknown-kind
   triage, renderer determinism, and the zero-cost-when-off guarantee. *)

(* substring search, to keep the test deps at alcotest alone *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let span_line ~domain ~kind ~t0 ~t1 =
  Obs.Event.to_line ~t:0.0 (Obs.Event.Span { domain; kind; t0; t1 })

let fold_of_spans spans =
  Obs.Fold.of_lines
    (List.map (fun (domain, kind, t0, t1) -> span_line ~domain ~kind ~t0 ~t1) spans)

(* Record through the real machinery: enable, nest spans, drain into a
   buffer sink, fold the JSONL back. *)
let test_live_roundtrip () =
  let buf = Buffer.create 1024 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          let got =
            Obs.Timeline.span "exec" (fun () ->
                Obs.Timeline.span "solve" (fun () -> 41 + 1))
          in
          Alcotest.(check int) "span returns the result" 42 got;
          Obs.Timeline.record ~kind:"idle" ~t0:1 ~t1:5;
          Alcotest.(check bool) "spans pending before drain" true
            (Obs.Timeline.pending () >= 3);
          Obs.Timeline.drain ();
          Alcotest.(check int) "drained" 0 (Obs.Timeline.pending ())));
  let f =
    Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf))
  in
  let spans = f.Obs.Fold.spans in
  (* [solve] lies inside [exec], so the drain folds it into the summary;
     the nesting rule itself is [compact]'s property below *)
  Alcotest.(check (list string)) "two intervals kept" [ "exec"; "idle" ]
    (List.sort compare (List.map (fun s -> s.Obs.Fold.sp_kind) spans));
  (match f.Obs.Fold.span_rows with
  | [ ((0, "solve"), (1, ns)) ] ->
    Alcotest.(check bool) "summary row duration" true (ns >= 0)
  | rows -> Alcotest.failf "expected one solve row, got %d" (List.length rows));
  let outer = List.find (fun s -> s.Obs.Fold.sp_kind = "exec") spans in
  Alcotest.(check int) "main domain" 0 outer.Obs.Fold.sp_domain;
  Alcotest.(check bool) "monotone span" true
    (outer.Obs.Fold.sp_t0 <= outer.Obs.Fold.sp_t1);
  Alcotest.(check int) "profile counts the folded span" 3
    (Obs.Fold.profile f).Obs.Fold.pf_spans

(* A span raised through must still be recorded and re-raised. *)
let test_span_exception_safe () =
  let buf = Buffer.create 256 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          (try Obs.Timeline.span "exec" (fun () -> failwith "boom")
           with Failure _ -> ());
          Obs.Timeline.drain ()));
  let f = Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf)) in
  Alcotest.(check int) "raising span still recorded" 1
    (List.length f.Obs.Fold.spans)

let test_unknown_kind_skipped () =
  let f =
    fold_of_spans
      [
        (0, "exec", 0, 100);
        (0, "mystery.v9", 10, 20);
        (0, "mystery.v9", 30, 40);
        (1, "idle", 0, 80);
      ]
  in
  let p = Obs.Fold.profile f in
  Alcotest.(check int) "known spans counted" 2 p.Obs.Fold.pf_spans;
  Alcotest.(check (list (pair string int)))
    "unknown kind skipped and counted"
    [ ("mystery.v9", 2) ]
    p.Obs.Fold.pf_unknown;
  (* skip note must surface in the text rendering *)
  let txt = Obs.Fold.profile_text f in
  Alcotest.(check bool) "skip note rendered" true
    (contains ~affix:"mystery.v9" txt)

let test_utilization_bounds () =
  let f =
    fold_of_spans
      [
        (* overlapping busy spans + a wait overlapping both *)
        (0, "exec", 0, 100);
        (0, "interp", 50, 150);
        (0, "queue.wait", 80, 120);
        (* a worker that only waited *)
        (1, "idle", 0, 150);
      ]
  in
  let p = Obs.Fold.profile f in
  Alcotest.(check int) "wall is the global extent" 150 p.Obs.Fold.pf_wall_ns;
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d utilization <= 1" d.Obs.Fold.dp_domain)
        true
        (d.Obs.Fold.dp_util >= 0.0 && d.Obs.Fold.dp_util <= 1.0))
    p.Obs.Fold.pf_domains;
  let d0 = List.find (fun d -> d.Obs.Fold.dp_domain = 0) p.Obs.Fold.pf_domains in
  (* busy union [0,150] minus wait [80,120] = 110 exclusive ns *)
  Alcotest.(check int) "exclusive busy subtracts waits" 110 d0.Obs.Fold.dp_busy_ns;
  Alcotest.(check int) "wait accounted" 40 d0.Obs.Fold.dp_wait_ns;
  let d1 = List.find (fun d -> d.Obs.Fold.dp_domain = 1) p.Obs.Fold.pf_domains in
  Alcotest.(check int) "pure-wait domain has no busy" 0 d1.Obs.Fold.dp_busy_ns

(* Umbrella spans attribute wall but must not count as work, or the
   critical path would always equal the round wall. *)
let test_round_critical_path () =
  let f =
    fold_of_spans
      [
        (0, "round", 0, 1000);
        (0, "merge", 600, 1000);
        (1, "task", 0, 600);
        (1, "idle", 600, 1000);
        (2, "task", 100, 400);
      ]
  in
  let p = Obs.Fold.profile f in
  (match p.Obs.Fold.pf_rounds with
  | [ r ] ->
    Alcotest.(check int) "round wall" 1000 r.Obs.Fold.rp_wall_ns;
    Alcotest.(check int) "critical path is the busiest domain" 600
      r.Obs.Fold.rp_crit_ns;
    Alcotest.(check int) "carried by domain 1" 1 r.Obs.Fold.rp_crit_domain;
    Alcotest.(check int) "stall is the unhideable remainder" 400
      r.Obs.Fold.rp_stall_ns
  | rs -> Alcotest.failf "expected 1 round, got %d" (List.length rs));
  (* attribution counts the umbrella: domain 0's round span covers all *)
  Alcotest.(check (float 0.01)) "full attribution" 100.0
    p.Obs.Fold.pf_attributed_pct

let test_profile_renderers_deterministic () =
  let spans =
    [
      (0, "round", 0, 900);
      (0, "dispatch", 0, 100);
      (0, "merge", 500, 900);
      (0, "queue.wait", 100, 480);
      (1, "task", 120, 470);
      (1, "queue.wait", 470, 475);
      (1, "idle", 480, 900);
    ]
  in
  let f = fold_of_spans spans in
  let t1 = Obs.Fold.profile_text ~stable:true f in
  let t2 = Obs.Fold.profile_text ~stable:true f in
  Alcotest.(check string) "stable text is byte-identical" t1 t2;
  (* stable text never contains raw second values *)
  Alcotest.(check bool) "no raw seconds under --stable" false
    (contains ~affix:"0.000s" t1);
  (* the diagnostic vocabulary the CI smoke greps for *)
  List.iter
    (fun phrase ->
      Alcotest.(check bool) (phrase ^ " present") true
        (contains ~affix:phrase t1))
    [ "per-worker utilization"; "pipeline queue wait" ]

(* With the timeline off, span/record must not touch the minor heap —
   the instrumented hot paths run at full speed in untraced campaigns. *)
let test_zero_alloc_when_off () =
  Alcotest.(check bool) "timeline off" false (Obs.Timeline.on ());
  let f = Sys.opaque_identity (fun () -> ()) in
  (* warm both paths so any one-time setup is done *)
  Obs.Timeline.span "warm" f;
  Obs.Timeline.record ~kind:"warm" ~t0:0 ~t1:0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50_000 do
    Obs.Timeline.span "bench" f;
    Obs.Timeline.record ~kind:"bench" ~t0:0 ~t1:0
  done;
  let dw = Gc.minor_words () -. w0 in
  (* the Gc.minor_words brackets box a couple of floats; the loop body
     itself must contribute nothing *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation on the disabled path (%.0f words)" dw)
    true (dw < 256.0)

(* End to end: a real jobs-2 campaign traced through a buffer sink must
   yield a profile that attributes (nearly) all wall time, keeps every
   utilization in bounds, and reports the stall table. *)
let test_live_campaign_profile () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig1") in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 30;
          dfs_phase_iters = 12;
          initial_nprocs = 2;
          seed = 11;
        };
      jobs = 2;
      solver_cache = true;
    }
  in
  let buf = Buffer.create 65536 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      ignore (Compi.Campaign.run ~settings info));
  Alcotest.(check bool) "campaign released the timeline" false (Obs.Timeline.on ());
  let f = Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf)) in
  let p = Obs.Fold.profile f in
  Alcotest.(check bool) "spans recorded" true (p.Obs.Fold.pf_spans > 0);
  Alcotest.(check int) "both domains present" 2 (List.length p.Obs.Fold.pf_domains);
  Alcotest.(check bool)
    (Printf.sprintf "attribution >= 95%% (got %.1f)" p.Obs.Fold.pf_attributed_pct)
    true
    (p.Obs.Fold.pf_attributed_pct >= 95.0);
  List.iter
    (fun d ->
      Alcotest.(check bool) "live utilization <= 1" true (d.Obs.Fold.dp_util <= 1.0))
    p.Obs.Fold.pf_domains;
  Alcotest.(check bool) "rounds profiled" true (p.Obs.Fold.pf_rounds <> []);
  Alcotest.(check bool) "cache probed" true
    (match List.assoc_opt "cache.probe" p.Obs.Fold.pf_kinds with
    | Some (probes, _) -> probes > 0
    | None -> false);
  let txt = Obs.Fold.profile_text f in
  List.iter
    (fun phrase ->
      Alcotest.(check bool) (phrase ^ " present") true
        (contains ~affix:phrase txt))
    [ "per-worker utilization"; "pipeline queue wait" ]

(* ------------------------------------------------------------------ *)
(* compaction at drain                                                 *)
(* ------------------------------------------------------------------ *)

let busy_kinds = [ "exec"; "solve"; "compiled"; "schedule"; "task"; "merge"; "cache.probe" ]
let other_kinds = [ "idle"; "queue.wait"; "join"; "round"; "inflight"; "mystery.v9" ]

(* A well-nested forest inside [lo, hi]: siblings take disjoint
   sub-ranges (touching and empty allowed), children lie inside their
   parent, and a node may have a twin on the same interval. Post-order,
   so a parent follows its children as the recorder pushes them. *)
let rec gen_forest st ~depth lo hi =
  let n = if depth = 0 then 0 else Random.State.int st 4 in
  let cuts = List.sort compare (List.init (2 * n) (fun _ -> lo + Random.State.int st (hi - lo + 1))) in
  let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> [] in
  let kind () =
    let kinds = if Random.State.int st 4 = 0 then other_kinds else busy_kinds in
    List.nth kinds (Random.State.int st (List.length kinds))
  in
  List.concat_map
    (fun (a, b) ->
      let node = gen_forest st ~depth:(depth - 1) a b @ [ (kind (), a, b) ] in
      if Random.State.int st 5 = 0 then node @ [ (kind (), a, b) ] else node)
    (pairs cuts)

(* Up to 4 domains, each recording a forest, cut at random points into
   drain batches. *)
let gen_batches st =
  List.init
    (1 + Random.State.int st 4)
    (fun d ->
      let spans = gen_forest st ~depth:4 0 (1 + Random.State.int st 1000) in
      let rec cut acc cur = function
        | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
        | s :: rest ->
          if Random.State.int st 6 = 0 then cut (List.rev (s :: cur) :: acc) [] rest
          else cut acc (s :: cur) rest
      in
      (d, cut [] [] spans))

let print_batches batches =
  String.concat "\n"
    (List.map
       (fun (d, bs) ->
         Printf.sprintf "domain %d: %s" d
           (String.concat " | "
              (List.map
                 (fun b ->
                   String.concat " "
                     (List.map (fun (k, t0, t1) -> Printf.sprintf "%s[%d,%d]" k t0 t1) b))
                 bs)))
       batches)

let span_event d (kind, t0, t1) = Obs.Event.Span { domain = d; kind; t0; t1 }

let prop_compact_keeps_profile =
  QCheck.Test.make ~name:"timeline: compacting drain batches keeps the profile" ~count:500
    (QCheck.make ~print:print_batches gen_batches)
    (fun batches ->
      let full =
        List.concat_map (fun (d, bs) -> List.concat_map (List.map (span_event d)) bs) batches
      in
      let compacted =
        List.concat_map
          (fun (d, bs) ->
            List.concat_map
              (fun b ->
                let kept, rows =
                  Obs.Timeline.compact
                    (List.map (fun (kind, t0, t1) -> { Obs.Timeline.kind; t0; t1 }) b)
                in
                List.map (fun s -> span_event d Obs.Timeline.(s.kind, s.t0, s.t1)) kept
                @
                if rows = [] then []
                else
                  [
                    Obs.Event.Span_summary
                      { rows = List.map (fun (k, c, ns) -> (d, k, c, ns)) rows };
                  ])
              bs)
          batches
      in
      Obs.Fold.profile (Obs.Fold.fold full) = Obs.Fold.profile (Obs.Fold.fold compacted))

(* The rule on a fixed batch: nested busy spans fold, the last recorded
   of two equal intervals stays, waits, umbrellas and unknown kinds
   stay. *)
let test_compact_rule () =
  let sp (kind, t0, t1) = { Obs.Timeline.kind; t0; t1 } in
  let kept, rows =
    Obs.Timeline.compact
      (List.map sp
         [
           ("solve", 10, 20);
           ("idle", 12, 14);
           ("mystery.v9", 30, 40);
           ("exec", 0, 50);
           ("task", 0, 50);
           ("round", 0, 60);
           ("merge", 55, 58);
         ])
  in
  Alcotest.(check (list string)) "kept"
    [ "idle"; "mystery.v9"; "task"; "round"; "merge" ]
    (List.map (fun s -> s.Obs.Timeline.kind) kept);
  Alcotest.(check (list (triple string int int))) "folded rows"
    [ ("exec", 1, 50); ("solve", 1, 10) ]
    rows

(* The --metrics phases are the timeline's drained totals, so on a
   jobs-2 hpl campaign each phase equals the profile's per-kind row of
   the trace the same drains wrote. *)
let test_phases_equal_profile () =
  let t = Targets.Catalog.find_exn "hpl" in
  let tn = t.Targets.Registry.tuning in
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 40;
          dfs_phase_iters = tn.Targets.Registry.dfs_phase;
          initial_nprocs = tn.Targets.Registry.initial_nprocs;
          step_limit = tn.Targets.Registry.step_limit;
          seed = 1;
        };
      jobs = 2;
    }
  in
  let buf = Buffer.create 65536 in
  let snapshot =
    Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
        Obs.Timeline.enable ();
        Fun.protect ~finally:Obs.Timeline.disable (fun () ->
            ignore (Compi.Campaign.run ~settings ~label:"hpl" (Targets.Registry.instrument t));
            Obs.Timeline.drain ();
            Obs.Json.to_string (Obs.Metrics.snapshot_json ())))
  in
  let f = Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf)) in
  Alcotest.(check bool) "trace carries a span_summary" true
    (List.mem_assoc "span_summary" f.Obs.Fold.census);
  Alcotest.(check bool) "stable report drops the span_summary census row" false
    (contains ~affix:"span_summary" (Obs.Fold.to_text ~stable:true f));
  let phases =
    match Result.map (Obs.Json.member "phases") (Obs.Json.parse snapshot) with
    | Ok (Some (Obs.Json.Obj kvs)) -> kvs
    | _ -> Alcotest.fail "no phases object in the snapshot"
  in
  let field name j =
    match Obs.Json.member name j with Some v -> v | None -> Alcotest.failf "no %s" name
  in
  let table =
    List.map
      (fun (kind, j) ->
        let total_s =
          match field "total_s" j with
          | Obs.Json.Float x -> x
          | Obs.Json.Int n -> float_of_int n
          | _ -> Alcotest.failf "%s: total_s not a number" kind
        in
        let count =
          match field "count" j with
          | Obs.Json.Int n -> n
          | _ -> Alcotest.failf "%s: count not an int" kind
        in
        (kind, (count, total_s)))
      phases
  in
  let p = Obs.Fold.profile f in
  Alcotest.(check (list (pair string (pair int (float 0.0)))))
    "phases = profile per-kind rows"
    (List.sort compare
       (List.map (fun (k, (c, ns)) -> (k, (c, float_of_int ns /. 1e9))) p.Obs.Fold.pf_kinds))
    (List.sort compare table)

(* A drain reads from its cursor, not from the first chunk: spans
   recorded across more than three chunk boundaries (a chunk holds 1,024)
   and drained in small batches come out exactly once and in order, also
   after an [enable] that skipped a chunk's worth of undrained spans. *)
let test_drain_from_cursor () =
  let buf = Buffer.create 65536 in
  let recorded = ref [] in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
      Obs.Timeline.enable ();
      Fun.protect ~finally:Obs.Timeline.disable (fun () ->
          for _ = 1 to 1500 do
            Obs.Timeline.record ~kind:"exec" ~t0:0 ~t1:0
          done;
          Obs.Timeline.enable ();
          for i = 1 to 3700 do
            (* disjoint intervals, so compaction keeps every one *)
            Obs.Timeline.record ~kind:"exec" ~t0:(2 * i) ~t1:((2 * i) + 1);
            recorded := ((2 * i), (2 * i) + 1) :: !recorded;
            if i mod 97 = 0 then Obs.Timeline.drain ()
          done;
          Obs.Timeline.drain ();
          Alcotest.(check int) "nothing pending" 0 (Obs.Timeline.pending ())));
  let drained =
    List.filter_map
      (fun line ->
        match Result.bind (Obs.Json.parse line) Obs.Event.of_json with
        | Ok (Obs.Event.Span { kind = "exec"; t0; t1; _ }) -> Some (t0, t1)
        | _ -> None)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check (list (pair int int))) "every span once, in order" (List.rev !recorded)
    drained

let suite =
  [
    ( "timeline",
      [
        Alcotest.test_case "live record/drain round-trip" `Quick test_live_roundtrip;
        Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
        Alcotest.test_case "unknown span kinds skipped+counted" `Quick
          test_unknown_kind_skipped;
        Alcotest.test_case "utilization bounded by interval union" `Quick
          test_utilization_bounds;
        Alcotest.test_case "round critical path and stall" `Quick
          test_round_critical_path;
        Alcotest.test_case "profile renderers deterministic" `Quick
          test_profile_renderers_deterministic;
        Alcotest.test_case "zero allocation when off" `Quick test_zero_alloc_when_off;
        Alcotest.test_case "live jobs-2 campaign profile" `Quick
          test_live_campaign_profile;
        Alcotest.test_case "compact folds nested busy spans only" `Quick test_compact_rule;
        Alcotest.test_case "drain reads from its cursor" `Quick test_drain_from_cursor;
        QCheck_alcotest.to_alcotest prop_compact_keeps_profile;
        Alcotest.test_case "metrics phases equal the profile per-kind table" `Quick
          test_phases_equal_profile;
      ] );
  ]
