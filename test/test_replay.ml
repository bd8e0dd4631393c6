(* The campaign's replay memo: a repeated test copies the remembered
   result of its first run instead of simulating the ranks again. A
   replay must equal a re-run field by field, emit the trace lines the
   run emitted, and never change what a campaign merges. *)

module Runner = Compi.Runner
module Memo = Compi.Replay_memo

(* The sink's lines since [buf] was last cleared, as events with their
   timestamps left out. *)
let lines_without_t buf =
  let text = Buffer.contents buf in
  Buffer.clear buf;
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Result.bind (Obs.Json.parse l) Obs.Event.of_json with
         | Ok ev -> Obs.Event.to_line ev
         | Error e -> Alcotest.failf "unreadable trace line %S: %s" l e)

let check_same name (direct : Runner.result) (hit : Runner.result) =
  let d = direct.Runner.execution and h = hit.Runner.execution in
  let same what eq = Alcotest.(check bool) (name ^ ": " ^ what) true eq in
  same "constraints" (d.Concolic.Execution.constraints = h.Concolic.Execution.constraints);
  same "model" (d.Concolic.Execution.model = h.Concolic.Execution.model);
  same "domains"
    (Smt.Varid.Map.equal ( = ) d.Concolic.Execution.domains h.Concolic.Execution.domains);
  same "extra" (d.Concolic.Execution.extra = h.Concolic.Execution.extra);
  same "execution mapping" (d.Concolic.Execution.mapping = h.Concolic.Execution.mapping);
  same "launch context"
    (d.Concolic.Execution.nprocs = h.Concolic.Execution.nprocs
    && d.Concolic.Execution.focus = h.Concolic.Execution.focus);
  same "schedule" (d.Concolic.Execution.exec_schedule = h.Concolic.Execution.exec_schedule);
  same "symbol table"
    (Concolic.Symtab.model d.Concolic.Execution.symtab
    = Concolic.Symtab.model h.Concolic.Execution.symtab);
  Alcotest.(check int) (name ^ ": no test id yet") (-1) h.Concolic.Execution.exec_id;
  Alcotest.(check string) (name ^ ": coverage")
    (Concolic.Coverage.report direct.Runner.coverage)
    (Concolic.Coverage.report hit.Runner.coverage);
  same "outcomes" (direct.Runner.outcomes = hit.Runner.outcomes);
  same "deadlocked" (direct.Runner.deadlocked = hit.Runner.deadlocked);
  same "leaked" (direct.Runner.leaked_messages = hit.Runner.leaked_messages);
  same "focus tail" (direct.Runner.focus_tail = hit.Runner.focus_tail);
  same "log bytes"
    (direct.Runner.focus_log_bytes = hit.Runner.focus_log_bytes
    && direct.Runner.nonfocus_log_bytes = hit.Runner.nonfocus_log_bytes);
  same "mapping" (direct.Runner.mapping = hit.Runner.mapping);
  same "constraint-set size"
    (direct.Runner.constraint_set_size = hit.Runner.constraint_set_size);
  same "choices" (direct.Runner.choices = hit.Runner.choices);
  Alcotest.(check (list string)) (name ^ ": events")
    (List.map Obs.Event.to_line direct.Runner.events)
    (List.map Obs.Event.to_line hit.Runner.events)

(* Drive the memo as a campaign does over [configs]: a miss is run and
   remembered, a hit must equal a direct run of the same config and
   write the lines that run wrote. Every config appears once before any
   repeat, and configs that differ only in focus or schedule share
   everything else, so a key that ignored either would hit wrongly. *)
let drive name configs =
  let buf = Buffer.create 65536 in
  Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) @@ fun () ->
  let memo = Memo.create () in
  (* the search would hold these executions; the memo holds them weakly *)
  let alive = ref [] in
  let run config =
    match Runner.run config with
    | Ok r -> r
    | Error (`Platform_limit n) -> Alcotest.failf "%s: platform limit %d" name n
  in
  let hits =
    List.fold_left
      (fun hits (i, config) ->
        let label = Printf.sprintf "%s #%d" name i in
        let key = Memo.key config in
        Buffer.clear buf;
        let direct = run config in
        let ran = lines_without_t buf in
        Alcotest.(check bool) (label ^ ": the run wrote its events") true (ran <> []);
        match Memo.replay (Memo.view memo) key with
        | None ->
          Memo.remember memo key direct;
          (* the merge gives the run its test id *)
          direct.Runner.execution.Concolic.Execution.exec_id <- i;
          alive := (key, direct.Runner.execution) :: !alive;
          hits
        | Some hit ->
          Alcotest.(check (list string)) (label ^ ": replayed lines") ran (lines_without_t buf);
          check_same label direct hit;
          (* giving the copy its test id leaves the remembered run alone *)
          let first = List.assoc key !alive in
          let first_id = first.Concolic.Execution.exec_id in
          hit.Runner.execution.Concolic.Execution.exec_id <- 1000 + i;
          Alcotest.(check int) (label ^ ": remembered run keeps its id") first_id
            first.Concolic.Execution.exec_id;
          (match Memo.replay (Memo.view memo) key with
          | Some again ->
            Alcotest.(check int) (label ^ ": a second copy has no test id") (-1)
              again.Runner.execution.Concolic.Execution.exec_id
          | None -> Alcotest.failf "%s: entry lost" label);
          hits + 1)
      0
      (List.mapi (fun i c -> (i, c)) (configs @ configs))
  in
  Alcotest.(check int) (name ^ ": every repeat replays") (List.length configs) hits;
  ignore (Sys.opaque_identity !alive)

let base ?(tweak = Fun.id) name =
  let t = Targets.Catalog.find_exn name in
  let info = Targets.Registry.instrument t in
  tweak
    {
      (Runner.default_config ~info) with
      Runner.step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
      compiled = Runner.prepare Runner.Exec_compiled info;
    }

(* declared defaults, and one random draw, each at focus 0 and 1 of 4 *)
let inputs_and_focus (c : Runner.config) =
  let random =
    Compi.Driver.random_inputs (Random.State.make [| 1 |]) Compi.Driver.default_settings
      c.Runner.info.Minic.Branchinfo.program
  in
  List.concat_map
    (fun inputs ->
      List.map (fun focus -> { c with Runner.inputs; nprocs = 4; focus }) [ 0; 1 ])
    [ []; random ]

let test_replay_equals_rerun () =
  let one_way c = { c with Runner.two_way = false } in
  let no_fwk c = { c with Runner.mark_mpi_sem = false; record_all = false } in
  List.iter
    (fun (label, name, tweak) -> drive label (inputs_and_focus (base ~tweak name)))
    [
      ("toy-fig2", "toy-fig2", Fun.id);
      ("heat2d", "heat2d", Fun.id);
      ("npb-cg", "npb-cg", Fun.id);
      ("npb-cg one-way", "npb-cg", one_way);
      ("hpl", "hpl", Fun.id);
      ("hpl no-fwk", "hpl", no_fwk);
      ("imb-mpi1", "imb-mpi1", Fun.id);
      ("susy-hmc", "susy-hmc", Fun.id);
    ];
  (* schedule mode: one input, three prescriptions of the wildcard race *)
  let wc = { (base "wc-race") with Runner.inputs = [ ("x", 7) ]; nprocs = 3 } in
  drive "wc-race schedules"
    (List.concat_map
       (fun schedule ->
         List.map (fun focus -> { wc with Runner.schedule; focus }) [ 0; 1 ])
       [ Some []; Some [ 1 ]; Some [ 2 ] ])

(* A traced hpl campaign, where tests often repeat: one [mpi_summary]
   and one [exec] span per executed or speculated test, replayed ones
   included, and the same stable report at one and four jobs. *)
let test_trace_accounting () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "hpl") in
  let campaign jobs =
    let settings =
      {
        Compi.Campaign.default_settings with
        Compi.Campaign.base =
          { Compi.Driver.default_settings with Compi.Driver.iterations = 200; seed = 1 };
        jobs;
      }
    in
    let buf = Buffer.create (1 lsl 20) in
    let r =
      Obs.Sink.with_sink (Obs.Sink.Buffer_sink buf) (fun () ->
          Compi.Campaign.run ~settings ~label:"hpl" info)
    in
    let f = Obs.Fold.of_lines (String.split_on_char '\n' (Buffer.contents buf)) in
    let runs = r.Compi.Campaign.executed + r.Compi.Campaign.speculated in
    let label = Printf.sprintf "jobs %d" jobs in
    Alcotest.(check (option int)) (label ^ ": one mpi_summary per run") (Some runs)
      (List.assoc_opt "mpi_summary" f.Obs.Fold.census);
    let kinds = (Obs.Fold.profile f).Obs.Fold.pf_kinds in
    let count kind = Option.fold ~none:0 ~some:fst (List.assoc_opt kind kinds) in
    Alcotest.(check int) (label ^ ": one exec span per run") runs (count "exec");
    Alcotest.(check bool) (label ^ ": some runs replayed") true (count "schedule" < runs);
    Obs.Fold.to_text ~stable:true f
  in
  Alcotest.(check string) "stable report at jobs 1 and 4" (campaign 1) (campaign 4)

let suite =
  [
    ( "replay:unit",
      [
        Alcotest.test_case "a replay equals a re-run" `Quick test_replay_equals_rerun;
        Alcotest.test_case "trace accounting under replay" `Quick test_trace_accounting;
      ] );
  ]
