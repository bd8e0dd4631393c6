(* Bechamel micro-benchmarks for the hot kernels underpinning every
   experiment: the solver, the interpreter in heavy vs light mode (the
   per-process cost difference that two-way instrumentation exploits),
   path logging with and without constraint-set reduction, and the
   path log's render/read-back round trip. *)

open Bechamel
open Toolkit

let solver_test =
  (* the paper's Figure 1 system plus a small chain *)
  let cs =
    [
      Smt.Constr.cmp (Smt.Linexp.var 0) Smt.Constr.Eq (Smt.Linexp.const 100);
      Smt.Constr.cmp
        (Smt.Linexp.of_terms [ (1, 0); (2, 1) ] 0)
        Smt.Constr.Le (Smt.Linexp.const 400);
      Smt.Constr.cmp (Smt.Linexp.var 1) Smt.Constr.Lt (Smt.Linexp.var 2);
      Smt.Constr.cmp (Smt.Linexp.var 2) Smt.Constr.Lt (Smt.Linexp.const 50);
    ]
  in
  Test.make ~name:"solver: 4-constraint incremental set"
    (Staged.stage (fun () ->
         match Smt.Solver.solve cs with
         | Smt.Solver.Sat _ -> ()
         | Smt.Solver.Unsat | Smt.Solver.Unknown -> assert false))

let interp_test ~name ~heavy =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig2") in
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs = 4;
      inputs = [ ("x", 10); ("y", 50) ];
      two_way = not heavy;
    }
  in
  Test.make ~name
    (Staged.stage (fun () ->
         match Compi.Runner.run config with
         | Ok _ -> ()
         | Error (`Platform_limit _) -> assert false))

let pathlog_test ~name ~reduce =
  let constr =
    Some (Smt.Constr.cmp (Smt.Linexp.var 0) Smt.Constr.Lt (Smt.Linexp.const 100))
  in
  Test.make ~name
    (Staged.stage (fun () ->
         let log = Concolic.Pathlog.create ~reduce in
         for k = 0 to 999 do
           Concolic.Pathlog.record log ~cond_id:(k mod 7) ~taken:(k mod 11 < 9) ~constr
         done;
         ignore (Concolic.Pathlog.constraint_count log)))

(* The focus log's per-iteration round trip as the runner runs it:
   record, render into the domain's buffer, count the records back,
   release. *)
let pathlog_round_trip_test =
  let constr =
    Some (Smt.Constr.cmp (Smt.Linexp.var 0) Smt.Constr.Lt (Smt.Linexp.const 100))
  in
  Test.make ~name:"pathlog: 1000 events, round trip"
    (Staged.stage (fun () ->
         let log = Concolic.Pathlog.create ~reduce:true in
         for k = 0 to 999 do
           Concolic.Pathlog.record log ~cond_id:(k mod 7) ~taken:(k mod 11 < 9) ~constr
         done;
         let bytes, len = Concolic.Pathlog.render log in
         ignore (Concolic.Pathlog.count_records bytes len);
         Concolic.Pathlog.release log))

(* The observatory fold over a synthetic 1k-line trace: the hot path of
   [compi-cli replay/report] on a real campaign's JSONL. *)
let fold_test =
  let lines =
    List.init 1000 (fun k ->
        let ev =
          match k mod 5 with
          | 0 ->
            Obs.Event.Test
              {
                test = k / 5;
                parent = (k / 5) - 1;
                origin = (if k < 5 then "seed" else "negated");
                branch = k mod 37;
                index = k mod 13;
                cached = k mod 3 = 0;
                nprocs = 4;
                focus = 0;
                covered = min 40 (k / 20);
                reachable = 42;
                cs_size = 30;
                faults = 0;
                restarted = false;
                exec_s = 0.001;
                solve_s = 0.0005;
              }
          | 1 -> Obs.Event.Span { domain = k mod 2; kind = "exec"; t0 = k * 1_000; t1 = (k * 1_000) + 700 }
          | 2 ->
            Obs.Event.Lineage_negation
              {
                parent = k / 5;
                index = k mod 13;
                branch = k mod 37;
                outcome = (if k mod 4 = 0 then Obs.Event.Unsat else Obs.Event.Sat);
                cached = k mod 3 = 0;
              }
          | 3 ->
            let src = k mod 4 in
            Obs.Event.Mpi_summary
              {
                nprocs = 4;
                sends = List.init 4 (fun r -> if r = src then 1 else 0);
                recvs = List.init 4 (fun r -> if r = (src + 1) mod 4 then 1 else 0);
                colls = [ 1; 1; 1; 1 ];
                blocked = List.init 4 (fun r -> if r = (src + 1) mod 4 then 1 else 0);
                matrix = List.init 16 (fun i -> if i = (src * 4) + ((src + 1) mod 4) then 1 else 0);
                collectives = [ (0, "barrier", 1) ];
              }
          | _ ->
            Obs.Event.Lineage_negation
              {
                parent = k / 5;
                index = k mod 7;
                branch = k mod 41;
                outcome = Obs.Event.Sat;
                cached = false;
              }
        in
        Obs.Event.to_line ~t:(float_of_int k *. 0.001) ev)
  in
  Test.make ~name:"fold: 1000-line trace -> report"
    (Staged.stage (fun () ->
         let f = Obs.Fold.of_lines lines in
         ignore (Obs.Fold.to_text ~stable:true f)))

let tests =
  Test.make_grouped ~name:"compi"
    [
      solver_test;
      interp_test ~name:"runner: fig2 x4 procs, two-way" ~heavy:false;
      interp_test ~name:"runner: fig2 x4 procs, one-way" ~heavy:true;
      pathlog_test ~name:"pathlog: 1000 events, reduction" ~reduce:true;
      pathlog_test ~name:"pathlog: 1000 events, no reduction" ~reduce:false;
      pathlog_round_trip_test;
      fold_test;
    ]

(* "compi/solver: 4-constraint incremental set" -> a metric-safe name *)
let gauge_name name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> Buffer.add_char b c
      | '/' | ':' -> Buffer.add_char b '.'
      | ' ' -> Buffer.add_char b '_'
      | _ -> ())
    name;
  "bench." ^ Buffer.contents b ^ ".ns_per_run"

(* The span subsystem must be invisible when off and near-free when on:
   with the timeline disabled, [span]/[record] are a single flag read
   and must not touch the minor heap; enabled, the whole campaign
   instrumentation may cost at most 5% on the end-to-end interpreter
   ns/run. Direct min-of-reps timing rather than Bechamel — the
   comparison needs identical workloads either side of one global
   toggle, and min-of-reps is robust to scheduler noise. *)
let span_overhead_check () =
  Util.print_header "Span overhead (timeline off vs on)";
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig2") in
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs = 4;
      inputs = [ ("x", 10); ("y", 50) ];
      two_way = true;
    }
  in
  let run_once () =
    match Compi.Runner.run config with
    | Ok _ -> ()
    | Error (`Platform_limit _) -> assert false
  in
  let time_n n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      run_once ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let n = 40 and reps = 5 in
  run_once () (* warm caches before either side is timed *);
  let min_of f = List.fold_left Float.min infinity (List.init reps (fun _ -> f ())) in
  let off_ns = 1e9 *. min_of (fun () -> time_n n) in
  Obs.Timeline.enable ();
  let on_ns = 1e9 *. min_of (fun () -> time_n n) in
  Obs.Timeline.disable ();
  let ratio = on_ns /. off_ns in
  Obs.Metrics.set (Obs.Metrics.gauge "bench.span_overhead.off.ns_per_run") off_ns;
  Obs.Metrics.set (Obs.Metrics.gauge "bench.span_overhead.on.ns_per_run") on_ns;
  Obs.Metrics.set (Obs.Metrics.gauge "bench.span_overhead.ratio") ratio;
  Printf.printf "  %-45s %12.0f ns/run\n" "runner, timeline off" off_ns;
  Printf.printf "  %-45s %12.0f ns/run (%.3fx)\n%!" "runner, timeline on" on_ns ratio;
  if ratio > 1.05 then begin
    Printf.eprintf "FAIL: span overhead %.3fx exceeds the 1.05x budget\n" ratio;
    exit 1
  end;
  let f = Sys.opaque_identity (fun () -> ()) in
  let iters = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.Timeline.span "bench" f;
    Obs.Timeline.record ~kind:"bench" ~t0:0 ~t1:0
  done;
  let dw = Gc.minor_words () -. w0 in
  Printf.printf "  %-45s %12.1f words / %d calls\n%!" "disabled-path minor allocation" dw
    iters;
  (* the measurement brackets themselves box a couple of floats; the
     loop body must contribute nothing *)
  if dw > 256.0 then begin
    Printf.eprintf "FAIL: disabled span path allocated %.0f minor words\n" dw;
    exit 1
  end

(* Compiled-vs-interpreted executor pair: the same hot kernel straight
   through Interp.run and Compile.run — no scheduler, no path log — so
   the ratio isolates the executor itself. Direct min-of-reps timing
   for the same reason as [span_overhead_check]: a gated ratio needs
   matched workloads, and min-of-reps is robust to scheduler noise.
   Gate: the compiled executor must be at least 2x faster (hard fail),
   with 5x the target the docs advertise (warn below it). *)
let exec_mode_check () =
  Util.print_header "Executor: interpreter vs closure-compiled";
  let open Minic in
  let p =
    (* shaped like the paper's numeric targets: a stencil-ish sweep
       with realistic identifier lengths (the interpreter hashes each
       name on every access), nested loops, data-dependent branches,
       and a helper called per cell (the interpreter builds a fresh
       hashtable frame per call; the compiled executor, three arrays) *)
    let open Builder in
    program
      [
        func "update"
          [ ("load", Ast.Tint); ("level", Ast.Tint) ]
          [
            if_ (v "load" >: v "level")
              [ ret (v "level" +: v "load" -: i 1) ]
              [ ret (v "level" -: v "load" +: i 1) ];
          ];
        func "main" []
          ([
             input "bias" ~default:3;
             decl "level" (v "bias");
             decl "load" (i 0);
             decl_arr "grid" (i 16);
           ]
          @ for_ "step" (i 0) (i 100)
              ([
                 aset "grid" (v "step" %: i 16)
                   ((v "step" *: i 3) -: (v "level" *: i 2) +: (v "step" %: i 7));
               ]
              @ for_ "cell" (i 0) (i 16)
                  [
                    assign "load"
                      ((((idx "grid" (v "cell") *: i 3) +: (v "step" *: v "cell"))
                       %: i 17)
                      +: (((idx "grid" ((v "cell" +: v "step") %: i 16) -: v "level")
                          *: i 2)
                         %: i 9)
                      +: (((v "step" *: i 5) -: (v "cell" *: i 3)) %: i 11));
                    if_ (v "load" >: v "level")
                      [ assign "level" (v "level" +: v "load" -: i 1) ]
                      [ assign "level" (v "level" -: v "load" +: i 1) ];
                  ]
              @ [ call_assign "level" "update" [ v "load"; v "level" ] ]));
      ]
  in
  let info = Branchinfo.instrument (Check.check_exn p) in
  let cp = Compile.compile info.Branchinfo.program in
  let hooks = Interp.plain_hooks () in
  let time_ns name exec =
    let n = 60 and reps = 5 in
    (match exec () with Ok () -> () | Error _ -> assert false);
    (* quiesce the heap so the ratio is not hostage to whatever GC
       state the bechamel phase left behind *)
    Gc.compact ();
    let w0 = Gc.minor_words () in
    ignore (exec ());
    Printf.printf "  %-45s %12.0f minor words/run\n%!" (name ^ " allocation")
      (Gc.minor_words () -. w0);
    let time_n () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        ignore (exec ())
      done;
      1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int n
    in
    let ns = List.fold_left Float.min infinity (List.init reps (fun _ -> time_n ())) in
    Obs.Metrics.set (Obs.Metrics.gauge (Printf.sprintf "bench.%s.ns_per_run" name)) ns;
    Printf.printf "  %-45s %12.0f ns/run\n%!" name ns;
    ns
  in
  let interp_ns = time_ns "interp" (fun () -> Interp.run hooks info.Branchinfo.program) in
  let compiled_ns = time_ns "compiled" (fun () -> Compile.run cp hooks) in
  let speedup = interp_ns /. compiled_ns in
  Obs.Metrics.set (Obs.Metrics.gauge "bench.exec_mode.speedup") speedup;
  Printf.printf "  %-45s %12.1fx\n%!" "compiled speedup" speedup;
  if speedup < 2.0 then begin
    Printf.eprintf "FAIL: compiled executor only %.2fx over the interpreter (< 2x)\n"
      speedup;
    exit 1
  end
  else if speedup < 5.0 then
    Printf.eprintf "WARN: compiled executor %.2fx over the interpreter (target >= 5x)\n"
      speedup

let run () =
  Util.print_header "Micro-benchmarks (Bechamel, ns/run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Obs.Metrics.set (Obs.Metrics.gauge (gauge_name name)) est;
        Printf.printf "  %-45s %12.0f ns/run\n%!" name est
      | Some _ | None -> Printf.printf "  %-45s %12s\n%!" name "n/a")
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  exec_mode_check ();
  span_overhead_check ()
