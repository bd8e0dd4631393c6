(* Solver cache: key canonicalization, CREST-style verdict replay,
   capacity/eviction, and consistency with the incremental solver. *)

open Smt

let v k = (k : Varid.t)

(* x0 + k rel 0 *)
let c ?(k = 0) ?(coeff = 1) var rel = Constr.make (Linexp.of_terms [ (coeff, var) ] k) rel

let doms lo hi vars =
  List.fold_left (fun m x -> Varid.Map.add x (Domain.make ~lo ~hi) m) Varid.Map.empty vars

let test_key_order_insensitive () =
  let x, y = (v 0, v 1) in
  let a = c x Constr.Ge ~k:(-3) in
  let b = c y Constr.Lt ~k:5 in
  let d = doms (-10) 10 [ x; y ] in
  let cache = Cache.create () in
  Cache.add cache (Cache.key ~domains:d [ a; b ]) Cache.Unsat;
  (* permuted and duplicated constraint lists canonicalize to the same key *)
  Alcotest.(check bool)
    "permutation hits" true
    (Cache.find cache (Cache.key ~domains:d [ b; a ]) <> None);
  Alcotest.(check bool)
    "duplicates collapse" true
    (Cache.find cache (Cache.key ~domains:d [ b; a; b; a ]) <> None);
  Alcotest.(check int) "one entry" 1 (Cache.entries cache)

let test_key_domains_matter () =
  let x = v 0 in
  let a = c x Constr.Gt in
  let cache = Cache.create () in
  Cache.add cache (Cache.key ~domains:(doms 0 10 [ x ]) [ a ]) Cache.Unsat;
  (* same constraints, different interval: a genuinely different problem *)
  Alcotest.(check bool)
    "different domain misses" true
    (Cache.find cache (Cache.key ~domains:(doms 0 99 [ x ]) [ a ]) = None)

let test_hit_returns_same_model () =
  let x, y = (v 0, v 1) in
  let a = c x Constr.Ge in
  let b = c y Constr.Le in
  let d = doms (-10) 10 [ x; y ] in
  let m = Model.of_bindings [ (x, 7); (y, -2) ] in
  let cache = Cache.create () in
  Cache.add cache (Cache.key ~domains:d [ a; b ]) (Cache.Sat m);
  (match Cache.find cache (Cache.key ~domains:d [ b; a ]) with
  | Some (Cache.Sat m') ->
    Alcotest.(check (option int)) "x replayed" (Some 7) (Model.find x m');
    Alcotest.(check (option int)) "y replayed" (Some (-2)) (Model.find y m')
  | Some Cache.Unsat | None -> Alcotest.fail "expected a Sat hit");
  (* first verdict wins: re-adding must not overwrite *)
  Cache.add cache (Cache.key ~domains:d [ a; b ]) Cache.Unsat;
  match Cache.find cache (Cache.key ~domains:d [ a; b ]) with
  | Some (Cache.Sat _) -> ()
  | Some Cache.Unsat | None -> Alcotest.fail "first verdict must win"

let test_eviction_fifo () =
  let d = Varid.Map.empty in
  let key_of n = Cache.key ~domains:d [ c (v 0) Constr.Eq ~k:n ] in
  let cache = Cache.create ~capacity:2 () in
  Cache.add cache (key_of 1) Cache.Unsat;
  Cache.add cache (key_of 2) Cache.Unsat;
  Cache.add cache (key_of 3) Cache.Unsat;
  Alcotest.(check int) "capacity respected" 2 (Cache.entries cache);
  Alcotest.(check bool) "oldest evicted" true (Cache.find cache (key_of 1) = None);
  Alcotest.(check bool) "newest kept" true (Cache.find cache (key_of 3) <> None);
  let st = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 st.Cache.evictions

let test_stats_and_hit_rate () =
  let d = Varid.Map.empty in
  let k1 = Cache.key ~domains:d [ c (v 0) Constr.Eq ] in
  let cache = Cache.create () in
  Alcotest.(check bool) "cold miss" true (Cache.find cache k1 = None);
  Cache.add cache k1 Cache.Unsat;
  ignore (Cache.find cache k1);
  ignore (Cache.find cache k1);
  let st = Cache.stats cache in
  Alcotest.(check int) "hits" 2 st.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Cache.misses;
  Alcotest.(check bool)
    "hit rate" true
    (abs_float (Cache.hit_rate cache -. (2.0 /. 3.0)) < 1e-9)

(* Integration: a negation solved through the real pipeline caches a
   verdict that {!Concolic.Execution.apply_cached} replays into the
   exact result the live solver produced. *)
let exec_record ?(cx = 3) ?(cy = 4) () =
  let tab = Concolic.Symtab.create () in
  let x = Concolic.Symtab.fresh_input tab ~name:"x" ~concrete:cx () in
  let y = Concolic.Symtab.fresh_input tab ~name:"y" ~concrete:cy () in
  (* path: x > 0 (branch 0), y > x (branch 2) — both taken *)
  let constraints =
    [|
      (0, c x Constr.Gt);
      (2, Constr.cmp (Linexp.var y) Constr.Gt (Linexp.var x));
    |]
  in
  {
    Concolic.Execution.constraints;
    symtab = tab;
    model = Concolic.Symtab.model tab;
    domains = Concolic.Symtab.domains tab;
    extra = [];
    nprocs = 1;
    focus = 0;
    mapping = [];
    exec_id = -1;
    exec_schedule = [];
    closure_index = None;
  }

let test_apply_cached_matches_solver () =
  let t = exec_record () in
  let i = 1 in
  (* negate y > x; canonical mode — the only mode whose verdicts may be
     cached, because only there is the model a pure function of the key *)
  match Concolic.Execution.solve_negation ~canonical:true t i with
  | Error _ -> Alcotest.fail "negation should be satisfiable"
  | Ok live ->
    let cache = Cache.create () in
    let key = Concolic.Execution.negation_key t i in
    Cache.add cache key (Cache.Sat live.Solver.fresh);
    (match Cache.find cache (Concolic.Execution.negation_key t i) with
    | Some outcome -> (
      match Concolic.Execution.apply_cached t i outcome with
      | Error _ -> Alcotest.fail "cached Sat must replay as Ok"
      | Ok replayed ->
        Alcotest.(check bool)
          "same resolved set" true
          (Varid.Set.equal live.Solver.resolved replayed.Solver.resolved);
        Varid.Set.iter
          (fun var ->
            Alcotest.(check (option int))
              (Printf.sprintf "model agrees on %d" var)
              (Model.find var live.Solver.model)
              (Model.find var replayed.Solver.model))
          live.Solver.resolved;
        Alcotest.(check bool)
          "same changed set" true
          (Varid.Set.equal live.Solver.changed replayed.Solver.changed))
    | None -> Alcotest.fail "key must round-trip to a hit")

(* The soundness hole canonical mode closes: a verdict cached under one
   run must replay, in a run with *different* concrete inputs, the exact
   result that run's own live solve would produce — this is what makes
   campaigns cache-on/off invariant. With the prefer-previous-values
   heuristic this fails: the model would track whichever run happened to
   solve first, and the heuristic's input is (deliberately) not part of
   the key. *)
let test_replay_pure_across_runs () =
  let a = exec_record ~cx:3 ~cy:4 () in
  let b = exec_record ~cx:1 ~cy:9 () in
  let i = 1 in
  let cache = Cache.create () in
  (match Concolic.Execution.solve_negation ~canonical:true a i with
  | Error _ -> Alcotest.fail "negation satisfiable under run A"
  | Ok live_a ->
    Cache.add cache
      (Concolic.Execution.negation_key a i)
      (Cache.Sat live_a.Solver.fresh));
  let live_b =
    match Concolic.Execution.solve_negation ~canonical:true b i with
    | Error _ -> Alcotest.fail "negation satisfiable under run B"
    | Ok r -> r
  in
  (* per-run symbol tables number the same path identically, so the key
     from run A hits in run B despite the differing concrete models *)
  match Cache.find cache (Concolic.Execution.negation_key b i) with
  | None -> Alcotest.fail "structurally identical runs must share a key"
  | Some outcome -> (
    match Concolic.Execution.apply_cached b i outcome with
    | Error _ -> Alcotest.fail "cached Sat must replay as Ok"
    | Ok replayed ->
      Alcotest.(check bool)
        "same resolved set" true
        (Varid.Set.equal live_b.Solver.resolved replayed.Solver.resolved);
      Varid.Set.iter
        (fun var ->
          Alcotest.(check (option int))
            (Printf.sprintf "fresh agrees on %d" var)
            (Model.find var live_b.Solver.fresh)
            (Model.find var replayed.Solver.fresh);
          Alcotest.(check (option int))
            (Printf.sprintf "merged model agrees on %d" var)
            (Model.find var live_b.Solver.model)
            (Model.find var replayed.Solver.model))
        live_b.Solver.resolved;
      Alcotest.(check bool)
        "same changed set" true
        (Varid.Set.equal live_b.Solver.changed replayed.Solver.changed))

let test_unsat_negation_cached () =
  let tab = Concolic.Symtab.create () in
  let x = Concolic.Symtab.fresh_input tab ~name:"x" ~concrete:5 () in
  (* path: x >= 0 with extra constraint x >= 1 — negating x >= 0 is unsat *)
  let t =
    {
      Concolic.Execution.constraints = [| (0, c x Constr.Ge) |];
      symtab = tab;
      model = Concolic.Symtab.model tab;
      domains = Concolic.Symtab.domains tab;
      extra = [ c x Constr.Ge ~k:(-1) ];
      nprocs = 1;
      focus = 0;
      mapping = [];
      exec_id = -1;
      exec_schedule = [];
      closure_index = None;
    }
  in
  (match Concolic.Execution.solve_negation t 0 with
  | Error `Unsat -> ()
  | Error `Unknown | Ok _ -> Alcotest.fail "expected unsat");
  let cache = Cache.create () in
  Cache.add cache (Concolic.Execution.negation_key t 0) Cache.Unsat;
  match Cache.find cache (Concolic.Execution.negation_key t 0) with
  | Some outcome -> (
    match Concolic.Execution.apply_cached t 0 outcome with
    | Error `Unsat -> ()
    | Error `Unknown | Ok _ -> Alcotest.fail "cached unsat must replay as unsat")
  | None -> Alcotest.fail "unsat verdict must hit"

(* Differential oracle for the closure index: at every path position,
   [prepare_negation] must yield exactly the key and variables of the
   reference construction — [Cache.key] over [Constr.dependency_closure]
   of the negated constraint, the prefix and [extra]. *)
let reference_negation t i =
  let negated = Constr.negate (Concolic.Execution.constr_at t i) in
  let closure, vars =
    Constr.dependency_closure ~seed:(Constr.vars negated)
      ((negated :: Concolic.Execution.prefix t i) @ t.Concolic.Execution.extra)
  in
  (Cache.key ~domains:t.Concolic.Execution.domains closure, vars)

(* Keys are compared as the cache compares them, not with [=]: a
   [Linexp] is a map whose tree shape depends on insertion order, so
   equal keys can differ structurally. *)
let same_key a b =
  let hits held probe =
    let cache = Cache.create () in
    Cache.add cache held Cache.Unsat;
    Cache.find cache probe <> None
  in
  hits a b && hits b a
  && List.equal Constr.equal (Cache.key_constrs a) (Cache.key_constrs b)

let prepared_matches_reference t i =
  let ref_key, ref_vars = reference_negation t i in
  let p = Concolic.Execution.prepare_negation t i in
  same_key (Concolic.Execution.prepared_key p) ref_key
  && Varid.Set.equal (Concolic.Execution.prepared_vars p) ref_vars

let every_position_matches t =
  List.for_all (prepared_matches_reference t)
    (List.init (Concolic.Execution.length t) Fun.id)

let gen_constr =
  QCheck.Gen.(
    map3
      (fun terms k rel -> Constr.make (Linexp.of_terms terms k) rel)
      (list_size (int_range 0 3) (pair (int_range (-2) 2) (int_range 0 5)))
      (int_range (-3) 3)
      (oneofl Constr.[ Eq; Ne; Lt; Le; Gt; Ge ]))

(* paths drawn mostly from a small pool, so constraints repeat, and
   partly from the pool's negations, so a negated constraint can equal
   an earlier or a later path constraint; terms may cancel or be absent,
   so some constraints are variable-free *)
let gen_path =
  QCheck.Gen.(
    list_size (int_range 1 6) gen_constr >>= fun pool ->
    let pick =
      frequency
        [ (4, oneofl pool); (2, map Constr.negate (oneofl pool)); (1, gen_constr) ]
    in
    pair (list_size (int_range 1 25) pick) (list_size (int_range 0 3) pick))

let print_path (path, extra) =
  let show cs = String.concat "; " (List.map (Format.asprintf "%a" Constr.pp) cs) in
  Printf.sprintf "path [%s] extra [%s]" (show path) (show extra)

let record_of (path, extra) =
  {
    Concolic.Execution.constraints = Array.of_list (List.mapi (fun k c -> (k, c)) path);
    symtab = Concolic.Symtab.create ();
    model = Model.empty;
    domains = doms (-8) 8 [ v 0; v 2; v 3 ];
    extra;
    nprocs = 1;
    focus = 0;
    mapping = [];
    exec_id = -1;
    exec_schedule = [];
    closure_index = None;
  }

let prop_prepare_matches_reference =
  QCheck.Test.make ~name:"cache: prepared negation equals the reference key" ~count:300
    (QCheck.make ~print:print_path gen_path)
    (fun path -> every_position_matches (record_of path))

let test_prepare_matches_reference_on_targets () =
  List.iter
    (fun name ->
      let info = Targets.Registry.instrument (Targets.Catalog.find_exn name) in
      match Compi.Runner.run (Compi.Runner.default_config ~info) with
      | Error (`Platform_limit _) -> Alcotest.fail "platform limit"
      | Ok res ->
        let t = res.Compi.Runner.execution in
        Alcotest.(check bool) (name ^ ": non-empty path") true (Concolic.Execution.length t > 0);
        Alcotest.(check bool) (name ^ ": every position") true (every_position_matches t))
    [ "susy-hmc"; "hpl" ]

let suite =
  [
    ( "cache:unit",
      [
        Alcotest.test_case "key order-insensitive" `Quick test_key_order_insensitive;
        Alcotest.test_case "key includes domains" `Quick test_key_domains_matter;
        Alcotest.test_case "hit replays the model" `Quick test_hit_returns_same_model;
        Alcotest.test_case "FIFO eviction at capacity" `Quick test_eviction_fifo;
        Alcotest.test_case "stats and hit rate" `Quick test_stats_and_hit_rate;
        Alcotest.test_case "replay matches live solve" `Quick
          test_apply_cached_matches_solver;
        Alcotest.test_case "replay is pure across runs" `Quick
          test_replay_pure_across_runs;
        Alcotest.test_case "unsat verdicts replay" `Quick test_unsat_negation_cached;
        Alcotest.test_case "prepared negation equals reference on targets" `Quick
          test_prepare_matches_reference_on_targets;
        QCheck_alcotest.to_alcotest prop_prepare_matches_reference;
      ] );
  ]
