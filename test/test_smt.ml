(* Tests for the Yices-substitute solver: linear expressions, constraint
   algebra, interval domains, full and incremental solving. *)

open Smt

let lookup_of_list bindings v =
  match List.assoc_opt v bindings with Some x -> x | None -> 0

(* ------------------------------------------------------------------ *)
(* Linexp                                                              *)
(* ------------------------------------------------------------------ *)

let test_linexp_const () =
  let e = Linexp.const 42 in
  Alcotest.(check (option int)) "const" (Some 42) (Linexp.is_const e);
  Alcotest.(check int) "eval" 42 (Linexp.eval (fun _ -> 0) e)

let test_linexp_combine () =
  (* 2x + 3y + 1  minus  x + 1  =  x + 3y *)
  let e1 = Linexp.of_terms [ (2, 0); (3, 1) ] 1 in
  let e2 = Linexp.of_terms [ (1, 0) ] 1 in
  let d = Linexp.sub e1 e2 in
  Alcotest.(check int) "coeff x" 1 (Linexp.coeff 0 d);
  Alcotest.(check int) "coeff y" 3 (Linexp.coeff 1 d);
  Alcotest.(check int) "const" 0 (Linexp.constant d);
  Alcotest.(check int) "eval" 35 (Linexp.eval (lookup_of_list [ (0, 5); (1, 10) ]) d)

let test_linexp_cancellation () =
  let e = Linexp.sub (Linexp.var 3) (Linexp.var 3) in
  Alcotest.(check (option int)) "x - x = 0" (Some 0) (Linexp.is_const e);
  Alcotest.(check bool) "no vars" true (Varid.Set.is_empty (Linexp.vars e))

let test_linexp_scale () =
  let e = Linexp.scale (-2) (Linexp.of_terms [ (1, 0) ] 3) in
  Alcotest.(check int) "coeff" (-2) (Linexp.coeff 0 e);
  Alcotest.(check int) "const" (-6) (Linexp.constant e);
  Alcotest.(check (option int)) "scale 0" (Some 0)
    (Linexp.is_const (Linexp.scale 0 (Linexp.var 1)))

let test_linexp_duplicate_terms () =
  let e = Linexp.of_terms [ (2, 0); (3, 0) ] 0 in
  Alcotest.(check int) "summed" 5 (Linexp.coeff 0 e)

(* ------------------------------------------------------------------ *)
(* Constr                                                              *)
(* ------------------------------------------------------------------ *)

let all_rels = [ Constr.Eq; Constr.Ne; Constr.Lt; Constr.Le; Constr.Gt; Constr.Ge ]

let test_negate_involutive () =
  let e = Linexp.of_terms [ (1, 0); (-1, 1) ] 2 in
  List.iter
    (fun rel ->
      let c = Constr.make e rel in
      Alcotest.(check bool)
        (Constr.rel_to_string rel) true
        (Constr.equal c (Constr.negate (Constr.negate c))))
    all_rels

let test_negate_flips_holds () =
  let e = Linexp.of_terms [ (1, 0) ] (-5) in
  let lookups = [ lookup_of_list [ (0, 4) ]; lookup_of_list [ (0, 5) ]; lookup_of_list [ (0, 6) ] ] in
  List.iter
    (fun rel ->
      let c = Constr.make e rel in
      List.iter
        (fun l ->
          Alcotest.(check bool)
            "negation flips" (not (Constr.holds l c))
            (Constr.holds l (Constr.negate c)))
        lookups)
    all_rels

let test_trivial () =
  Alcotest.(check (option bool)) "0 = 0" (Some true)
    (Constr.trivial (Constr.make (Linexp.const 0) Constr.Eq));
  Alcotest.(check (option bool)) "3 < 0" (Some false)
    (Constr.trivial (Constr.make (Linexp.const 3) Constr.Lt));
  Alcotest.(check (option bool)) "x = 0 not trivial" None
    (Constr.trivial (Constr.make (Linexp.var 0) Constr.Eq))

let test_normalize_tightens () =
  (* 2x <= 5 normalizes to x <= 2 *)
  let c = Constr.cmp (Linexp.of_terms [ (2, 0) ] 0) Constr.Le (Linexp.const 5) in
  (match Constr.normalize c with
  | `Constr c' ->
    Alcotest.(check int) "coeff 1" 1 (Linexp.coeff 0 c'.Constr.exp);
    Alcotest.(check bool) "x=2 ok" true (Constr.holds (fun _ -> 2) c');
    Alcotest.(check bool) "x=3 not" false (Constr.holds (fun _ -> 3) c')
  | `True | `False -> Alcotest.fail "should stay a constraint");
  (* 3x > 4 normalizes to x >= 2 *)
  let c2 = Constr.cmp (Linexp.of_terms [ (3, 0) ] 0) Constr.Gt (Linexp.const 4) in
  match Constr.normalize c2 with
  | `Constr c' ->
    Alcotest.(check bool) "x=2 ok" true (Constr.holds (fun _ -> 2) c');
    Alcotest.(check bool) "x=1 not" false (Constr.holds (fun _ -> 1) c')
  | `True | `False -> Alcotest.fail "should stay a constraint"

let test_normalize_divisibility () =
  (* 2x = 5 is unsatisfiable over the integers; 2x <> 5 is a tautology *)
  let eq = Constr.cmp (Linexp.of_terms [ (2, 0) ] 0) Constr.Eq (Linexp.const 5) in
  (match Constr.normalize eq with
  | `False -> ()
  | `True | `Constr _ -> Alcotest.fail "2x = 5 must be False");
  let ne = Constr.cmp (Linexp.of_terms [ (2, 0) ] 0) Constr.Ne (Linexp.const 5) in
  (match Constr.normalize ne with
  | `True -> ()
  | `False | `Constr _ -> Alcotest.fail "2x <> 5 must be True");
  (* and through the solver *)
  (match Solver.solve [ eq ] with
  | Solver.Unsat -> ()
  | Solver.Sat _ | Solver.Unknown -> Alcotest.fail "solver must reject 2x = 5");
  match Solver.solve [ ne ] with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "solver must accept 2x <> 5"

let prop_normalize_preserves_solutions =
  QCheck.Test.make ~name:"constr: normalize preserves integer solutions" ~count:1000
    (QCheck.make
       QCheck.Gen.(
         let* c1 = int_range (-6) 6 in
         let* c2 = int_range (-6) 6 in
         let* k = int_range (-30) 30 in
         let* rel =
           oneofl [ Constr.Eq; Constr.Ne; Constr.Lt; Constr.Le; Constr.Gt; Constr.Ge ]
         in
         let* x = int_range (-20) 20 in
         let* y = int_range (-20) 20 in
         return (c1, c2, k, rel, x, y)))
    (fun (c1, c2, k, rel, x, y) ->
      let c = Constr.make (Linexp.of_terms [ (c1, 0); (c2, 1) ] k) rel in
      let lookup var = if var = 0 then x else y in
      let before = Constr.holds lookup c in
      match Constr.normalize c with
      | `True -> before
      | `False -> not before
      | `Constr c' -> Constr.holds lookup c' = before)

let test_dependency_closure () =
  (* c0: x0 < x1,  c1: x1 = x2,  c2: x3 > 0 — seed {x0} pulls c0, c1. *)
  let c0 = Constr.cmp (Linexp.var 0) Constr.Lt (Linexp.var 1) in
  let c1 = Constr.cmp (Linexp.var 1) Constr.Eq (Linexp.var 2) in
  let c2 = Constr.make (Linexp.var 3) Constr.Gt in
  let closure, vars =
    Constr.dependency_closure ~seed:(Varid.Set.singleton 0) [ c0; c1; c2 ]
  in
  Alcotest.(check int) "two constraints" 2 (List.length closure);
  Alcotest.(check bool) "x2 reached" true (Varid.Set.mem 2 vars);
  Alcotest.(check bool) "x3 not reached" false (Varid.Set.mem 3 vars)

let test_dependency_closure_empty_seed () =
  let c0 = Constr.make (Linexp.var 0) Constr.Ge in
  let closure, vars = Constr.dependency_closure ~seed:Varid.Set.empty [ c0 ] in
  Alcotest.(check int) "nothing pulled" 0 (List.length closure);
  Alcotest.(check bool) "no vars" true (Varid.Set.is_empty vars)

(* ------------------------------------------------------------------ *)
(* Domain                                                              *)
(* ------------------------------------------------------------------ *)

let test_domain_basics () =
  let d = Domain.make ~lo:(-3) ~hi:7 in
  Alcotest.(check int) "size" 11 (Domain.size d);
  Alcotest.(check bool) "mem" true (Domain.mem 0 d);
  Alcotest.(check bool) "not mem" false (Domain.mem 8 d);
  Alcotest.(check (option int)) "singleton" (Some 5)
    (Domain.is_singleton (Domain.singleton 5))

let test_domain_clamp () =
  let d = Domain.make ~lo:0 ~hi:10 in
  (match Domain.clamp_lo 4 d with
  | Some d' -> Alcotest.(check int) "lo" 4 d'.Domain.lo
  | None -> Alcotest.fail "clamp_lo emptied");
  Alcotest.(check bool) "empty clamp" true (Domain.clamp_lo 11 d = None);
  Alcotest.(check bool) "empty clamp hi" true (Domain.clamp_hi (-1) d = None)

let test_domain_inter () =
  let a = Domain.make ~lo:0 ~hi:10 and b = Domain.make ~lo:5 ~hi:20 in
  (match Domain.inter a b with
  | Some d ->
    Alcotest.(check int) "lo" 5 d.Domain.lo;
    Alcotest.(check int) "hi" 10 d.Domain.hi
  | None -> Alcotest.fail "non-empty intersection");
  Alcotest.(check bool) "disjoint" true
    (Domain.inter a (Domain.make ~lo:11 ~hi:12) = None)

let test_solver_unknown_on_tiny_budget () =
  (* a 6-variable all-different-style system cannot be decided in 1 node *)
  let cs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i < j then Some (Constr.cmp (Linexp.var i) Constr.Ne (Linexp.var j))
            else None)
          [ 0; 1; 2; 3; 4; 5 ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  let doms =
    List.fold_left
      (fun acc v -> Varid.Map.add v (Domain.make ~lo:0 ~hi:5) acc)
      Varid.Map.empty [ 0; 1; 2; 3; 4; 5 ]
  in
  match Solver.solve ~budget:1 ~domains:doms cs with
  | Solver.Unknown -> ()
  | Solver.Sat _ -> Alcotest.fail "cannot decide in one node"
  | Solver.Unsat -> Alcotest.fail "the system is satisfiable"

let test_domain_remove_split () =
  let d = Domain.make ~lo:0 ~hi:1 in
  (match Domain.remove 0 d with
  | Some d' -> Alcotest.(check (option int)) "left 1" (Some 1) (Domain.is_singleton d')
  | None -> Alcotest.fail "remove emptied pair");
  Alcotest.(check bool) "remove last" true (Domain.remove 5 (Domain.singleton 5) = None);
  (match Domain.split (Domain.make ~lo:0 ~hi:9) with
  | Some (a, b) ->
    Alcotest.(check int) "left hi" 4 a.Domain.hi;
    Alcotest.(check int) "right lo" 5 b.Domain.lo
  | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "split singleton" true (Domain.split (Domain.singleton 2) = None)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_model_merge () =
  let stale = Model.of_bindings [ (0, 1); (1, 2) ] in
  let fresh = Model.of_bindings [ (1, 9) ] in
  let m = Model.union_prefer_left fresh stale in
  Alcotest.(check (option int)) "kept" (Some 1) (Model.find 0 m);
  Alcotest.(check (option int)) "overridden" (Some 9) (Model.find 1 m)

let test_model_changed_vars () =
  let before = Model.of_bindings [ (0, 1); (1, 2) ] in
  let after = Model.of_bindings [ (0, 1); (1, 3); (2, 4) ] in
  let changed = Model.changed_vars ~before ~after in
  Alcotest.(check bool) "same not changed" false (Varid.Set.mem 0 changed);
  Alcotest.(check bool) "diff changed" true (Varid.Set.mem 1 changed);
  Alcotest.(check bool) "new changed" true (Varid.Set.mem 2 changed)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let check_sat name cs =
  match Solver.solve cs with
  | Solver.Sat m ->
    Alcotest.(check bool) (name ^ ": model satisfies") true (Solver.holds_all m cs);
    m
  | Solver.Unsat -> Alcotest.failf "%s: unexpectedly unsat" name
  | Solver.Unknown -> Alcotest.failf "%s: unexpectedly unknown" name

let check_unsat ?doms name cs =
  let domains = Option.value doms ~default:Varid.Map.empty in
  match Solver.solve ~domains cs with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.failf "%s: unexpectedly sat" name
  | Solver.Unknown -> Alcotest.failf "%s: unexpectedly unknown" name

let test_solver_simple_eq () =
  (* x = 100 *)
  let cs = [ Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.const 100) ] in
  let m = check_sat "x=100" cs in
  Alcotest.(check (option int)) "value" (Some 100) (Model.find 0 m)

let test_solver_paper_example () =
  (* Figure 1 of the paper: negate x <> 100 under x/2 + y <= 200 — we use
     the linearized form x + 2y <= 400. *)
  let cs =
    [
      Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.const 100);
      Constr.cmp (Linexp.of_terms [ (1, 0); (2, 1) ] 0) Constr.Le (Linexp.const 400);
    ]
  in
  let m = check_sat "paper fig1" cs in
  Alcotest.(check (option int)) "x" (Some 100) (Model.find 0 m)

let test_solver_unsat_pair () =
  let cs =
    [
      Constr.cmp (Linexp.var 0) Constr.Gt (Linexp.const 10);
      Constr.cmp (Linexp.var 0) Constr.Lt (Linexp.const 5);
    ]
  in
  check_unsat "x>10 & x<5" cs

let test_solver_chain () =
  (* x0 < x1 < x2 < x3, all in [0,3] forces 0,1,2,3. *)
  let doms =
    List.fold_left
      (fun acc v -> Varid.Map.add v (Domain.make ~lo:0 ~hi:3) acc)
      Varid.Map.empty [ 0; 1; 2; 3 ]
  in
  let cs =
    [
      Constr.cmp (Linexp.var 0) Constr.Lt (Linexp.var 1);
      Constr.cmp (Linexp.var 1) Constr.Lt (Linexp.var 2);
      Constr.cmp (Linexp.var 2) Constr.Lt (Linexp.var 3);
    ]
  in
  match Solver.solve ~domains:doms cs with
  | Solver.Sat m ->
    List.iteri
      (fun i v -> Alcotest.(check (option int)) "forced" (Some i) (Model.find v m))
      [ 0; 1; 2; 3 ]
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "chain should be sat"

let test_solver_equalities_system () =
  (* x + y = 10 and x - y = 4  =>  x = 7, y = 3. *)
  let cs =
    [
      Constr.cmp (Linexp.add (Linexp.var 0) (Linexp.var 1)) Constr.Eq (Linexp.const 10);
      Constr.cmp (Linexp.sub (Linexp.var 0) (Linexp.var 1)) Constr.Eq (Linexp.const 4);
    ]
  in
  let m = check_sat "system" cs in
  Alcotest.(check (option int)) "x" (Some 7) (Model.find 0 m);
  Alcotest.(check (option int)) "y" (Some 3) (Model.find 1 m)

let test_solver_disequality () =
  let doms = Varid.Map.singleton 0 (Domain.make ~lo:5 ~hi:5) in
  check_unsat ~doms "x=5 dom & x<>5"
    [ Constr.cmp (Linexp.var 0) Constr.Ne (Linexp.const 5) ]

let test_solver_prefers_previous () =
  let prefer = Model.of_bindings [ (0, 42) ] in
  let cs = [ Constr.cmp (Linexp.var 0) Constr.Ge (Linexp.const 10) ] in
  match Solver.solve ~prefer cs with
  | Solver.Sat m -> Alcotest.(check (option int)) "kept 42" (Some 42) (Model.find 0 m)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "should be sat"

let test_solver_caps_as_domains () =
  (* Input capping: x <= 300 as a domain bound plus x >= 250. *)
  let doms = Varid.Map.singleton 0 (Domain.make ~lo:0 ~hi:300) in
  let cs = [ Constr.cmp (Linexp.var 0) Constr.Ge (Linexp.const 250) ] in
  match Solver.solve ~domains:doms cs with
  | Solver.Sat m ->
    let x = Model.get 0 ~default:(-1) m in
    Alcotest.(check bool) "within cap" true (x >= 250 && x <= 300)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "should be sat"

let test_solver_incremental_stale () =
  (* Constraints: x0 >= 0 (indep), x1 = x2 (linked). Negating within the
     x1/x2 component must not touch x0. *)
  let prev = Model.of_bindings [ (0, 7); (1, 1); (2, 1) ] in
  let target = Constr.cmp (Linexp.var 1) Constr.Eq (Linexp.const 3) in
  let cs =
    [
      Constr.make (Linexp.var 0) Constr.Ge;
      Constr.cmp (Linexp.var 1) Constr.Eq (Linexp.var 2);
      target;
    ]
  in
  match Solver.solve_incremental ~prev ~target cs with
  | Ok r ->
    Alcotest.(check (option int)) "x0 stale" (Some 7) (Model.find 0 r.Solver.model);
    Alcotest.(check (option int)) "x1 fresh" (Some 3) (Model.find 1 r.Solver.model);
    Alcotest.(check (option int)) "x2 follows" (Some 3) (Model.find 2 r.Solver.model);
    Alcotest.(check bool) "x0 not resolved" false (Varid.Set.mem 0 r.Solver.resolved);
    Alcotest.(check bool) "x1 changed" true (Varid.Set.mem 1 r.Solver.changed)
  | Error `Unsat -> Alcotest.fail "unexpectedly unsat"
  | Error `Unknown -> Alcotest.fail "unexpectedly unknown"

let test_solver_incremental_unsat () =
  let prev = Model.of_bindings [ (0, 1) ] in
  let target = Constr.cmp (Linexp.var 0) Constr.Lt (Linexp.const 0) in
  let cs = [ Constr.make (Linexp.var 0) Constr.Ge; target ] in
  match Solver.solve_incremental ~prev ~target cs with
  | Error `Unsat -> ()
  | Ok _ -> Alcotest.fail "should be unsat"
  | Error `Unknown -> Alcotest.fail "should be unsat, got unknown"

let test_solver_trivial_sets () =
  (match Solver.solve [] with
  | Solver.Sat _ -> ()
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "empty set is sat");
  check_unsat "trivially false" [ Constr.make (Linexp.const 1) Constr.Eq ]

let test_solver_negative_coefficients () =
  (* -3x + 2y = 5 and x = 1  =>  y = 4 *)
  let cs =
    [
      Constr.cmp (Linexp.of_terms [ (-3, 0); (2, 1) ] 0) Constr.Eq (Linexp.const 5);
      Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.const 1);
    ]
  in
  let m = check_sat "neg coeff" cs in
  Alcotest.(check (option int)) "y" (Some 4) (Model.find 1 m)

let test_solver_ne_at_bounds () =
  (* x in [5, 6] and x <> 5 forces 6 *)
  let doms = Varid.Map.singleton 0 (Domain.make ~lo:5 ~hi:6) in
  let cs = [ Constr.cmp (Linexp.var 0) Constr.Ne (Linexp.const 5) ] in
  match Solver.solve ~domains:doms cs with
  | Solver.Sat m -> Alcotest.(check (option int)) "forced" (Some 6) (Model.find 0 m)
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "should be sat"

let test_solver_incremental_transitive () =
  (* chain x0 = x1, x1 = x2: negating something about x0 re-solves x2 *)
  let prev = Model.of_bindings [ (0, 1); (1, 1); (2, 1); (5, 9) ] in
  let target = Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.const 4) in
  let cs =
    [
      Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.var 1);
      Constr.cmp (Linexp.var 1) Constr.Eq (Linexp.var 2);
      Constr.make (Linexp.var 5) Constr.Ge;
      target;
    ]
  in
  match Solver.solve_incremental ~prev ~target cs with
  | Ok r ->
    Alcotest.(check (option int)) "x2 follows chain" (Some 4) (Model.find 2 r.Solver.model);
    Alcotest.(check bool) "x5 untouched" false (Varid.Set.mem 5 r.Solver.resolved);
    Alcotest.(check (option int)) "x5 stale" (Some 9) (Model.find 5 r.Solver.model)
  | Error _ -> Alcotest.fail "should be sat"

let test_solver_equality_and_strict_chain () =
  (* x < y, y < z, z <= 3, x >= 1: forces x=1,y=2,z=3 *)
  let cs =
    [
      Constr.cmp (Linexp.var 0) Constr.Lt (Linexp.var 1);
      Constr.cmp (Linexp.var 1) Constr.Lt (Linexp.var 2);
      Constr.cmp (Linexp.var 2) Constr.Le (Linexp.const 3);
      Constr.cmp (Linexp.var 0) Constr.Ge (Linexp.const 1);
    ]
  in
  let m = check_sat "strict chain" cs in
  Alcotest.(check (option int)) "x" (Some 1) (Model.find 0 m);
  Alcotest.(check (option int)) "y" (Some 2) (Model.find 1 m);
  Alcotest.(check (option int)) "z" (Some 3) (Model.find 2 m)

let prop_prefer_stable =
  (* if the previous model already satisfies the set, the solver keeps it *)
  QCheck.Test.make ~name:"solver: satisfied prefer model is kept" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* x = int_range (-50) 50 in
         let* k = int_range (-50) 50 in
         return (x, k)))
    (fun (x, k) ->
      let c = Constr.cmp (Linexp.var 0) Constr.Ge (Linexp.const k) in
      let prefer = Model.of_bindings [ (0, x) ] in
      match Solver.solve ~prefer [ c ] with
      | Solver.Sat m -> if x >= k then Model.find 0 m = Some x else true
      | Solver.Unsat | Solver.Unknown -> false)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let gen_linexp =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* terms =
      list_repeat n (pair (int_range (-5) 5) (int_range 0 4))
    in
    let* k = int_range (-50) 50 in
    return (Linexp.of_terms (List.map (fun (c, v) -> (c, v)) terms) k))

let gen_rel =
  QCheck.Gen.oneofl [ Constr.Eq; Constr.Ne; Constr.Lt; Constr.Le; Constr.Gt; Constr.Ge ]

let gen_constr =
  QCheck.Gen.(
    let* e = gen_linexp in
    let* r = gen_rel in
    return (Constr.make e r))

let arb_constrs =
  QCheck.make
    ~print:(fun cs -> Fmt.str "%a" (Fmt.list ~sep:Fmt.comma Constr.pp) cs)
    QCheck.Gen.(int_range 1 6 >>= fun n -> list_repeat n gen_constr)

(* The heavy executor folds a concrete operand into a symbolic one with
   [plus_const]/[const_minus]; each must equal the merge it replaces and
   hash the same, or cache keys and reports would drift. [scale] by a
   multiple of a large power of two wraps some coefficient products to 0,
   the one shape where the merge (which drops zero terms) differs from a
   bare constant shift. *)
let gen_shifted_linexp =
  QCheck.Gen.(
    let* e = gen_linexp in
    let* s =
      oneof
        [
          return 1;
          int_range (-7) 7;
          oneofl [ min_int; 1 lsl 61; 3 lsl 61; -(1 lsl 60); max_int ];
        ]
    in
    let* k = oneof [ int_range (-50) 50; oneofl [ min_int; max_int ] ] in
    return (Linexp.scale s e, k))

let linexp_same a b = Linexp.equal a b && Linexp.hash a = Linexp.hash b

let prop_linexp_const_shortcuts =
  QCheck.Test.make ~name:"linexp: constant shortcuts equal the merge path" ~count:1000
    (QCheck.make
       ~print:(fun (e, k) ->
         Fmt.str "%a (terms %d) k=%d" Linexp.pp e (List.length (Linexp.terms e)) k)
       gen_shifted_linexp)
    (fun (e, k) ->
      linexp_same (Linexp.plus_const e k) (Linexp.add e (Linexp.const k))
      && linexp_same (Linexp.plus_const e k) (Linexp.add (Linexp.const k) e)
      && linexp_same (Linexp.plus_const e (-k)) (Linexp.sub e (Linexp.const k))
      && linexp_same (Linexp.const_minus k e) (Linexp.sub (Linexp.const k) e))

(* [add]/[sub] take one [union] when neither side holds a zero
   coefficient and the merge otherwise; either way the result must be
   the merge definition's: the terms of both sides summed per variable,
   zeros dropped ([of_terms]). [gen_shifted_linexp] scales by values
   that wrap some products to 0, so both paths run. *)
let prop_linexp_add_sub_match_merge =
  QCheck.Test.make ~name:"linexp: add and sub equal the merge definition" ~count:1000
    (QCheck.make
       ~print:(fun ((a, _), (b, _)) -> Fmt.str "%a | %a" Linexp.pp a Linexp.pp b)
       QCheck.Gen.(pair gen_shifted_linexp gen_shifted_linexp))
    (fun ((a, _), (b, _)) ->
      let merged sign =
        Linexp.of_terms
          (Linexp.terms a @ List.map (fun (c, v) -> (sign * c, v)) (Linexp.terms b))
          (Linexp.constant a + (sign * Linexp.constant b))
      in
      let same got want = linexp_same got want && Linexp.terms got = Linexp.terms want in
      same (Linexp.add a b) (merged 1) && same (Linexp.sub a b) (merged (-1)))

let test_linexp_shortcut_wrapped_scale () =
  (* min_int * 2 wraps to 0: [scale] keeps the zero term, the merge drops it *)
  let e = Linexp.scale min_int (Linexp.of_terms [ (2, 0); (3, 1) ] 0) in
  Alcotest.(check int) "scale keeps the wrapped term" 2 (List.length (Linexp.terms e));
  let shifted = Linexp.plus_const e 5 in
  Alcotest.(check bool) "equal to the merge" true
    (linexp_same shifted (Linexp.add e (Linexp.const 5)));
  Alcotest.(check int) "zero term dropped" 1 (List.length (Linexp.terms shifted));
  Alcotest.(check bool) "const_minus equal to the merge" true
    (linexp_same (Linexp.const_minus 5 e) (Linexp.sub (Linexp.const 5) e))

let prop_solver_sound =
  QCheck.Test.make ~name:"solver: Sat models satisfy all constraints" ~count:300
    arb_constrs (fun cs ->
      match Solver.solve ~budget:20_000 cs with
      | Solver.Sat m -> Solver.holds_all m cs
      | Solver.Unsat | Solver.Unknown -> true)

let prop_solver_unsat_no_small_model =
  (* If the solver says Unsat, brute force over a small box finds nothing. *)
  QCheck.Test.make ~name:"solver: Unsat confirmed by brute force on small box" ~count:25
    arb_constrs (fun cs ->
      let box = Domain.make ~lo:(-6) ~hi:6 in
      let doms =
        List.fold_left
          (fun acc v -> Varid.Map.add v box acc)
          Varid.Map.empty [ 0; 1; 2; 3; 4 ]
      in
      match Solver.solve ~budget:50_000 ~domains:doms cs with
      | Solver.Sat _ | Solver.Unknown -> true
      | Solver.Unsat ->
        (* exhaustive check over vars actually used *)
        let vars =
          Varid.Set.elements
            (List.fold_left
               (fun acc c -> Varid.Set.union acc (Constr.vars c))
               Varid.Set.empty cs)
        in
        let rec enum assigned = function
          | [] -> not (Solver.holds_all (Model.of_bindings assigned) cs)
          | v :: rest ->
            let ok = ref true in
            for x = -6 to 6 do
              if !ok then ok := enum ((v, x) :: assigned) rest
            done;
            !ok
        in
        enum [] vars)

let prop_negate_flips =
  QCheck.Test.make ~name:"constr: negation flips under random assignments" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* c = gen_constr in
         let* xs = list_repeat 5 (int_range (-100) 100) in
         return (c, xs)))
    (fun (c, xs) ->
      let lookup v = List.nth xs (v mod 5) in
      Constr.holds lookup c <> Constr.holds lookup (Constr.negate c))

let prop_linexp_eval_homomorphic =
  QCheck.Test.make ~name:"linexp: eval distributes over add/sub/scale" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* a = gen_linexp in
         let* b = gen_linexp in
         let* s = int_range (-4) 4 in
         let* xs = list_repeat 5 (int_range (-100) 100) in
         return (a, b, s, xs)))
    (fun (a, b, s, xs) ->
      let l v = List.nth xs (v mod 5) in
      Linexp.eval l (Linexp.add a b) = Linexp.eval l a + Linexp.eval l b
      && Linexp.eval l (Linexp.sub a b) = Linexp.eval l a - Linexp.eval l b
      && Linexp.eval l (Linexp.scale s a) = s * Linexp.eval l a
      && Linexp.eval l (Linexp.neg a) = -Linexp.eval l a)

let prop_incremental_preserves_untouched =
  QCheck.Test.make ~name:"solver: incremental solve keeps disjoint vars stale" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* k = int_range (-20) 20 in
         let* stale = int_range (-100) 100 in
         return (k, stale)))
    (fun (k, stale) ->
      (* var 9 never interacts with var 0's constraints *)
      let prev = Model.of_bindings [ (0, 0); (9, stale) ] in
      let target = Constr.cmp (Linexp.var 0) Constr.Eq (Linexp.const k) in
      let cs = [ Constr.make (Linexp.var 9) Constr.Ge; target ] in
      match Solver.solve_incremental ~prev ~target cs with
      | Ok r ->
        Model.find 9 r.Solver.model = Some stale
        && Model.find 0 r.Solver.model = Some k
        && not (Varid.Set.mem 9 r.Solver.resolved)
      | Error _ -> false)

(* Flat integer forms. Constraints come with the shapes a flat form must
   keep apart: coefficients that [scale] wrapped to 0 (kept as
   bindings), constants at min_int and max_int, and pairs that differ
   in one place only — the relation, the constant or its sign, one
   coefficient, one variable, or a missing last binding — or not at
   all, under another map shape. *)
let gen_flat_constr =
  QCheck.Gen.(
    let* e, k = gen_shifted_linexp in
    let* r = gen_rel in
    return (Constr.make (Linexp.add_const k e) r))

let bindings (c : Constr.t) =
  List.rev (Linexp.fold_terms (fun acc coeff v -> (v, coeff) :: acc) c.exp [])

let rebuild bs k rel = Constr.make (Linexp.of_bindings bs k) rel

let gen_near (c : Constr.t) =
  QCheck.Gen.(
    let bs = bindings c and k = Linexp.constant c.exp in
    let last_dropped = match List.rev bs with [] -> [] | _ :: tl -> List.rev tl in
    let on_one f = List.mapi (fun i (v, coeff) -> if i = 0 then f v coeff else (v, coeff)) bs in
    oneof
      [
        return (rebuild (List.rev bs) k c.rel);
        map (fun r -> rebuild bs k r) gen_rel;
        map (fun d -> rebuild bs (k + d) c.rel) (int_range (-1) 1);
        return (rebuild bs (-k) c.rel);
        map (fun d -> rebuild (on_one (fun v coeff -> (v, coeff + d))) k c.rel) (int_range (-1) 1);
        return (rebuild (on_one (fun v coeff -> (coeff, v))) k c.rel);
        return (rebuild last_dropped k c.rel);
        gen_flat_constr;
      ])

let arb_flat_pair =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "%a | %a" Constr.pp a Constr.pp b)
    QCheck.Gen.(gen_flat_constr >>= fun a -> map (fun b -> (a, b)) (gen_near a))

let sign n = compare n 0

let prop_flat_order =
  QCheck.Test.make ~name:"constr: flat forms order as compare" ~count:2000 arb_flat_pair
    (fun (a, b) ->
      sign (Constr.compare_flat (Constr.flat a) (Constr.flat b)) = sign (Constr.compare a b))

let prop_flat_equal =
  QCheck.Test.make ~name:"constr: equal flat forms iff equal" ~count:2000 arb_flat_pair
    (fun (a, b) ->
      (Constr.compare_flat (Constr.flat a) (Constr.flat b) = 0) = Constr.equal a b)

let prop_flat_decode =
  QCheck.Test.make ~name:"constr: of_flat inverts flat" ~count:1000
    (QCheck.make ~print:(Fmt.str "%a" Constr.pp) gen_flat_constr)
    (fun c ->
      let f = Constr.flat c in
      Constr.equal (Constr.of_flat f) c && Constr.compare_flat (Constr.flat (Constr.of_flat f)) f = 0)

(* Keys are compared as the cache compares them: each must hit where
   the other was stored, and both hold the same constraints. *)
let same_key a b =
  let hits held probe =
    let cache = Cache.create () in
    Cache.add cache held Cache.Unsat;
    Cache.find cache probe <> None
  in
  hits a b && hits b a && List.equal Constr.equal (Cache.key_constrs a) (Cache.key_constrs b)

let prop_key_canonical =
  QCheck.Test.make ~name:"cache: keys ignore order and duplicates" ~count:500
    (QCheck.make
       ~print:(fun (cs, cs') ->
         Fmt.str "%a || %a" (Fmt.list ~sep:Fmt.comma Constr.pp) cs
           (Fmt.list ~sep:Fmt.comma Constr.pp) cs')
       QCheck.Gen.(
         let* pool = list_size (int_range 1 4) gen_flat_constr in
         let* cs = list_size (int_range 0 8) (oneofl pool) in
         let* extra = list_size (int_range 0 4) (oneofl pool) in
         let* cs' = shuffle_l (cs @ List.filter (fun c -> List.memq c cs) extra) in
         return (cs, cs')))
    (fun (cs, cs') ->
      let domains =
        List.fold_left
          (fun m v -> Varid.Map.add v (Domain.make ~lo:(-8) ~hi:8) m)
          Varid.Map.empty [ 0; 1; 2 ]
      in
      same_key (Cache.key ~domains cs) (Cache.key ~domains cs'))

let unit_tests =
  [
    ("linexp const", `Quick, test_linexp_const);
    ("linexp combine", `Quick, test_linexp_combine);
    ("linexp cancellation", `Quick, test_linexp_cancellation);
    ("linexp scale", `Quick, test_linexp_scale);
    ("linexp duplicate terms", `Quick, test_linexp_duplicate_terms);
    ("linexp shortcut on wrapped scale", `Quick, test_linexp_shortcut_wrapped_scale);
    ("constr negate involutive", `Quick, test_negate_involutive);
    ("constr negate flips holds", `Quick, test_negate_flips_holds);
    ("constr trivial", `Quick, test_trivial);
    ("constr normalize tightens", `Quick, test_normalize_tightens);
    ("constr normalize divisibility", `Quick, test_normalize_divisibility);
    ("constr dependency closure", `Quick, test_dependency_closure);
    ("constr closure empty seed", `Quick, test_dependency_closure_empty_seed);
    ("domain basics", `Quick, test_domain_basics);
    ("domain clamp", `Quick, test_domain_clamp);
    ("domain inter", `Quick, test_domain_inter);
    ("solver unknown on tiny budget", `Quick, test_solver_unknown_on_tiny_budget);
    ("domain remove/split", `Quick, test_domain_remove_split);
    ("model merge", `Quick, test_model_merge);
    ("model changed vars", `Quick, test_model_changed_vars);
    ("solver simple eq", `Quick, test_solver_simple_eq);
    ("solver paper fig1", `Quick, test_solver_paper_example);
    ("solver unsat pair", `Quick, test_solver_unsat_pair);
    ("solver ordering chain", `Quick, test_solver_chain);
    ("solver equality system", `Quick, test_solver_equalities_system);
    ("solver disequality", `Quick, test_solver_disequality);
    ("solver prefers previous", `Quick, test_solver_prefers_previous);
    ("solver caps as domains", `Quick, test_solver_caps_as_domains);
    ("solver incremental stale", `Quick, test_solver_incremental_stale);
    ("solver incremental unsat", `Quick, test_solver_incremental_unsat);
    ("solver trivial sets", `Quick, test_solver_trivial_sets);
    ("solver negative coefficients", `Quick, test_solver_negative_coefficients);
    ("solver ne at bounds", `Quick, test_solver_ne_at_bounds);
    ("solver incremental transitive", `Quick, test_solver_incremental_transitive);
    ("solver strict chain", `Quick, test_solver_equality_and_strict_chain);
  ]

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_solver_sound;
      prop_solver_unsat_no_small_model;
      prop_negate_flips;
      prop_linexp_eval_homomorphic;
      prop_incremental_preserves_untouched;
      prop_prefer_stable;
      prop_normalize_preserves_solutions;
      prop_linexp_const_shortcuts;
      prop_linexp_add_sub_match_merge;
      prop_flat_order;
      prop_flat_equal;
      prop_flat_decode;
      prop_key_canonical;
    ]

let suite = [ ("smt:unit", unit_tests); ("smt:property", property_tests) ]
