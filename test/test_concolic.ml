(* Tests for the concolic engine: coverage store, symbol table, path log
   with constraint-set reduction, execution records, search strategies. *)

open Concolic

let mk_constr ?(rel = Smt.Constr.Lt) var k =
  Smt.Constr.cmp (Smt.Linexp.var var) rel (Smt.Linexp.const k)

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let test_coverage_basics () =
  let c = Coverage.create () in
  Coverage.add_branch c 4;
  Coverage.add_branch c 4;
  Coverage.add_branch c 5;
  Coverage.add_func c "main";
  Alcotest.(check int) "distinct branches" 2 (Coverage.covered_branches c);
  Alcotest.(check bool) "mem" true (Coverage.mem_branch c 4);
  Alcotest.(check bool) "not mem" false (Coverage.mem_branch c 9);
  Alcotest.(check bool) "func" true (Coverage.encountered c "main")

let test_coverage_absorb () =
  let a = Coverage.create () and b = Coverage.create () in
  Coverage.add_branch a 1;
  Coverage.add_branch b 2;
  Coverage.add_func b "f";
  Coverage.absorb ~into:a b;
  Alcotest.(check int) "union" 2 (Coverage.covered_branches a);
  Alcotest.(check bool) "func carried" true (Coverage.encountered a "f");
  (* absorb must not mutate the source *)
  Alcotest.(check int) "source untouched" 1 (Coverage.covered_branches b)

(* ------------------------------------------------------------------ *)
(* Symtab                                                              *)
(* ------------------------------------------------------------------ *)

let test_symtab_input_reuse () =
  let tab = Symtab.create () in
  let v1 = Symtab.fresh_input tab ~name:"n" ~hi:100 ~concrete:5 () in
  let v2 = Symtab.fresh_input tab ~name:"n" ~hi:100 ~concrete:5 () in
  let v3 = Symtab.fresh_input tab ~name:"m" ~concrete:7 () in
  Alcotest.(check int) "same var" v1 v2;
  Alcotest.(check bool) "distinct inputs distinct vars" true (v1 <> v3);
  Alcotest.(check int) "two entries" 2 (List.length (Symtab.entries tab))

let test_symtab_sem_fresh_per_invocation () =
  let tab = Symtab.create () in
  let r1 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let r2 = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  Alcotest.(check bool) "each invocation a fresh rw" true (r1 <> r2)

let test_symtab_model_and_domains () =
  let tab = Symtab.create () in
  let vn = Symtab.fresh_input tab ~name:"n" ~lo:0 ~hi:300 ~concrete:42 () in
  let vs = Symtab.fresh_sem tab ~kind:Symtab.Size_world ~concrete:8 () in
  let model = Symtab.model tab in
  Alcotest.(check (option int)) "n concrete" (Some 42) (Smt.Model.find vn model);
  Alcotest.(check (option int)) "sw concrete" (Some 8) (Smt.Model.find vs model);
  let doms = Symtab.domains tab in
  (match Smt.Varid.Map.find_opt vn doms with
  | Some d ->
    Alcotest.(check int) "cap hi" 300 d.Smt.Domain.hi;
    Alcotest.(check int) "cap lo" 0 d.Smt.Domain.lo
  | None -> Alcotest.fail "missing domain");
  match Smt.Varid.Map.find_opt vs doms with
  | Some d -> Alcotest.(check int) "sw lo 1" 1 d.Smt.Domain.lo
  | None -> Alcotest.fail "missing sw domain"

let test_symtab_input_projection () =
  let tab = Symtab.create () in
  let vn = Symtab.fresh_input tab ~name:"n" ~concrete:1 () in
  let _ = Symtab.fresh_sem tab ~kind:Symtab.Rank_world ~concrete:0 () in
  let solved = Smt.Model.of_bindings [ (vn, 99) ] in
  Alcotest.(check (list (pair string int))) "projection" [ ("n", 99) ]
    (Symtab.input_values tab solved)

(* ------------------------------------------------------------------ *)
(* Pathlog & constraint-set reduction                                  *)
(* ------------------------------------------------------------------ *)

let test_pathlog_no_reduction () =
  let log = Pathlog.create ~reduce:false in
  for _ = 1 to 100 do
    Pathlog.record log ~cond_id:3 ~taken:true ~constr:(Some (mk_constr 0 100))
  done;
  Pathlog.record log ~cond_id:3 ~taken:false ~constr:(Some (mk_constr ~rel:Smt.Constr.Ge 0 100));
  Alcotest.(check int) "all kept" 101 (Pathlog.constraint_count log);
  Alcotest.(check int) "all events" 101 (Pathlog.branch_events log)

let test_pathlog_reduction_loop () =
  (* The paper's Figure 7: a loop produces 100 same-direction constraints
     and one final flip; reduction keeps the first and the flip. *)
  let log = Pathlog.create ~reduce:true in
  for _ = 1 to 100 do
    Pathlog.record log ~cond_id:3 ~taken:true ~constr:(Some (mk_constr 0 100))
  done;
  Pathlog.record log ~cond_id:3 ~taken:false ~constr:(Some (mk_constr ~rel:Smt.Constr.Ge 0 100));
  Alcotest.(check int) "first + flip" 2 (Pathlog.constraint_count log);
  Alcotest.(check int) "coverage events all kept" 101 (Pathlog.branch_events log)

let test_pathlog_reduction_alternating () =
  (* Alternating outcomes always flip, so nothing is dropped. *)
  let log = Pathlog.create ~reduce:true in
  for k = 0 to 9 do
    Pathlog.record log ~cond_id:1 ~taken:(k mod 2 = 0) ~constr:(Some (mk_constr 0 k))
  done;
  Alcotest.(check int) "no drops when flipping" 10 (Pathlog.constraint_count log)

let test_pathlog_reduction_per_conditional () =
  (* Reduction state is per conditional statement. *)
  let log = Pathlog.create ~reduce:true in
  Pathlog.record log ~cond_id:1 ~taken:true ~constr:(Some (mk_constr 0 1));
  Pathlog.record log ~cond_id:2 ~taken:true ~constr:(Some (mk_constr 0 2));
  Pathlog.record log ~cond_id:1 ~taken:true ~constr:(Some (mk_constr 0 3));
  Pathlog.record log ~cond_id:2 ~taken:true ~constr:(Some (mk_constr 0 4));
  Alcotest.(check int) "one per conditional" 2 (Pathlog.constraint_count log)

let test_pathlog_concrete_branches () =
  let log = Pathlog.create ~reduce:true in
  Pathlog.record log ~cond_id:5 ~taken:true ~constr:None;
  Pathlog.record log ~cond_id:5 ~taken:false ~constr:None;
  Alcotest.(check int) "no constraints" 0 (Pathlog.constraint_count log);
  Alcotest.(check int) "events recorded" 2 (Pathlog.branch_events log)

let test_pathlog_constraints_order () =
  let log = Pathlog.create ~reduce:false in
  Pathlog.record log ~cond_id:0 ~taken:true ~constr:(Some (mk_constr 0 10));
  Pathlog.record log ~cond_id:1 ~taken:false ~constr:(Some (mk_constr 0 20));
  let arr = Pathlog.constraints log in
  Alcotest.(check int) "two" 2 (Array.length arr);
  Alcotest.(check int) "first branch id" (Minic.Branchinfo.branch_of_cond 0 true) (fst arr.(0));
  Alcotest.(check int) "second branch id" (Minic.Branchinfo.branch_of_cond 1 false) (fst arr.(1))

let test_pathlog_serialize_roundtrip () =
  let log = Pathlog.create ~reduce:false in
  Pathlog.record log ~cond_id:0 ~taken:true ~constr:(Some (mk_constr 3 10));
  Pathlog.record log ~cond_id:1 ~taken:false ~constr:None;
  Pathlog.record log ~cond_id:2 ~taken:true ~constr:(Some (mk_constr ~rel:Smt.Constr.Ge 4 7));
  let text = Pathlog.serialize log in
  Alcotest.(check int) "one record per event" (Pathlog.branch_events log)
    (Pathlog.parse_count text);
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go k = k + nn <= nh && (String.sub text k nn = needle || go (k + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions var x3" true (contains "1*3");
  Alcotest.(check bool) "mentions relation" true (contains "<");
  Alcotest.(check bool) "grows with events" true
    (String.length text > 3 * String.length "1\n")

let test_pathlog_serialize_reduction_smaller () =
  let fill log =
    for _ = 1 to 500 do
      Pathlog.record log ~cond_id:9 ~taken:true ~constr:(Some (mk_constr 0 100))
    done
  in
  let with_r = Pathlog.create ~reduce:true in
  let without = Pathlog.create ~reduce:false in
  fill with_r;
  fill without;
  Alcotest.(check bool) "reduced log much smaller" true
    (String.length (Pathlog.serialize without)
    > 3 * String.length (Pathlog.serialize with_r))

(* Integers whose decimal form is easy to get wrong: zero, both sides of
   each sign and width boundary, long negatives, and the extremes, where
   [-min_int] overflows. *)
let decimal_boundaries =
  [ 0; 1; -1; 9; -9; 10; -10; 99; -99; 100; -100; 9999; -9999; 10_000; -10_000;
    99_999_999; 100_000_000; -1_000_000_000_000; -123_456_789_012_345;
    max_int; max_int - 1; min_int; min_int + 1 ]

(* The renderer's decimal writer, seen through [serialize] in the
   coefficient, variable and constant positions, agrees with
   [string_of_int]. *)
let test_pathlog_decimal_writer () =
  List.iter
    (fun v ->
      let coeff = if v = 0 then 1 else v in
      let log = Pathlog.create ~reduce:false in
      Pathlog.record log ~cond_id:0 ~taken:true
        ~constr:(Some (Smt.Constr.make (Smt.Linexp.of_terms [ (coeff, v) ] v) Smt.Constr.Le));
      Alcotest.(check string) (string_of_int v)
        ("0 <= " ^ string_of_int coeff ^ "*" ^ string_of_int v ^ " " ^ string_of_int v ^ "\n")
        (Pathlog.serialize log))
    decimal_boundaries

let test_pathlog_bytes () =
  let log = Pathlog.create ~reduce:false in
  for k = 0 to 99 do
    Pathlog.record log ~cond_id:k ~taken:true ~constr:(Some (mk_constr 0 k))
  done;
  (* header, 8 bytes per event, 32 per one-term constraint *)
  Alcotest.(check int) "heavy bytes" (64 + (8 * 100) + (32 * 100)) (Pathlog.heavy_bytes log);
  Alcotest.(check int) "constraints" 100 (Pathlog.constraint_count log)

(* A log whose event buffer was released by an earlier, longer log reads
   exactly like a log on a fresh buffer: the stale events beyond the new
   log's end never show. Two logs live at once each keep their own
   buffer, as in a one-way run. *)
let test_pathlog_reused_buffer () =
  let events log seed n =
    for k = 0 to n - 1 do
      let cond_id = (k * seed) mod 37 in
      Pathlog.record log ~cond_id ~taken:((k + seed) mod 3 = 0)
        ~constr:(if k mod 4 = 0 then None else Some (mk_constr (k mod 5) (k - seed)))
    done
  in
  let observe log =
    ( Pathlog.serialize log,
      Pathlog.tail ~n:12 log,
      (Pathlog.heavy_bytes log, Pathlog.constraint_count log),
      Array.map fst (Pathlog.constraints log) )
  in
  (* take every buffer this domain holds from earlier runs (it keeps far
     fewer than 64), so only the two released below are spare *)
  ignore (List.init 64 (fun _ -> Pathlog.create ~reduce:false));
  let long_a = Pathlog.create ~reduce:true and long_b = Pathlog.create ~reduce:false in
  events long_a 3 500;
  events long_b 5 300;
  Pathlog.release long_a;
  Pathlog.release long_b;
  Pathlog.release long_b;
  (* both take a released buffer, full of the long logs' events *)
  let reused_a = Pathlog.create ~reduce:true and reused_b = Pathlog.create ~reduce:false in
  events reused_a 7 40;
  events reused_b 11 90;
  let fresh_a = Pathlog.create ~reduce:true and fresh_b = Pathlog.create ~reduce:false in
  events fresh_a 7 40;
  events fresh_b 11 90;
  let check name fresh reused =
    let text_f, tail_f, sizes_f, branches_f = observe fresh in
    let text_r, tail_r, sizes_r, branches_r = observe reused in
    Alcotest.(check string) (name ^ ": serialized bytes") text_f text_r;
    Alcotest.(check (list (pair int bool))) (name ^ ": tail") tail_f tail_r;
    Alcotest.(check (pair int int)) (name ^ ": sizes") sizes_f sizes_r;
    Alcotest.(check (array int)) (name ^ ": constraint branches") branches_f branches_r
  in
  check "reduced log" fresh_a reused_a;
  check "unreduced log" fresh_b reused_b;
  Pathlog.release reused_a;
  Alcotest.(check int) "released log keeps its counts" 40 (Pathlog.branch_events reused_a);
  Alcotest.check_raises "a released log records no more"
    (Invalid_argument "index out of bounds") (fun () ->
      Pathlog.record reused_a ~cond_id:0 ~taken:true ~constr:None)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let mk_record ?(extra = []) constrs model =
  {
    Execution.constraints = Array.of_list (List.mapi (fun k c -> (k, c)) constrs);
    symtab = Symtab.create ();
    model;
    domains = Smt.Varid.Map.empty;
    extra;
    nprocs = 4;
    focus = 0;
    mapping = [];
    exec_id = -1;
    exec_schedule = [];
    closure_index = None;
  }

let test_execution_prefix () =
  let r = mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3 ] Smt.Model.empty in
  Alcotest.(check int) "len" 3 (Execution.length r);
  Alcotest.(check int) "prefix 0" 0 (List.length (Execution.prefix r 0));
  Alcotest.(check int) "prefix 2" 2 (List.length (Execution.prefix r 2))

let test_execution_solve_negation () =
  (* path: x < 10 (x was 5); negating yields x >= 10 *)
  let model = Smt.Model.of_bindings [ (0, 5) ] in
  let r = mk_record [ mk_constr 0 10 ] model in
  match Execution.solve_negation r 0 with
  | Ok res ->
    let x = Smt.Model.get 0 ~default:(-1) res.Smt.Solver.model in
    Alcotest.(check bool) "x >= 10" true (x >= 10)
  | Error _ -> Alcotest.fail "should be solvable"

let test_execution_negation_respects_prefix () =
  (* path: x >= 0, x < 10. Negating index 1 must keep x >= 0. *)
  let model = Smt.Model.of_bindings [ (0, 5) ] in
  let r =
    mk_record [ mk_constr ~rel:Smt.Constr.Ge 0 0; mk_constr 0 10 ] model
  in
  match Execution.solve_negation r 1 with
  | Ok res ->
    let x = Smt.Model.get 0 ~default:(-1) res.Smt.Solver.model in
    Alcotest.(check bool) "x >= 10 and x >= 0" true (x >= 10)
  | Error _ -> Alcotest.fail "should be solvable"

let test_execution_negation_unsat () =
  (* path: x >= 10, x >= 0. Negating index 1 (x < 0) conflicts with the
     prefix. *)
  let model = Smt.Model.of_bindings [ (0, 15) ] in
  let r =
    mk_record [ mk_constr ~rel:Smt.Constr.Ge 0 10; mk_constr ~rel:Smt.Constr.Ge 0 0 ] model
  in
  match Execution.solve_negation r 1 with
  | Error `Unsat -> ()
  | Ok _ -> Alcotest.fail "should be unsat"
  | Error `Unknown -> Alcotest.fail "should be unsat, not unknown"

let test_execution_extra_constraints () =
  (* extra: x <= 20 always holds; negating x < 10 must respect it *)
  let model = Smt.Model.of_bindings [ (0, 5) ] in
  let extra = [ mk_constr ~rel:Smt.Constr.Le 0 20 ] in
  let r = mk_record ~extra [ mk_constr 0 10 ] model in
  match Execution.solve_negation r 0 with
  | Ok res ->
    let x = Smt.Model.get 0 ~default:(-1) res.Smt.Solver.model in
    Alcotest.(check bool) "10 <= x <= 20" true (x >= 10 && x <= 20)
  | Error _ -> Alcotest.fail "should be solvable"

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

let test_dfs_order () =
  (* CREST order: shallowest position of the newest path first, and a
     new execution's candidates take priority over its parent's. *)
  let s = Strategy.create (Strategy.Bounded_dfs 1000) in
  let r = mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3 ] Smt.Model.empty in
  Strategy.observe s ~depth:0 r;
  let cov = Coverage.create () in
  (match Strategy.next s ~coverage:cov with
  | Some c -> Alcotest.(check int) "shallowest first" 0 c.Strategy.index
  | None -> Alcotest.fail "expected candidate");
  (* a new execution derived from negating position 0 *)
  let r2 = mk_record [ mk_constr 0 9; mk_constr 0 8; mk_constr 0 7 ] Smt.Model.empty in
  Strategy.observe s ~depth:1 r2;
  (match Strategy.next s ~coverage:cov with
  | Some c ->
    Alcotest.(check bool) "descends into the new execution" true
      (c.Strategy.record == r2 && c.Strategy.index = 1)
  | None -> Alcotest.fail "expected candidate");
  match Strategy.next s ~coverage:cov with
  | Some c ->
    Alcotest.(check bool) "continues in the new execution" true
      (c.Strategy.record == r2 && c.Strategy.index = 2)
  | None -> Alcotest.fail "expected candidate"

let test_dfs_depth_resume () =
  let s = Strategy.create (Strategy.Bounded_dfs 1000) in
  let r = mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3 ] Smt.Model.empty in
  (* observed from depth 2: only index 2 is new *)
  Strategy.observe s ~depth:2 r;
  Alcotest.(check int) "one pending" 1 (Strategy.stack_size s)

let test_dfs_bound_skips_deep () =
  let s = Strategy.create (Strategy.Bounded_dfs 2) in
  let r =
    mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3; mk_constr 0 4 ] Smt.Model.empty
  in
  Strategy.observe s ~depth:0 r;
  Alcotest.(check int) "bound caps stack" 2 (Strategy.stack_size s)

let test_dfs_exhaustion () =
  let s = Strategy.create (Strategy.Bounded_dfs 10) in
  let cov = Coverage.create () in
  Alcotest.(check bool) "empty at start" true (Strategy.next s ~coverage:cov = None)

let test_random_strategies_in_range () =
  let cov = Coverage.create () in
  let r = mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3 ] Smt.Model.empty in
  List.iter
    (fun kind ->
      let s = Strategy.create kind in
      Strategy.observe s ~depth:0 r;
      for _ = 1 to 20 do
        match Strategy.next s ~coverage:cov with
        | Some c ->
          Alcotest.(check bool) "index in range" true
            (c.Strategy.index >= 0 && c.Strategy.index < 3)
        | None -> Alcotest.fail "stateless strategy should always produce"
      done)
    [ Strategy.Random_branch; Strategy.Uniform_random ]

let test_random_branch_picks_last_occurrence () =
  (* Path with one conditional appearing 3 times: random-branch must
     always negate the last occurrence. *)
  let c = mk_constr 0 5 in
  let r =
    {
      (mk_record [ c; c; c ] Smt.Model.empty) with
      Execution.constraints =
        [| (Minic.Branchinfo.branch_of_cond 7 true, c);
           (Minic.Branchinfo.branch_of_cond 7 true, c);
           (Minic.Branchinfo.branch_of_cond 7 false, c) |];
    }
  in
  let s = Strategy.create Strategy.Random_branch in
  Strategy.observe s ~depth:0 r;
  let cov = Coverage.create () in
  for _ = 1 to 10 do
    match Strategy.next s ~coverage:cov with
    | Some cand -> Alcotest.(check int) "last occurrence" 2 cand.Strategy.index
    | None -> Alcotest.fail "expected candidate"
  done

let test_generational_prefers_uncovered_flips () =
  let s = Strategy.create (Strategy.Generational 100) in
  let c = mk_constr 0 5 in
  let r =
    {
      (mk_record [ c; c; c ] Smt.Model.empty) with
      Execution.constraints =
        [| (Minic.Branchinfo.branch_of_cond 0 true, c);
           (Minic.Branchinfo.branch_of_cond 1 true, c);
           (Minic.Branchinfo.branch_of_cond 2 true, c) |];
    }
  in
  Strategy.observe s ~depth:0 r;
  let cov = Coverage.create () in
  (* both sides of conds 0 and 2 covered; flipping cond 1 is the only
     promising candidate *)
  List.iter
    (fun b -> Coverage.add_branch cov b)
    [ 0; 1; 4; 5; Minic.Branchinfo.branch_of_cond 1 true ];
  (match Strategy.next s ~coverage:cov with
  | Some cand -> Alcotest.(check int) "promising first" 1 cand.Strategy.index
  | None -> Alcotest.fail "expected candidate");
  (* exhausted promising: falls back to remaining candidates *)
  Alcotest.(check bool) "pool not empty" true (Strategy.stack_size s > 0)

let test_generational_bound_limits_pool () =
  let s = Strategy.create (Strategy.Generational 2) in
  let r =
    mk_record [ mk_constr 0 1; mk_constr 0 2; mk_constr 0 3; mk_constr 0 4 ] Smt.Model.empty
  in
  Strategy.observe s ~depth:0 r;
  Alcotest.(check int) "pool capped at bound" 2 (Strategy.stack_size s)

let test_cfg_strategy_prefers_uncovered () =
  (* Program: if(a){ if(b){} } — covering everything except cond 1's
     branches should make the CFG strategy pick cond 0 or 1 positions
     leading toward them. *)
  let open Minic in
  let open Builder in
  let p =
    program
      [
        func "main" []
          [
            decl "a" (i 1);
            decl "b" (i 0);
            if_ (v "a" >: i 0) [ if_ (v "b" >: i 0) [] [] ] [];
          ];
      ]
  in
  let info = Branchinfo.instrument (Check.check_exn p) in
  let g = Cfg.build info in
  let s = Strategy.create (Strategy.Cfg_directed g) in
  let c0 = mk_constr 0 5 in
  let r =
    {
      (mk_record [ c0; c0 ] Smt.Model.empty) with
      Execution.constraints =
        [| (Branchinfo.branch_of_cond 0 true, c0); (Branchinfo.branch_of_cond 1 false, c0) |];
    }
  in
  Strategy.observe s ~depth:0 r;
  let cov = Coverage.create () in
  Coverage.add_branch cov (Branchinfo.branch_of_cond 0 true);
  Coverage.add_branch cov (Branchinfo.branch_of_cond 0 false);
  Coverage.add_branch cov (Branchinfo.branch_of_cond 1 false);
  (* only 1T uncovered; flipping position 1 reaches it directly *)
  match Strategy.next s ~coverage:cov with
  | Some cand -> Alcotest.(check int) "flip toward uncovered" 1 cand.Strategy.index
  | None -> Alcotest.fail "expected candidate"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_reduction_never_more =
  QCheck.Test.make ~name:"pathlog: reduction keeps a subset" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 60) (pair (int_range 0 5) bool)))
    (fun events ->
      let with_r = Pathlog.create ~reduce:true in
      let without = Pathlog.create ~reduce:false in
      List.iter
        (fun (cond_id, taken) ->
          let constr = Some (mk_constr 0 cond_id) in
          Pathlog.record with_r ~cond_id ~taken ~constr;
          Pathlog.record without ~cond_id ~taken ~constr)
        events;
      Pathlog.constraint_count with_r <= Pathlog.constraint_count without
      && Pathlog.branch_events with_r = Pathlog.branch_events without)

let prop_reduction_keeps_flips =
  (* Every boolean flip of a conditional is preserved by reduction. *)
  QCheck.Test.make ~name:"pathlog: reduction keeps every flip" ~count:200
    QCheck.(make Gen.(list_size (int_range 1 60) bool))
    (fun outcomes ->
      let log = Pathlog.create ~reduce:true in
      List.iter
        (fun taken -> Pathlog.record log ~cond_id:0 ~taken ~constr:(Some (mk_constr 0 1)))
        outcomes;
      let flips =
        fst
          (List.fold_left
             (fun (n, prev) cur ->
               match prev with
               | None -> (n + 1, Some cur)  (* first counts *)
               | Some p when p <> cur -> (n + 1, Some cur)
               | Some _ -> (n, Some cur))
             (0, None) outcomes)
      in
      Pathlog.constraint_count log = flips)

(* A heavy executor builds a branch constraint only when [Pathlog.keeps]
   says the log will keep it, and records [None] otherwise. A log fed
   that way must equal one fed every constraint: the same rendered
   bytes, kept constraints and tail, with reduction on or off. *)
let prop_keeps_agrees_with_record =
  QCheck.Test.make ~name:"pathlog: recording only what keeps admits changes nothing"
    ~count:300
    QCheck.(
      make
        Gen.(
          pair bool
            (list_size (int_range 1 80)
               (triple (oneof [ int_range 0 7; int_range 60 140 ]) bool bool))))
    (fun (reduce, events) ->
      let full = Pathlog.create ~reduce and lean = Pathlog.create ~reduce in
      List.iteri
        (fun k (cond_id, taken, symbolic) ->
          let constr = if symbolic then Some (mk_constr (k mod 3) k) else None in
          Pathlog.record full ~cond_id ~taken ~constr;
          let kept = symbolic && Pathlog.keeps lean ~cond_id ~taken in
          Pathlog.record lean ~cond_id ~taken ~constr:(if kept then constr else None))
        events;
      let a = Pathlog.constraints full and b = Pathlog.constraints lean in
      let same =
        Pathlog.serialize full = Pathlog.serialize lean
        && Pathlog.tail ~n:100 full = Pathlog.tail ~n:100 lean
        && Array.length a = Array.length b
        && Array.for_all2 (fun (i, c) (j, d) -> i = j && Smt.Constr.equal c d) a b
      in
      Pathlog.release full;
      Pathlog.release lean;
      same)

(* Reference model of the coverage store: sorted sets of branch ids and
   function names. *)
module Iset = Set.Make (Int)
module Sset = Set.Make (String)

type cov_op = Branch of int | Func of string | Absorb of cov_op list | Copy

(* ids straddle the map's initial capacity, with some far beyond it *)
let gen_branch_id =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 300); (2, int_range 0 5_000); (1, int_range 5_000 70_000) ])

let gen_cov_ops =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          (6, map (fun b -> Branch b) gen_branch_id);
          (2, map (fun fn -> Func fn) (oneofl [ "main"; "f"; "g"; "h_1" ]));
          (1, return Copy);
        ]
    in
    let op = frequency [ (8, leaf); (1, map (fun l -> Absorb l) (list_size (int_range 0 20) leaf)) ] in
    list_size (int_range 0 60) op)

let model_report (bs, fs) =
  Printf.sprintf "branches %d:%s\nfunctions %d:%s\n" (Iset.cardinal bs)
    (String.concat "" (List.map (Printf.sprintf " %d") (Iset.elements bs)))
    (Sset.cardinal fs)
    (String.concat "" (List.map (fun fn -> " " ^ fn) (Sset.elements fs)))

let prop_coverage_matches_set_model =
  QCheck.Test.make ~name:"coverage: byte map agrees with a set model" ~count:300
    (QCheck.make gen_cov_ops)
    (fun ops ->
      let agrees c (bs, fs) =
        Coverage.covered_branches c = Iset.cardinal bs
        && Coverage.branch_list c = Iset.elements bs
        && Coverage.encountered_functions c = Sset.elements fs
        && Coverage.report c = model_report (bs, fs)
        && Iset.for_all (Coverage.mem_branch c) bs
      in
      let rec apply (c, m) op =
        match (op, m) with
        | Branch b, (bs, fs) ->
          Coverage.add_branch c b;
          (c, (Iset.add b bs, fs))
        | Func fn, (bs, fs) ->
          Coverage.add_func c fn;
          (c, (bs, Sset.add fn fs))
        | Copy, _ ->
          (* the copy is independent: writes to it leave the original alone *)
          let c' = Coverage.copy c in
          Coverage.add_branch c' 80_003;
          if Coverage.mem_branch c 80_003 && not (Iset.mem 80_003 (fst m)) then
            failwith "copy shares its map with the original";
          (Coverage.copy c, m)
        | Absorb ops, (bs, fs) ->
          let src, (sbs, sfs) = List.fold_left apply (Coverage.create (), (Iset.empty, Sset.empty)) ops in
          let before = Coverage.report src in
          Coverage.absorb ~into:c src;
          if Coverage.report src <> before || not (agrees src (sbs, sfs)) then
            failwith "absorb changed its source";
          (c, (Iset.union bs sbs, Sset.union fs sfs))
      in
      let c, m = List.fold_left apply (Coverage.create (), (Iset.empty, Sset.empty)) ops in
      let probes = [ -1; min_int; max_int; 70_001; 80_003 ] @ List.init 40 (fun b -> b * 7) in
      agrees c m
      && List.for_all (fun b -> Coverage.mem_branch c b = Iset.mem b (fst m)) probes)

(* Reference model of the path log: the per-conditional outcome table as
   a Hashtbl, the event list in order, and the serialized text. *)
let model_pathlog ~reduce events =
  let last = Hashtbl.create 16 in
  let kept =
    List.map
      (fun (cond_id, taken, constr) ->
        let keep =
          match constr with
          | Some _ when reduce && Hashtbl.find_opt last cond_id = Some taken -> None
          | c -> c
        in
        Hashtbl.replace last cond_id taken;
        (cond_id, Minic.Branchinfo.branch_of_cond cond_id taken, taken, keep))
      events
  in
  let line (_, branch, _, keep) =
    string_of_int branch
    ^ (match keep with
      | None -> ""
      | Some c ->
        " " ^ Smt.Constr.rel_to_string c.Smt.Constr.rel
        ^ String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf " %d*%d" k v) (Smt.Linexp.terms c.Smt.Constr.exp))
        ^ Printf.sprintf " %d" (Smt.Linexp.constant c.Smt.Constr.exp))
    ^ "\n"
  in
  let constraints = List.filter_map (fun (_, b, _, k) -> Option.map (fun c -> (b, c)) k) kept in
  let constr_bytes (_, c) = 16 + (16 * List.length (Smt.Linexp.terms c.Smt.Constr.exp)) in
  let n = List.length kept in
  ( constraints,
    n,
    List.filteri (fun i _ -> i >= n - 8) (List.map (fun (id, _, t, _) -> (id, t)) kept),
    64 + (8 * n) + List.fold_left (fun acc c -> acc + constr_bytes c) 0 constraints,
    String.concat "" (List.map line kept) )

let gen_path_events =
  QCheck.Gen.(
    let cond_id =
      frequency [ (6, int_range 0 6); (2, int_range 0 200); (1, int_range 200 50_000) ]
    in
    let constr =
      frequency
        [
          (1, return None);
          ( 3,
            let* terms = list_size (int_range 1 3) (pair (int_range (-4) 4) (int_range 0 5)) in
            let* k = int_range (-9) 9 in
            let* rel = oneofl Smt.Constr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
            return (Some (Smt.Constr.make (Smt.Linexp.of_terms terms k) rel)) );
        ]
    in
    list_size (int_range 0 200) (triple cond_id bool constr))

let prop_pathlog_matches_model =
  QCheck.Test.make ~name:"pathlog: flat reduction state agrees with a Hashtbl model"
    ~count:300 (QCheck.make gen_path_events)
    (fun events ->
      List.for_all
        (fun reduce ->
          let log = Pathlog.create ~reduce in
          List.iter
            (fun (cond_id, taken, constr) -> Pathlog.record log ~cond_id ~taken ~constr)
            events;
          let constraints, n, tail, heavy, text = model_pathlog ~reduce events in
          let got = Array.to_list (Pathlog.constraints log) in
          List.length got = List.length constraints
          && List.for_all2
               (fun (b, c) (b', c') -> b = b' && Smt.Constr.equal c c')
               got constraints
          && Pathlog.constraint_count log = List.length constraints
          && Pathlog.branch_events log = n
          && Pathlog.tail log = tail
          && Pathlog.heavy_bytes log = heavy
          && Pathlog.serialize log = text)
        [ true; false ])

(* Path events with wide integers everywhere the log prints one: branch
   ids up to 10^7 (a larger conditional id would grow the per-conditional
   reduction state to hundreds of megabytes), coefficients and constants
   over the whole int range with the decimal boundaries over-weighted,
   variables up to 10^9. *)
let gen_wide_path_events =
  QCheck.Gen.(
    let cond_id = frequency [ (4, int_range 0 6); (1, int_range 0 5_000_000) ] in
    let wide = frequency [ (3, oneofl decimal_boundaries); (3, int); (1, neg_int) ] in
    let constr =
      frequency
        [
          (1, return None);
          ( 3,
            let* terms = list_size (int_range 0 3) (pair wide (int_range 0 1_000_000_000)) in
            let* k = wide in
            let* rel = oneofl Smt.Constr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
            return (Some (Smt.Constr.make (Smt.Linexp.of_terms terms k) rel)) );
        ]
    in
    list_size (int_range 0 100) (triple cond_id bool constr))

let prop_pathlog_wide_ints_match_printf =
  QCheck.Test.make ~name:"pathlog: serialize is byte-equal to the Printf model on wide ints"
    ~count:200 (QCheck.make gen_wide_path_events)
    (fun events ->
      List.for_all
        (fun reduce ->
          let log = Pathlog.create ~reduce in
          List.iter
            (fun (cond_id, taken, constr) -> Pathlog.record log ~cond_id ~taken ~constr)
            events;
          let _, n, _, _, text = model_pathlog ~reduce events in
          let got = Pathlog.serialize log in
          got = text && Pathlog.parse_count got = n)
        [ true; false ])

(* Byte strings that put a newline beside the bytes a word-at-a-time
   zero-byte test can get wrong: 0x0b (one above '\n', a borrow
   target), 0x09 (one below), 0x8a ('\n' with the top bit set), 0x00
   and 0xff. Lengths up to 70 put each at every offset modulo 8 and
   leave a tail shorter than a word; [cut] reads a prefix, as the
   runner reads a buffer longer than its log. *)
let gen_newline_bytes =
  QCheck.Gen.(
    let byte =
      frequency
        [ (4, return '\n'); (6, oneofl [ '\x0b'; '\x09'; '\x8a'; '\x00'; '\xff' ]); (2, char) ]
    in
    let* s = string_size ~gen:byte (int_range 0 70) in
    let* cut = int_range 0 (String.length s) in
    return (s, cut))

let prop_count_records_matches_byte_loop =
  QCheck.Test.make ~name:"pathlog: count = byte loop" ~count:1000
    (QCheck.make ~print:(fun (s, cut) -> Printf.sprintf "%S cut %d" s cut) gen_newline_bytes)
    (fun (s, cut) ->
      let bytes_loop len =
        let n = ref 0 in
        for i = 0 to len - 1 do
          if s.[i] = '\n' then incr n
        done;
        !n
      in
      Pathlog.count_records (Bytes.of_string s) cut = bytes_loop cut
      && Pathlog.parse_count s = bytes_loop (String.length s))

(* [n] events with every third one concrete, as [model_pathlog] reads
   them. *)
let path_events ~seed n =
  List.init n (fun k ->
      ( (k * seed) mod 41,
        (k + seed) mod 3 = 0,
        if k mod 3 = 0 then None else Some (mk_constr (k mod 7) (k - (1000 * seed))) ))

let rendered events =
  let log = Pathlog.create ~reduce:false in
  List.iter (fun (cond_id, taken, constr) -> Pathlog.record log ~cond_id ~taken ~constr) events;
  let bytes, len = Pathlog.render log in
  Pathlog.release log;
  (bytes, len)

(* The domain's render buffer serves a large log, then a small one,
   then one larger than the buffer: each render reads back exactly its
   own log's bytes, with nothing left over from an earlier, longer
   one. *)
let test_pathlog_render_buffer_reuse () =
  let check what events =
    let _, n, _, _, text = model_pathlog ~reduce:false events in
    let bytes, len = rendered events in
    Alcotest.(check string) (what ^ ": bytes") text (Bytes.sub_string bytes 0 len);
    Alcotest.(check int) (what ^ ": records") n (Pathlog.count_records bytes len);
    bytes
  in
  let large = check "large" (path_events ~seed:3 3000) in
  let small = check "small" (path_events ~seed:5 7) in
  Alcotest.(check bool) "the small log reuses the buffer" true (small == large);
  let events = path_events ~seed:7 (3 * Bytes.length large / 4) in
  let larger = check "larger than the buffer" events in
  Alcotest.(check bool) "the buffer grew" true (Bytes.length larger > Bytes.length large)

(* [constraints] copies the stored prefix, so asking for 300 kept
   constraints 100 times forces no minor collection: an [Array.make]
   of more than 256 slots would force one each time to promote a young
   initial value. *)
let test_pathlog_constraints_no_minor_gc () =
  let log = Pathlog.create ~reduce:false in
  for k = 0 to 299 do
    Pathlog.record log ~cond_id:k ~taken:true ~constr:(Some (mk_constr 0 k))
  done;
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Pathlog.constraints log))
  done;
  let forced = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d minor collections in 100 calls" forced)
    true (forced < 10);
  Alcotest.(check int) "300 kept" 300 (Array.length (Pathlog.constraints log))

let prop_dfs_indices_unique_per_record =
  QCheck.Test.make ~name:"strategy: DFS pops each index once" ~count:100
    QCheck.(make Gen.(int_range 1 30))
    (fun n ->
      let s = Strategy.create (Strategy.Bounded_dfs 1000) in
      let r = mk_record (List.init n (fun k -> mk_constr 0 k)) Smt.Model.empty in
      Strategy.observe s ~depth:0 r;
      let cov = Coverage.create () in
      let seen = Hashtbl.create 16 in
      let rec drain () =
        match Strategy.next s ~coverage:cov with
        | None -> true
        | Some c ->
          if Hashtbl.mem seen c.Strategy.index then false
          else begin
            Hashtbl.replace seen c.Strategy.index ();
            drain ()
          end
      in
      drain () && Hashtbl.length seen = n)

let unit_tests =
  [
    ("coverage basics", `Quick, test_coverage_basics);
    ("coverage absorb", `Quick, test_coverage_absorb);
    ("symtab input reuse", `Quick, test_symtab_input_reuse);
    ("symtab sem fresh", `Quick, test_symtab_sem_fresh_per_invocation);
    ("symtab model/domains", `Quick, test_symtab_model_and_domains);
    ("symtab projection", `Quick, test_symtab_input_projection);
    ("pathlog no reduction", `Quick, test_pathlog_no_reduction);
    ("pathlog reduction loop (fig 7)", `Quick, test_pathlog_reduction_loop);
    ("pathlog reduction alternating", `Quick, test_pathlog_reduction_alternating);
    ("pathlog reduction per conditional", `Quick, test_pathlog_reduction_per_conditional);
    ("pathlog concrete branches", `Quick, test_pathlog_concrete_branches);
    ("pathlog order", `Quick, test_pathlog_constraints_order);
    ("pathlog serialize roundtrip", `Quick, test_pathlog_serialize_roundtrip);
    ("pathlog serialize reduction", `Quick, test_pathlog_serialize_reduction_smaller);
    ("pathlog decimal writer", `Quick, test_pathlog_decimal_writer);
    ("pathlog bytes", `Quick, test_pathlog_bytes);
    ("pathlog reused buffer", `Quick, test_pathlog_reused_buffer);
    ("pathlog render buffer reuse", `Quick, test_pathlog_render_buffer_reuse);
    ("pathlog constraints no gc", `Quick, test_pathlog_constraints_no_minor_gc);
    ("execution prefix", `Quick, test_execution_prefix);
    ("execution negation", `Quick, test_execution_solve_negation);
    ("execution prefix respected", `Quick, test_execution_negation_respects_prefix);
    ("execution negation unsat", `Quick, test_execution_negation_unsat);
    ("execution extra constraints", `Quick, test_execution_extra_constraints);
    ("dfs order (CREST)", `Quick, test_dfs_order);
    ("dfs depth resume", `Quick, test_dfs_depth_resume);
    ("dfs bound", `Quick, test_dfs_bound_skips_deep);
    ("dfs exhaustion", `Quick, test_dfs_exhaustion);
    ("random strategies range", `Quick, test_random_strategies_in_range);
    ("random-branch last occurrence", `Quick, test_random_branch_picks_last_occurrence);
    ("generational prefers uncovered", `Quick, test_generational_prefers_uncovered_flips);
    ("generational bound", `Quick, test_generational_bound_limits_pool);
    ("cfg prefers uncovered", `Quick, test_cfg_strategy_prefers_uncovered);
  ]

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reduction_never_more;
      prop_reduction_keeps_flips;
      prop_keeps_agrees_with_record;
      prop_coverage_matches_set_model;
      prop_pathlog_matches_model;
      prop_pathlog_wide_ints_match_printf;
      prop_count_records_matches_byte_loop;
      prop_dfs_indices_unique_per_record;
    ]

let suite = [ ("concolic:unit", unit_tests); ("concolic:property", property_tests) ]
