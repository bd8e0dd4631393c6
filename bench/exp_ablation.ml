(* Ablations beyond the paper's tables, exercising the design decisions
   DESIGN.md calls out:

   1. incremental vs whole-set solving (section III-C's substrate);
   2. the BoundedDFS depth bound (two-phase derivation vs fixed guesses);
   3. the stagnation-restart escape hatch;
   4. conflict resolution (section III-C): with it disabled the focus
      never moves, so rank-gated branches stay uncovered. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* 1: incremental solving — same negations solved with and without the
   dependency-closure optimization. *)
let ablate_incremental () =
  Printf.printf "\n-- incremental vs whole-set solving --\n";
  (* a 30-variable chain plus independent singletons: the closure of a
     negation touches 3 variables, the whole set touches 30 *)
  let chain =
    List.init 9 (fun k ->
        Smt.Constr.cmp
          (Smt.Linexp.var (3 * k))
          Smt.Constr.Lt
          (Smt.Linexp.var (3 * (k + 1))))
  in
  let singles =
    List.init 30 (fun k -> Smt.Constr.make (Smt.Linexp.var k) Smt.Constr.Ge)
  in
  let cs = chain @ singles in
  let prev =
    Smt.Model.of_bindings (List.init 30 (fun k -> (k, k)))
  in
  let target = Smt.Constr.cmp (Smt.Linexp.var 0) Smt.Constr.Ge (Smt.Linexp.const 1) in
  let reps = 2000 in
  let (), t_inc =
    time (fun () ->
        for _ = 1 to reps do
          match Smt.Solver.solve_incremental ~prev ~target (target :: cs) with
          | Ok _ -> ()
          | Error _ -> failwith "unexpected unsat"
        done)
  in
  let (), t_full =
    time (fun () ->
        for _ = 1 to reps do
          match Smt.Solver.solve ~prefer:prev (target :: cs) with
          | Smt.Solver.Sat _ -> ()
          | Smt.Solver.Unsat | Smt.Solver.Unknown -> failwith "unexpected unsat"
        done)
  in
  Printf.printf "  incremental: %6.1f us/solve   whole-set: %6.1f us/solve   (%.1fx)\n%!"
    (1e6 *. t_inc /. float_of_int reps)
    (1e6 *. t_full /. float_of_int reps)
    (t_full /. t_inc)

(* 2: BoundedDFS bound choice on HPL. *)
let ablate_bound scale =
  Printf.printf "\n-- BoundedDFS bound choice (HPL, %d iterations) --\n"
    (Util.scaled_iters scale 400);
  let t = Util.target "hpl" in
  let info = Targets.Registry.instrument t in
  let iters = Util.scaled_iters scale 400 in
  List.iter
    (fun (label, strategy, bound) ->
      let settings =
        {
          (Util.settings_for t) with
          Compi.Driver.iterations = iters;
          strategy;
          depth_bound = bound;
          seed = 77;
        }
      in
      let r = Util.campaign settings info in
      Printf.printf "  %-18s covered %4d (bound %s)\n%!" label
        r.Compi.Driver.covered_branches
        (match r.Compi.Driver.derived_bound with
        | Some b -> "derived " ^ string_of_int b
        | None -> (
          match bound with Some b -> string_of_int b | None -> "-"))
    )
    [
      ("two-phase", Compi.Driver.Two_phase_dfs, None);
      ( "fixed 50",
        Compi.Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs 50),
        Some 50 );
      ( "fixed 600",
        Compi.Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs 600),
        Some 600 );
      ( "unbounded",
        Compi.Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs max_int),
        Some max_int );
    ]

(* 3: stagnation restart on/off. *)
let ablate_restart scale =
  Printf.printf "\n-- stagnation restart (HPL, %d iterations) --\n"
    (Util.scaled_iters scale 800);
  let t = Util.target "hpl" in
  let info = Targets.Registry.instrument t in
  List.iter
    (fun (label, stagnation_restart) ->
      let settings =
        {
          (Util.settings_for t) with
          Compi.Driver.iterations = Util.scaled_iters scale 800;
          stagnation_restart;
          seed = 13;
        }
      in
      let r = Util.campaign settings info in
      Printf.printf "  %-18s covered %4d\n%!" label r.Compi.Driver.covered_branches)
    [ ("restart @250", Some 250); ("no restart", None) ]

(* 4: conflict resolution. All-recorders hides most focus effects, so
   the probe program hides a needle behind a specific rank: only when
   the focus actually SITS on rank 2 does the needle's constraint reach
   the solver. *)
let conflict_probe =
  let open Minic in
  let open Builder in
  program
    [
      func "main" []
        [
          input "y" ~lo:0 ~cap:10_000 ~default:7;
          decl "rank" (i 0);
          decl "size" (i 0);
          comm_rank Ast.World "rank";
          comm_size Ast.World "size";
          sanity (v "size" >=: i 3);
          if_ (v "rank" =: i 2)
            [ if_ (v "y" =: i 1234) [ decl "needle" (i 1) ] [] ]
            [];
          barrier Ast.World;
        ];
    ]

let ablate_conflict scale =
  Printf.printf "\n-- conflict resolution (rank-2 needle probe) --\n";
  let info = Minic.Branchinfo.instrument (Minic.Check.check_exn conflict_probe) in
  let needle_branch =
    (* cond 2 is the [y = 1234] conditional (0: sanity, 1: rank = 2) *)
    Minic.Branchinfo.branch_of_cond 2 true
  in
  List.iter
    (fun (label, resolve_conflicts) ->
      let settings =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = Util.scaled_iters scale 150;
          dfs_phase_iters = 10;
          initial_nprocs = 4;
          resolve_conflicts;
          seed = 21;
        }
      in
      let r = Util.campaign settings info in
      Printf.printf "  %-16s covered %2d / %d   needle (rank 2, y = 1234): %s\n%!" label
        r.Compi.Driver.covered_branches r.Compi.Driver.reachable_branches
        (if Concolic.Coverage.mem_branch r.Compi.Driver.coverage needle_branch then
           "FOUND"
         else "missed"))
    [ ("resolution on", true); ("resolution off", false) ]

let run (scale : Util.scale) =
  Util.print_header "Ablations: design decisions (beyond the paper's tables)";
  ablate_incremental ();
  ablate_bound scale;
  ablate_restart scale;
  ablate_conflict scale
