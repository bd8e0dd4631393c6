(* Quickstart: write a small MPI program in the Mini-C DSL, mark its
   inputs, and let COMPI test it.

   The program hides a bug behind a condition that random inputs are
   unlikely to hit ([ticket = 4242]) and a second bug that only a
   non-zero rank can trigger — the kind standard concolic testing
   misses and COMPI's focus shifting finds.

     dune exec examples/quickstart.exe *)

open Minic
open Builder

(* 1. Write the program under test. [input] marks symbolic inputs, with
   optional caps (COMPI_int_with_limit). *)
let my_program =
  program
    [
      func "main" []
        [
          input "ticket" ~lo:0 ~cap:10_000 ~default:7;
          input "shards" ~lo:0 ~cap:64 ~default:4;
          decl "rank" (i 0);
          decl "size" (i 0);
          comm_rank Ast.World "rank";
          comm_size Ast.World "size";
          (* sanity check *)
          sanity (v "shards" >: i 0);
          sanity (v "shards" >=: v "size");
          (* bug 1: a magic ticket crashes the coordinator *)
          if_ (v "ticket" =: i 4242) [ abort "BUG: magic ticket" ] [];
          (* bug 2: worker ranks divide by (shards - ticket) *)
          if_ (v "rank" >: i 0)
            [
              decl "chunk" (v "shards" -: v "ticket");
              decl "quota" (i 1000 /: v "chunk");  (* FPE when ticket = shards *)
              if_ (v "quota" >: i 500) [ decl "greedy" (i 1) ] [];
            ]
            [];
          decl "total" (i 0);
          allreduce ~op:Ast.Op_sum (v "rank") ~into:(Ast.Lvar "total");
        ];
    ]

let () =
  (* 2. Validate and instrument (branch-id assignment, the CIL phase). *)
  let info = Branchinfo.instrument (Check.check_exn my_program) in
  Printf.printf "program has %d branches across %d functions\n\n"
    info.Branchinfo.total_branches
    (List.length info.Branchinfo.funcs);
  (* 3. Run a COMPI campaign: 200 iterations, starting from 4 processes. *)
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 200;
      dfs_phase_iters = 20;
      initial_nprocs = 4;
    }
  in
  let campaign = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  let result = (Compi.Campaign.run ~settings:campaign info).Compi.Campaign.summary in
  Printf.printf "covered %d / %d reachable branches (%.1f%%) in %d iterations\n"
    result.Compi.Driver.covered_branches result.Compi.Driver.reachable_branches
    (100.0 *. result.Compi.Driver.coverage_rate)
    result.Compi.Driver.iterations_run;
  Printf.printf "\nbugs found:\n";
  List.iter
    (fun (b : Compi.Driver.bug) ->
      Printf.printf "  iteration %d, %d processes, rank %d: %s\n"
        b.Compi.Driver.bug_iteration b.Compi.Driver.bug_nprocs b.Compi.Driver.bug_rank
        (Fault.to_string b.Compi.Driver.bug_fault);
      Printf.printf "    error-inducing inputs: %s\n"
        (String.concat ", "
           (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) b.Compi.Driver.bug_inputs)))
    (Compi.Driver.distinct_bugs result);
  (* 4. Compare with random testing under the same budget. *)
  let random = Compi.Random_testing.run ~settings info in
  Printf.printf "\nrandom testing with the same budget: %d branches (%.1f%%), %d bug(s)\n"
    random.Compi.Driver.covered_branches
    (100.0 *. random.Compi.Driver.coverage_rate)
    (List.length (Compi.Driver.distinct_bugs random))
