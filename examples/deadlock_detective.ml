(* Beyond the paper: COMPI's input derivation also steers programs into
   communication deadlocks, which the simulator detects and reports as
   MPI errors. The program below deadlocks only when a marked input
   routes rank 1 into a receive that no one serves — a needle random
   testing rarely finds.

     dune exec examples/deadlock_detective.exe *)

open Minic
open Builder

let protocol =
  program
    [
      func "main" []
        [
          input "mode" ~lo:0 ~cap:1000 ~default:0;
          decl "rank" (i 0);
          decl "size" (i 0);
          comm_rank Ast.World "rank";
          comm_size Ast.World "size";
          sanity (v "size" >=: i 2);
          decl "buf" (i 0);
          if_ (v "rank" =: i 0)
            [
              (* the coordinator only sends in modes below 707 *)
              if_ (v "mode" <: i 707)
                [ send ~dest:(i 1) ~tag:(i 0) (v "mode") ]
                [];
            ]
            [
              if_ (v "rank" =: i 1)
                [
                  (* rank 1 always waits: deadlock when mode >= 707 *)
                  recv ~src:(i 0) ~tag:(i 0) ~into:(Ast.Lvar "buf") ();
                ]
                [];
            ];
          barrier Ast.World;
        ];
    ]

let () =
  let info = Branchinfo.instrument (Check.check_exn protocol) in
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations = 150;
      dfs_phase_iters = 10;
      initial_nprocs = 4;
    }
  in
  Printf.printf "searching for the deadlocking mode value...\n";
  let campaign = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  let result = (Compi.Campaign.run ~settings:campaign info).Compi.Campaign.summary in
  let deadlocks =
    List.filter
      (fun (b : Compi.Driver.bug) ->
        match b.Compi.Driver.bug_fault with
        | Fault.Mpi_error { message; _ } ->
          String.length message >= 8 && String.sub message 0 8 = "deadlock"
        | _ -> false)
      result.Compi.Driver.bugs
  in
  match deadlocks with
  | [] -> Printf.printf "no deadlock found (unexpected — try more iterations)\n"
  | b :: _ ->
    Printf.printf "deadlock found at iteration %d with %d processes!\n"
      b.Compi.Driver.bug_iteration b.Compi.Driver.bug_nprocs;
    Printf.printf "  triggering inputs: %s\n"
      (String.concat ", "
         (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) b.Compi.Driver.bug_inputs));
    Printf.printf "  (the protocol drops the send exactly when mode >= 707)\n"
