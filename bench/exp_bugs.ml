(* Section VI-A: the four SUSY-HMC bugs. Runs a COMPI campaign on the
   synthetic SUSY-HMC until all four distinct defects are found (or the
   iteration budget runs out) and reports each with the error-inducing
   inputs COMPI logged — including the process count, which is the
   point of the FPE bug (2 or 4 processes, never 1 or 3). *)

let expected_bug_sites =
  [ "setup_sources"; "setup_gauge"; "congrad_alloc"; "layout_timeslices" ]

let site_of (b : Compi.Driver.bug) =
  match b.Compi.Driver.bug_fault with
  | Minic.Fault.Segfault { func; _ } -> func
  | Minic.Fault.Fpe { func } -> func
  | Minic.Fault.Assert_fail { func; _ }
  | Minic.Fault.Abort_called { func; _ }
  | Minic.Fault.Mpi_error { func; _ }
  | Minic.Fault.Runtime_type_error { func; _ } ->
    func
  | Minic.Fault.Step_limit_exceeded _ -> "<timeout>"

let run (scale : Util.scale) =
  Util.print_header "Section VI-A: the four SUSY-HMC bugs";
  let t = Util.target "susy-hmc" in
  let info = Targets.Registry.instrument t in
  let settings =
    {
      (Util.settings_for t) with
      Compi.Driver.iterations = Util.scaled_iters scale 800;
      seed = 5;
    }
  in
  let r = Util.campaign settings info in
  let bugs = Compi.Driver.distinct_bugs r in
  List.iter
    (fun (b : Compi.Driver.bug) ->
      Printf.printf "  iter %4d  np=%-2d rank=%-2d  %s\n"
        b.Compi.Driver.bug_iteration b.Compi.Driver.bug_nprocs b.Compi.Driver.bug_rank
        (Minic.Fault.to_string b.Compi.Driver.bug_fault);
      Printf.printf "      inputs: %s\n%!"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) b.Compi.Driver.bug_inputs)))
    bugs;
  let found_sites = List.sort_uniq String.compare (List.map site_of bugs) in
  let hit = List.filter (fun s -> List.mem s found_sites) expected_bug_sites in
  Printf.printf "  distinct defects found: %d (sites: %s)\n" (List.length hit)
    (String.concat ", " hit);
  Util.compare_line ~label:"new bugs in SUSY-HMC" ~paper:"4 (3 segfaults + 1 FPE)"
    ~measured:
      (Printf.sprintf "%d of 4 seeded bug sites within %d iterations" (List.length hit)
         r.Compi.Driver.iterations_run);
  (* beyond the paper: the heat2d remainder-row overflow, reachable only
     when the framework varies the process count *)
  let th = Util.target "heat2d" in
  let hinfo = Targets.Registry.instrument th in
  let hsettings =
    {
      (Util.settings_for th) with
      Compi.Driver.iterations = Util.scaled_iters scale 300;
      seed = 5;
    }
  in
  let hr = Util.campaign hsettings hinfo in
  let overflow =
    List.find_opt
      (fun (b : Compi.Driver.bug) ->
        match b.Compi.Driver.bug_fault with
        | Minic.Fault.Segfault _ -> true
        | _ -> false)
      (Compi.Driver.distinct_bugs hr)
  in
  match overflow with
  | Some b ->
    Printf.printf
      "  beyond the paper: heat2d remainder overflow found at iter %d with np=%d \
       (ny=%d, ny mod np = %d)\n"
      b.Compi.Driver.bug_iteration b.Compi.Driver.bug_nprocs
      (List.assoc "ny" b.Compi.Driver.bug_inputs)
      (List.assoc "ny" b.Compi.Driver.bug_inputs mod b.Compi.Driver.bug_nprocs)
  | None ->
    Printf.printf "  beyond the paper: heat2d overflow not found in %d iterations\n"
      hr.Compi.Driver.iterations_run
