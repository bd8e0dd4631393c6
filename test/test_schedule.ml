(* Schedule-space exploration: lazy wildcard matching under a
   prescription, the choice record, the POR enumerator, and the
   campaign-level guarantee that partial-order-reduced enumeration
   reaches exactly the terminal states exhaustive enumeration does. *)

open Minic
open Mpisim

(* ------------------------------------------------------------------ *)
(* harness: 3 ranks, ranks 1 and 2 send to rank 0, rank 0 receives     *)
(* ------------------------------------------------------------------ *)

(* Run the wildcard fan-in protocol under [presc]: rank 1 sends [m1]
   messages, rank 2 sends [m2], rank 0 posts [recvs] wildcard receives.
   Sent values encode (sender, sequence) as rank*10+k. Returns the
   received values in order, the deadlocked ranks and the choice
   record. *)
let run_fan_in ?(tags = fun _rank k -> k) ~m1 ~m2 ~recvs presc =
  let received = ref [] in
  let r =
    Scheduler.run ~nprocs:3 ~schedule:presc (fun ~rank ~mpi ->
        if rank = 0 then begin
          for _ = 1 to recvs do
            match
              mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None })
            with
            | Mpi_iface.Rvalue (Value.Vint x) -> received := x :: !received
            | _ -> failwith "bad recv reply"
          done;
          Ok ()
        end
        else begin
          let m = if rank = 1 then m1 else m2 in
          for k = 1 to m do
            ignore
              (mpi
                 (Mpi_iface.Send
                    {
                      comm = Mpi_iface.world;
                      dest = 0;
                      tag = tags rank k;
                      data = Value.Vint ((rank * 10) + k);
                    }))
          done;
          Ok ()
        end)
  in
  (List.rev !received, r.Scheduler.deadlocked, r.Scheduler.choices)

(* ------------------------------------------------------------------ *)
(* scheduler semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_default_prescription_is_arrival_order () =
  (* empty prescription: every choice point takes the first eligible
     message in arrival order — rank 1 runs (and sends) before rank 2 *)
  let received, dead, choices = run_fan_in ~m1:1 ~m2:1 ~recvs:2 [] in
  Alcotest.(check (list int)) "arrival order" [ 11; 21 ] received;
  Alcotest.(check (list int)) "no deadlock" [] dead;
  Alcotest.(check int) "two choice points" 2 (List.length choices);
  let c0 = List.nth choices 0 and c1 = List.nth choices 1 in
  Alcotest.(check int) "point 0 chose rank 1" 1 c0.Schedule.ch_chosen;
  Alcotest.(check (list int)) "point 0 had both eligible" [ 1; 2 ] c0.Schedule.ch_alts;
  Alcotest.(check int) "point 1 chose rank 2" 2 c1.Schedule.ch_chosen;
  Alcotest.(check (list int)) "point 1 only rank 2 left" [ 2 ] c1.Schedule.ch_alts

let test_prescription_steers_the_match () =
  let received, dead, choices = run_fan_in ~m1:1 ~m2:1 ~recvs:2 [ 2 ] in
  Alcotest.(check (list int)) "rank 2 delivered first" [ 21; 11 ] received;
  Alcotest.(check (list int)) "no deadlock" [] dead;
  Alcotest.(check int) "prescribed point chose rank 2" 2
    (List.hd choices).Schedule.ch_chosen

let test_ineligible_prescription_falls_back () =
  (* a prescription naming a source with no matching message is ignored
     at that point (default order is used instead) *)
  let received, _, _ = run_fan_in ~m1:1 ~m2:1 ~recvs:2 [ 9 ] in
  Alcotest.(check (list int)) "fallback to arrival order" [ 11; 21 ] received

let test_replay_determinism () =
  let a = run_fan_in ~m1:2 ~m2:2 ~recvs:4 [ 2; 1 ] in
  let b = run_fan_in ~m1:2 ~m2:2 ~recvs:4 [ 2; 1 ] in
  Alcotest.(check bool) "identical replay" true (a = b)

let test_eager_mode_records_no_choices () =
  (* without ?schedule the legacy eager matching runs: wildcards match
     at send arrival and the choice record stays empty *)
  let received = ref [] in
  let r =
    Scheduler.run ~nprocs:3 (fun ~rank ~mpi ->
        if rank = 0 then begin
          for _ = 1 to 2 do
            match
              mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None })
            with
            | Mpi_iface.Rvalue (Value.Vint x) -> received := x :: !received
            | _ -> failwith "bad recv reply"
          done;
          Ok ()
        end
        else begin
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag = 0; data = Value.Vint rank }));
          Ok ()
        end)
  in
  Alcotest.(check (list int)) "eager arrival order" [ 1; 2 ] (List.rev !received);
  Alcotest.(check int) "no choices recorded" 0 (List.length r.Scheduler.choices)

let test_tag_filter_restricts_eligibility () =
  (* rank 1 tags its message 5, rank 2 tags 7; a tag-7 wildcard receive
     must only consider rank 2 — a single-candidate point, no fork *)
  let received = ref [] in
  let r =
    Scheduler.run ~nprocs:3 ~schedule:[] (fun ~rank ~mpi ->
        if rank = 0 then begin
          (match
             mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = Some 7 })
           with
          | Mpi_iface.Rvalue (Value.Vint x) -> received := x :: !received
          | _ -> failwith "bad recv reply");
          (match
             mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None })
           with
          | Mpi_iface.Rvalue (Value.Vint x) -> received := x :: !received
          | _ -> failwith "bad recv reply");
          Ok ()
        end
        else begin
          let tag = if rank = 1 then 5 else 7 in
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag; data = Value.Vint rank }));
          Ok ()
        end)
  in
  Alcotest.(check (list int)) "tag filter honoured" [ 2; 1 ] (List.rev !received);
  List.iter
    (fun (c : Schedule.choice) ->
      Alcotest.(check int)
        (Printf.sprintf "point %d is single-candidate" c.Schedule.ch_rank)
        1
        (List.length c.Schedule.ch_alts))
    r.Scheduler.choices

let test_tag_only_fixed_source_stays_deterministic () =
  (* src pinned, tag wildcard: MPI non-overtaking makes the match unique,
     so schedule mode treats it eagerly — no choice point *)
  let received = ref [] in
  let r =
    Scheduler.run ~nprocs:2 ~schedule:[] (fun ~rank ~mpi ->
        if rank = 0 then begin
          for _ = 1 to 2 do
            match
              mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None })
            with
            | Mpi_iface.Rvalue (Value.Vint x) -> received := x :: !received
            | _ -> failwith "bad recv reply"
          done;
          Ok ()
        end
        else begin
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag = 3; data = Value.Vint 30 }));
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag = 4; data = Value.Vint 40 }));
          Ok ()
        end)
  in
  Alcotest.(check (list int)) "non-overtaking order" [ 30; 40 ] (List.rev !received);
  Alcotest.(check int) "no choice points" 0 (List.length r.Scheduler.choices)

let test_no_eligible_sender_deadlocks () =
  (* a wildcard receive with no sender at quiescence is a deadlock, and
     the witness names the blocked rank *)
  let received, dead, choices = run_fan_in ~m1:1 ~m2:1 ~recvs:3 [] in
  Alcotest.(check (list int)) "both messages arrived first" [ 11; 21 ] received;
  Alcotest.(check (list int)) "receiver deadlocked" [ 0 ] dead;
  Alcotest.(check int) "served points recorded" 2 (List.length choices)

(* ------------------------------------------------------------------ *)
(* the enumerator                                                      *)
(* ------------------------------------------------------------------ *)

let mk_choice ?(rank = 0) ?(comm = 0) ?(tag = 0) ~chosen ~alts () =
  { Schedule.ch_rank = rank; ch_comm = comm; ch_tag = tag; ch_chosen = chosen; ch_alts = alts }

let alt_triple (a : Schedule.alt) =
  (a.Schedule.alt_point, a.Schedule.alt_source, a.Schedule.alt_prescription)

let test_alternatives_por () =
  let choices =
    [ mk_choice ~chosen:0 ~alts:[ 0; 1; 2 ] (); mk_choice ~chosen:1 ~alts:[ 1; 2 ] () ]
  in
  let alts = Schedule.alternatives ~depth:8 ~prefix_len:0 choices in
  Alcotest.(check (list (triple int int (list int))))
    "ascending by point then source"
    [ (0, 1, [ 1 ]); (0, 2, [ 2 ]); (1, 2, [ 0; 2 ]) ]
    (List.map alt_triple alts)

let test_alternatives_prescribed_prefix_pruned () =
  let choices =
    [ mk_choice ~chosen:2 ~alts:[ 1; 2 ] (); mk_choice ~chosen:1 ~alts:[ 1; 2 ] () ]
  in
  (* point 0 was prescribed (prefix_len 1): re-forking it would revisit
     an ancestor of the enumeration tree *)
  let alts = Schedule.alternatives ~depth:8 ~prefix_len:1 choices in
  Alcotest.(check (list (triple int int (list int))))
    "only the free point forks"
    [ (1, 2, [ 2; 2 ]) ]
    (List.map alt_triple alts)

let test_alternatives_depth_budget () =
  let choices =
    [ mk_choice ~chosen:1 ~alts:[ 1; 2 ] (); mk_choice ~chosen:1 ~alts:[ 1; 2 ] () ]
  in
  let alts = Schedule.alternatives ~depth:1 ~prefix_len:0 choices in
  Alcotest.(check (list (triple int int (list int))))
    "points past the depth budget never fork"
    [ (0, 2, [ 2 ]) ]
    (List.map alt_triple alts);
  let st = Schedule.stats choices alts in
  Alcotest.(check int) "both points recorded" 2 st.Schedule.st_points;
  Alcotest.(check int) "one alternative emitted" 1 st.Schedule.st_emitted;
  Alcotest.(check int) "one alternative pruned" 1 st.Schedule.st_pruned

let test_single_candidate_points_never_fork () =
  let choices =
    [ mk_choice ~chosen:1 ~alts:[ 1 ] (); mk_choice ~chosen:2 ~alts:[ 2 ] () ]
  in
  Alcotest.(check int) "no alternatives" 0
    (List.length (Schedule.alternatives ~depth:8 ~prefix_len:0 choices))

let test_prescription_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check (list int))
        (Schedule.to_string p)
        p
        (Schedule.of_string (Schedule.to_string p)))
    [ []; [ 2 ]; [ 1; 2; 1 ]; [ 0; 7; 3 ] ]

(* ------------------------------------------------------------------ *)
(* POR completeness: pruned enumeration reaches exhaustive's states    *)
(* ------------------------------------------------------------------ *)

(* Terminal state of one run: what was delivered, in order, and who
   deadlocked. Two runs with equal terminal states are
   indistinguishable to coverage and fault detection. *)
let terminal ~m1 ~m2 ~recvs presc =
  let received, dead, choices = run_fan_in ~m1 ~m2 ~recvs presc in
  ((received, dead), choices)

(* The campaign's work-list enumeration: start from the default
   schedule, fork POR-surviving alternatives, repeat to fixpoint. *)
let por_states ~m1 ~m2 ~recvs =
  let states = ref [] in
  let frontier = Queue.create () in
  Queue.add [] frontier;
  let runs = ref 0 in
  while not (Queue.is_empty frontier) do
    let presc = Queue.take frontier in
    incr runs;
    if !runs > 2000 then failwith "POR enumeration diverged";
    let state, choices = terminal ~m1 ~m2 ~recvs presc in
    if not (List.mem state !states) then states := state :: !states;
    List.iter
      (fun (a : Schedule.alt) -> Queue.add a.Schedule.alt_prescription frontier)
      (Schedule.alternatives ~depth:8 ~prefix_len:(List.length presc) choices)
  done;
  (List.sort_uniq compare !states, !runs)

(* Brute force: every source vector in {1,2}^recvs (ineligible entries
   fall back to default order, so every reachable delivery order is
   realized by the vector spelling it out). *)
let exhaustive_states ~m1 ~m2 ~recvs =
  let rec vectors n =
    if n = 0 then [ [] ]
    else List.concat_map (fun v -> [ 1 :: v; 2 :: v ]) (vectors (n - 1))
  in
  List.sort_uniq compare
    (List.map (fun p -> fst (terminal ~m1 ~m2 ~recvs p)) (vectors recvs))

let test_por_equals_exhaustive_unit () =
  List.iter
    (fun (m1, m2, extra) ->
      let recvs = m1 + m2 + extra in
      let por, runs = por_states ~m1 ~m2 ~recvs in
      let exh = exhaustive_states ~m1 ~m2 ~recvs in
      Alcotest.(check bool)
        (Printf.sprintf "m1=%d m2=%d recvs=%d: same terminal states" m1 m2 recvs)
        true (por = exh);
      (* and POR does strictly fewer runs than brute force on the
         larger spaces *)
      if recvs >= 4 then
        Alcotest.(check bool)
          (Printf.sprintf "m1=%d m2=%d recvs=%d: POR prunes (%d runs)" m1 m2 recvs runs)
          true
          (runs < 1 lsl recvs))
    [ (1, 1, 0); (2, 1, 0); (2, 2, 0); (1, 1, 1); (2, 2, 1); (0, 2, 0) ]

let por_property =
  QCheck.Test.make ~count:40
    ~name:"POR-pruned enumeration finds the exhaustive terminal-state set"
    QCheck.(triple (int_bound 2) (int_bound 2) (int_bound 1))
    (fun (m1, m2, extra) ->
      let recvs = m1 + m2 + extra in
      let por, _ = por_states ~m1 ~m2 ~recvs in
      por = exhaustive_states ~m1 ~m2 ~recvs)

(* [Schedule.stats] as it was defined before it took the built
   alternatives: it enumerated them again only to count them. *)
let stats_by_reenumeration ~depth ~prefix_len (choices : Schedule.choice list) =
  let total_alts =
    List.fold_left (fun acc c -> acc + List.length c.Schedule.ch_alts - 1) 0 choices
  in
  let emitted = List.length (Schedule.alternatives ~depth ~prefix_len choices) in
  {
    Schedule.st_points = List.length choices;
    st_emitted = emitted;
    st_pruned = total_alts - emitted;
  }

(* A choice point: a nonempty sorted set of eligible sources in 0..4
   and a delivered member of it. *)
let gen_choice =
  QCheck.Gen.(
    let* alts = list_size (int_range 1 5) (int_bound 4) in
    let alts = List.sort_uniq compare alts in
    let* k = int_bound (List.length alts - 1) in
    return (mk_choice ~chosen:(List.nth alts k) ~alts ()))

let stats_property =
  QCheck.Test.make ~count:300
    ~name:"stats of the built alternatives equals stats by re-enumeration"
    QCheck.(
      make
        ~print:(fun (choices, depth, prefix_len) ->
          Printf.sprintf "depth %d prefix %d choices [%s]" depth prefix_len
            (String.concat "; "
               (List.map
                  (fun (c : Schedule.choice) ->
                    Printf.sprintf "%d of {%s}" c.Schedule.ch_chosen
                      (String.concat "," (List.map string_of_int c.Schedule.ch_alts)))
                  choices)))
        Gen.(triple (list_size (int_bound 8) gen_choice) (int_bound 10) (int_bound 10)))
    (fun (choices, depth, prefix_len) ->
      Schedule.stats choices (Schedule.alternatives ~depth ~prefix_len choices)
      = stats_by_reenumeration ~depth ~prefix_len choices)

(* ------------------------------------------------------------------ *)
(* campaign integration: the wc-race (input, schedule) deadlock        *)
(* ------------------------------------------------------------------ *)

let wc_race () = Targets.Registry.instrument (Targets.Catalog.find_exn "wc-race")

let campaign ?(jobs = 1) ~schedules () =
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations = 60;
          dfs_phase_iters = 4;
          initial_nprocs = 3;
          step_limit = 100_000;
          seed = 3;
          schedules;
        };
      jobs;
    }
  in
  Compi.Campaign.run ~settings (wc_race ())

let is_deadlock (b : Compi.Driver.bug) =
  match b.Compi.Driver.bug_fault with
  | Fault.Mpi_error { message; _ } ->
    (* the deadlock detector's fault message *)
    String.length message >= 8 && String.sub message 0 8 = "deadlock"
  | _ -> false

let test_wc_race_needs_schedules () =
  let off = campaign ~schedules:false () in
  Alcotest.(check int)
    "schedules off: no bugs" 0
    (List.length off.Compi.Campaign.summary.Compi.Driver.bugs);
  let on = campaign ~schedules:true () in
  let deadlocks =
    List.filter is_deadlock on.Compi.Campaign.summary.Compi.Driver.bugs
  in
  Alcotest.(check bool) "schedules on: deadlock found" true (deadlocks <> []);
  List.iter
    (fun (b : Compi.Driver.bug) ->
      Alcotest.(check (list (pair string int)))
        "the input coordinate is x=7" [ ("x", 7) ] b.Compi.Driver.bug_inputs)
    deadlocks;
  (* the schedule dimension also buys coverage: the deadlocked receive *)
  Alcotest.(check bool) "schedules on covers more" true
    (on.Compi.Campaign.summary.Compi.Driver.covered_branches
    > off.Compi.Campaign.summary.Compi.Driver.covered_branches)

let test_schedule_sweep_jobs_invariant () =
  let r1 = campaign ~schedules:true ~jobs:1 () in
  let r4 = campaign ~schedules:true ~jobs:4 () in
  Alcotest.(check string)
    "byte-identical report across jobs"
    (Compi.Campaign.coverage_report r1)
    (Compi.Campaign.coverage_report r4)

let test_fingerprint_carries_schedule_settings () =
  let fp =
    Compi.Checkpoint.fingerprint ~label:"wc-race" ~batch:4 ~solver_cache:true
      ~cache_capacity:16 Compi.Driver.default_settings
  in
  Alcotest.(check (option string)) "schedules key" (Some "false")
    (List.assoc_opt "schedules" fp);
  Alcotest.(check (option string)) "schedule_depth key" (Some "8")
    (List.assoc_opt "schedule_depth" fp)

let unit_tests =
  [
    Alcotest.test_case "default prescription = arrival order" `Quick
      test_default_prescription_is_arrival_order;
    Alcotest.test_case "prescription steers the match" `Quick
      test_prescription_steers_the_match;
    Alcotest.test_case "ineligible prescription falls back" `Quick
      test_ineligible_prescription_falls_back;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "eager mode records no choices" `Quick
      test_eager_mode_records_no_choices;
    Alcotest.test_case "tag filter restricts eligibility" `Quick
      test_tag_filter_restricts_eligibility;
    Alcotest.test_case "tag-only fixed-source stays deterministic" `Quick
      test_tag_only_fixed_source_stays_deterministic;
    Alcotest.test_case "no eligible sender deadlocks" `Quick
      test_no_eligible_sender_deadlocks;
    Alcotest.test_case "alternatives: POR shape" `Quick test_alternatives_por;
    Alcotest.test_case "alternatives: prescribed prefix pruned" `Quick
      test_alternatives_prescribed_prefix_pruned;
    Alcotest.test_case "alternatives: depth budget" `Quick
      test_alternatives_depth_budget;
    Alcotest.test_case "single-candidate points never fork" `Quick
      test_single_candidate_points_never_fork;
    Alcotest.test_case "prescription string round-trip" `Quick
      test_prescription_string_roundtrip;
    Alcotest.test_case "POR = exhaustive (unit grid)" `Quick
      test_por_equals_exhaustive_unit;
    Alcotest.test_case "wc-race needs the schedule dimension" `Quick
      test_wc_race_needs_schedules;
    Alcotest.test_case "schedule sweep is jobs-invariant" `Quick
      test_schedule_sweep_jobs_invariant;
    Alcotest.test_case "fingerprint carries schedule settings" `Quick
      test_fingerprint_carries_schedule_settings;
  ]

let property_tests =
  [ QCheck_alcotest.to_alcotest por_property; QCheck_alcotest.to_alcotest stats_property ]

let suite = [ ("schedule:unit", unit_tests); ("schedule:property", property_tests) ]
