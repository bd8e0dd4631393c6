(* Shared helpers for the experiment harness: per-target settings derived
   from the catalogue tuning, small table printers, and the repetition
   machinery. Budgets are scaled-down versions of the paper's (hours ->
   seconds); the [scale] factor restores longer runs when desired. *)

type scale = { time : float; iters : float; reps : int }

let default_scale = { time = 1.0; iters = 1.0; reps = 2 }

(* --profile: experiments that support it additionally run one traced
   configuration and print its span profile (see exp_parallel). *)
let profile_mode = ref false

let scaled_iters scale n = max 5 (int_of_float (float_of_int n *. scale.iters))
let scaled_time scale s = s *. scale.time

let settings_for (t : Targets.Registry.t) =
  let tn = t.Targets.Registry.tuning in
  {
    Compi.Driver.default_settings with
    Compi.Driver.dfs_phase_iters = tn.Targets.Registry.dfs_phase;
    depth_bound = None;
    initial_nprocs = tn.Targets.Registry.initial_nprocs;
    step_limit = tn.Targets.Registry.step_limit;
  }

(* Every experiment runs the one campaign engine at its default engine
   settings (one job, batch 4, solver cache on) and reads the summary. *)
let campaign settings info =
  let settings = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  (Compi.Campaign.run ~settings info).Compi.Campaign.summary

let instrumented name = Targets.Registry.instrument (Targets.Catalog.find_exn name)

let target name = Targets.Catalog.find_exn name

(* Fixed per-program reachable-branch denominator, the paper's Table III
   convention: estimated once from a reference COMPI campaign and reused
   by every experiment on that program, so ablations that fail early do
   not shrink their own denominator. *)
let reachable_cache : (string, int) Hashtbl.t = Hashtbl.create 8

let reference_reachable name =
  match Hashtbl.find_opt reachable_cache name with
  | Some r -> r
  | None ->
    let t = target name in
    let info = Targets.Registry.instrument t in
    let settings =
      {
        Compi.Driver.default_settings with
        Compi.Driver.iterations = 400;
        dfs_phase_iters = t.Targets.Registry.tuning.Targets.Registry.dfs_phase;
        initial_nprocs = t.Targets.Registry.tuning.Targets.Registry.initial_nprocs;
        step_limit = t.Targets.Registry.tuning.Targets.Registry.step_limit;
        seed = 1;
      }
    in
    let r = campaign settings info in
    let reachable = max 1 r.Compi.Driver.reachable_branches in
    Hashtbl.replace reachable_cache name reachable;
    reachable

let fixed_rate name (r : Compi.Driver.result) =
  100.0 *. float_of_int r.Compi.Driver.covered_branches
  /. float_of_int (reference_reachable name)

(* simple fixed-width table printing *)
let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_row fmt = Printf.printf fmt

let rate (r : Compi.Driver.result) = 100.0 *. r.Compi.Driver.coverage_rate

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Median is the robust choice for wall-clock rows: one descheduled rep
   shifts the mean by its full overshoot but leaves the median alone. *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let nth k = List.nth sorted k in
    if n mod 2 = 1 then nth (n / 2) else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0
let fmax xs = List.fold_left Float.max neg_infinity xs
let imax xs = List.fold_left max min_int xs

let repeat reps f = List.init reps f

(* Paper-vs-measured one-liner used throughout EXPERIMENTS.md *)
let compare_line ~label ~paper ~measured =
  Printf.printf "  %-40s paper: %-18s measured: %s\n%!" label paper measured

(* Persist the whole metrics registry: the bench gauges, which
   scripts/bench_diff.py compares, plus the instruments the engine fed
   while benchmarks ran (solver nodes, cache occupancy, step counts,
   simulated messages); the phases are the span totals of a drained
   timeline, empty when none was. *)
let write_metrics_json path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (Obs.Metrics.snapshot_json ()));
      Out_channel.output_char oc '\n');
  Printf.printf "metrics snapshot written to %s\n%!" path
