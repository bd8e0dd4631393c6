(* Figure 8: input-capping evaluation. For each program, campaigns with
   increasing caps on the headline input N: larger caps cost several
   times more wall clock for comparable coverage. Paper budgets: 10
   repetitions of 50 iterations (SUSY) / 500 iterations (HPL, IMB); we
   scale both down. *)

(* SUSY's N is the lattice size of each of the four dimensions: the
   paper's cap applies to all of them at once. *)
let capped_inputs name cap =
  match name with
  | "susy-hmc" -> [ ("nx", cap); ("ny", cap); ("nz", cap); ("nt", cap) ]
  | _ ->
    [ ((Util.target name).Targets.Registry.tuning.Targets.Registry.key_input, cap) ]

let run (scale : Util.scale) =
  Util.print_header "Figure 8: input capping (coverage and time per cap)";
  let experiment name caps iters =
    let t = Util.target name in
    let info = Targets.Registry.instrument t in
    let key = t.Targets.Registry.tuning.Targets.Registry.key_input in
    Printf.printf "%s (cap on %s, %d iterations, %d reps):\n" name
      (if name = "susy-hmc" then "all four dims" else key)
      iters scale.Util.reps;
    Printf.printf "  %-8s %10s %12s %12s\n" "cap" "avg cov." "avg t(s)" "max t(s)";
    let times_by_cap =
      List.map
        (fun cap ->
          let runs =
            Util.repeat scale.Util.reps (fun rep ->
                let settings =
                  {
                    (Util.settings_for t) with
                    Compi.Driver.iterations = iters;
                    cap_overrides = capped_inputs name cap;
                    seed = 100 + rep;
                  }
                in
                let r = Util.campaign settings info in
                (float_of_int r.Compi.Driver.covered_branches, r.Compi.Driver.wall_time))
          in
          let covs = List.map fst runs and times = List.map snd runs in
          Printf.printf "  %-8d %10.0f %12.2f %12.2f\n%!" cap (Util.mean covs)
            (Util.mean times) (Util.fmax times);
          (cap, Util.mean times))
        caps
    in
    times_by_cap
  in
  let susy =
    experiment "susy-hmc" [ 5; 10 ] (Util.scaled_iters scale 50)
  in
  let hpl =
    experiment "hpl" [ 300; 600; 900; 1200 ] (Util.scaled_iters scale 300)
  in
  let imb =
    experiment "imb-mpi1" [ 50; 100; 200; 400 ] (Util.scaled_iters scale 300)
  in
  let ratio pairs lo hi = List.assoc hi pairs /. List.assoc lo pairs in
  Util.compare_line ~label:"SUSY time cap 10 / cap 5" ~paper:"~4x"
    ~measured:(Printf.sprintf "%.1fx" (ratio susy 5 10));
  Util.compare_line ~label:"HPL time cap 1200 / cap 300" ~paper:"up to ~7x (worst case)"
    ~measured:(Printf.sprintf "%.1fx" (ratio hpl 300 1200));
  Util.compare_line ~label:"IMB time cap 400 / cap 50" ~paper:"~4x (50 -> 400)"
    ~measured:(Printf.sprintf "%.1fx" (ratio imb 50 400))
