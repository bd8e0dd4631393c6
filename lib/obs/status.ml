(* Live campaign status snapshot: the compact JSON document the engine
   atomically publishes at merge points, and `compi-cli status`/`watch`
   read back. One flat object per file, versioned, so a newer producer
   can add fields without breaking an older reader. *)

let version = 1

type t = {
  target : string;
  budget : int;
  rounds : int;
  executed : int;
  covered : int;
  reachable : int;
  bugs : int;
  queue_depth : int;
  utilization : float;
  cache_hit_rate : float;
  schedule_forks : int;
  plateau : bool;
  eta_iterations : int;  (* -1 = no estimate *)
  finished : bool;
}

(* Coverage-curve slope over the trailing [window] iterations: the
   plateau/ETA estimate the dashboard shows. The curve is ascending
   (iteration, cumulative covered). *)
let estimate ?(window = 20) ~reachable curve =
  match List.rev curve with
  | [] -> (false, -1)
  | (_, c1) :: _ when c1 >= reachable && reachable > 0 -> (false, 0)
  | (i1, c1) :: older -> (
    let rec back = function
      | [] -> None
      | (i0, c0) :: rest -> if i1 - i0 >= window then Some (i0, c0) else back rest
    in
    match back older with
    | None -> (false, -1) (* not enough history for a slope *)
    | Some (i0, c0) ->
      let gained = c1 - c0 in
      if gained <= 0 then (true, -1)
      else
        let slope = float_of_int gained /. float_of_int (i1 - i0) in
        let remaining = max 0 (reachable - c1) in
        (false, int_of_float (ceil (float_of_int remaining /. slope))))

(* The counters, the reachable count and the curve window come from the
   campaign's own fold; the rest is trajectory or engine state only the
   campaign holds. *)
let of_fold ~target ~budget ~rounds ~executed ~covered ~queue_depth ~utilization ~finished
    fold =
  let lv = Fold.live fold in
  let reachable = lv.Fold.lv_reachable in
  let plateau, eta_iterations = estimate ~reachable lv.Fold.lv_curve_tail in
  let probes = lv.Fold.lv_cache_hits + lv.Fold.lv_cache_misses in
  {
    target;
    budget;
    rounds;
    executed;
    covered;
    reachable;
    bugs = lv.Fold.lv_bugs;
    queue_depth;
    utilization;
    cache_hit_rate =
      (if probes = 0 then 0.0 else float_of_int lv.Fold.lv_cache_hits /. float_of_int probes);
    schedule_forks = lv.Fold.lv_schedule_emitted;
    plateau;
    eta_iterations;
    finished;
  }

let to_json t =
  Json.Obj
    [
      ("v", Json.Int version);
      ("target", Json.Str t.target);
      ("budget", Json.Int t.budget);
      ("rounds", Json.Int t.rounds);
      ("executed", Json.Int t.executed);
      ("covered", Json.Int t.covered);
      ("reachable", Json.Int t.reachable);
      ("bugs", Json.Int t.bugs);
      ("queue_depth", Json.Int t.queue_depth);
      ("utilization", Json.Float t.utilization);
      ("cache_hit_rate", Json.Float t.cache_hit_rate);
      ("schedule_forks", Json.Int t.schedule_forks);
      ("plateau", Json.Bool t.plateau);
      ("eta_iterations", Json.Int t.eta_iterations);
      ("finished", Json.Bool t.finished);
    ]

let of_json j =
  let str n = Json.str_field n j and int n = Json.int_field n j in
  let flt n = Json.float_field n j and bool n = Json.bool_field n j in
  let ( let* ) = Result.bind in
  let* v = int "v" in
  (* forward-compat: a newer producer may add fields, never remove —
     read the v1 core regardless, refuse only when it is absent *)
  if v < 1 then Error (Printf.sprintf "bad status version %d" v)
  else
    let* target = str "target" in
    let* budget = int "budget" in
    let* rounds = int "rounds" in
    let* executed = int "executed" in
    let* covered = int "covered" in
    let* reachable = int "reachable" in
    let* bugs = int "bugs" in
    let* queue_depth = int "queue_depth" in
    let* utilization = flt "utilization" in
    let* cache_hit_rate = flt "cache_hit_rate" in
    let* schedule_forks = int "schedule_forks" in
    let* plateau = bool "plateau" in
    let* eta_iterations = int "eta_iterations" in
    let* finished = bool "finished" in
    Ok
      {
        target;
        budget;
        rounds;
        executed;
        covered;
        reachable;
        bugs;
        queue_depth;
        utilization;
        cache_hit_rate;
        schedule_forks;
        plateau;
        eta_iterations;
        finished;
      }

(* Atomic publish: write-to-temp then rename, so a concurrent reader
   sees either the previous snapshot or this one, never a torn file. *)
let publish path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | raw -> (
    match Json.parse (String.trim raw) with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> of_json j)
