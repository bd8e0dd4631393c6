type outcome = Sat of Model.t | Unsat | Unknown

let default_budget = 50_000

exception Exhausted
exception Contradiction

(* Floor/ceil division with a positive divisor. *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

type state = { mutable doms : Domain.t Varid.Map.t; mutable dirty : bool }

let dom st v =
  match Varid.Map.find_opt v st.doms with Some d -> d | None -> Domain.full

let update st v d =
  let old = dom st v in
  if not (Domain.equal old d) then begin
    st.doms <- Varid.Map.add v d st.doms;
    st.dirty <- true
  end

let narrow st v f =
  match f (dom st v) with
  | None -> raise Contradiction
  | Some d -> update st v d

(* Enforce [sum terms <= bound] by interval reasoning on each term. *)
let enforce_le st terms bound =
  let term_min (c, v) =
    let d = dom st v in
    if c > 0 then c * d.Domain.lo else c * d.Domain.hi
  in
  let total_min = List.fold_left (fun acc t -> acc + term_min t) 0 terms in
  if total_min > bound then raise Contradiction;
  let tighten (c, v) =
    let margin = bound - (total_min - term_min (c, v)) in
    if c > 0 then narrow st v (Domain.clamp_hi (fdiv margin c))
    else narrow st v (Domain.clamp_lo (cdiv (-margin) (-c)))
  in
  List.iter tighten terms

(* Disequality [sum terms + k <> 0]: only prunes endpoint values once a
   single variable remains unfixed. *)
let enforce_ne st terms k =
  let fixed, unfixed =
    List.partition (fun (_, v) -> Domain.is_singleton (dom st v) <> None) terms
  in
  let rest =
    List.fold_left
      (fun acc (c, v) ->
        match Domain.is_singleton (dom st v) with
        | Some x -> acc + (c * x)
        | None -> acc)
      k fixed
  in
  match unfixed with
  | [] -> if rest = 0 then raise Contradiction
  | [ (c, v) ] ->
    if rest mod c = 0 then narrow st v (Domain.remove (-rest / c))
  | _ :: _ :: _ -> ()

let propagate_one st (c : Constr.t) =
  let terms = Linexp.terms c.Constr.exp in
  let k = Linexp.constant c.Constr.exp in
  let neg_terms = List.map (fun (co, v) -> (-co, v)) terms in
  match c.Constr.rel with
  | Constr.Le -> enforce_le st terms (-k)
  | Constr.Lt -> enforce_le st terms (-k - 1)
  | Constr.Ge -> enforce_le st neg_terms k
  | Constr.Gt -> enforce_le st neg_terms (k - 1)
  | Constr.Eq ->
    enforce_le st terms (-k);
    enforce_le st neg_terms k
  | Constr.Ne -> enforce_ne st terms k

let max_passes = 500

let propagate st cs =
  let rec loop pass =
    st.dirty <- false;
    List.iter (propagate_one st) cs;
    if st.dirty && pass < max_passes then loop (pass + 1)
  in
  loop 0

let model_of_doms st active =
  Varid.Set.fold
    (fun v m ->
      match Domain.is_singleton (dom st v) with
      | Some x -> Model.set v x m
      | None -> assert false)
    active Model.empty

let holds_all m cs =
  List.for_all (Constr.holds (Model.lookup_fn ~default:0 m)) cs

(* Complete search: try preferred value and both endpoints of the chosen
   variable, then split the remaining interval. Each step strictly
   shrinks a domain, so the search terminates; [budget] bounds it.
   [nodes] reports the nodes actually expended to the telemetry layer. *)
let search ~budget ~nodes ~prefer cs doms0 active =
  let remaining = ref budget in
  let pick st =
    let best = ref None in
    let consider v =
      let d = dom st v in
      match Domain.is_singleton d with
      | Some _ -> ()
      | None -> (
        match !best with
        | Some (_, size) when size <= Domain.size d -> ()
        | Some _ | None -> best := Some (v, Domain.size d))
    in
    Varid.Set.iter consider active;
    Option.map fst !best
  in
  let rec go st =
    decr remaining;
    incr nodes;
    if !remaining < 0 then raise Exhausted;
    match propagate st cs with
    | exception Contradiction -> None
    | () -> (
      match pick st with
      | None ->
        let m = model_of_doms st active in
        if holds_all m cs then Some m else None
      | Some v -> branch st v)
  and branch st v =
    let d = dom st v in
    let try_value x =
      let st' = { doms = Varid.Map.add v (Domain.singleton x) st.doms; dirty = false } in
      go st'
    in
    let candidates =
      let pref =
        match Model.find v prefer with
        | Some x when Domain.mem x d -> [ x ]
        | Some _ | None -> []
      in
      let base = [ d.Domain.lo; d.Domain.hi ] in
      let zero = if Domain.mem 0 d then [ 0 ] else [] in
      List.sort_uniq Int.compare (pref @ zero @ base)
      |> List.sort (fun a b ->
             (* preferred first, then magnitude order for stable small values *)
             let score x =
               if List.mem x pref then (0, 0) else (1, abs x)
             in
             Stdlib.compare (score a) (score b))
    in
    let rec try_candidates = function
      | [] -> split_rest ()
      | x :: rest -> (
        match try_value x with Some m -> Some m | None -> try_candidates rest)
    and split_rest () =
      (* lo and hi have been refuted as endpoints; shrink and split. *)
      match Domain.remove d.Domain.lo d with
      | None -> None
      | Some d1 -> (
        match Domain.remove d.Domain.hi d1 with
        | None -> None
        | Some d2 -> (
          match Domain.split d2 with
          | None ->
            (* single interior value left *)
            (match Domain.is_singleton d2 with
            | Some x -> try_value x
            | None -> None)
          | Some (left, right) ->
            let recurse half =
              let st' = { doms = Varid.Map.add v (half : Domain.t) st.doms; dirty = false } in
              go st'
            in
            (match recurse left with Some m -> Some m | None -> recurse right)))
    in
    try_candidates candidates
  in
  go { doms = doms0; dirty = false }

let solve_raw ~budget ~domains ~prefer ~nodes cs =
  (* Normalize: drop trivially-true constraints, fail fast on trivially
     false ones, and divide every remaining constraint by its coefficient
     gcd (tightening integer bounds and deciding divisibility). *)
  let exception Trivially_unsat in
  match
    List.filter_map
      (fun c ->
        match Constr.normalize c with
        | `True -> None
        | `False -> raise Trivially_unsat
        | `Constr c' -> Some c')
      cs
  with
  | exception Trivially_unsat -> Unsat
  | cs -> (
    let active =
      List.fold_left (fun acc c -> Varid.Set.union acc (Constr.vars c)) Varid.Set.empty cs
    in
    if Varid.Set.is_empty active then Sat Model.empty
    else
      match search ~budget ~nodes ~prefer cs domains active with
      | Some m -> Sat m
      | None -> Unsat
      | exception Exhausted -> Unknown)

(* --- telemetry ---------------------------------------------------- *)

let m_unknown = Obs.Metrics.counter "solver.unknown"
let m_nodes = Obs.Metrics.histogram "solver.nodes"

(* Wrap one solver entry with the search-node and unknown-verdict
   accounting no event carries. The trace records each negation attempt
   once, in the campaign's [lineage_negation] event, and times the
   solve in the enclosing "solve" span. *)
let instrumented f =
  let nodes = ref 0 in
  let outcome = f nodes in
  Obs.Metrics.observe_int m_nodes !nodes;
  (match outcome with Unknown -> Obs.Metrics.incr m_unknown | Sat _ | Unsat -> ());
  outcome

let solve ?(budget = default_budget) ?(domains = Varid.Map.empty) ?(prefer = Model.empty) cs =
  instrumented (fun nodes -> solve_raw ~budget ~domains ~prefer ~nodes cs)

type incremental_result = {
  model : Model.t;
  fresh : Model.t;
  resolved : Varid.Set.t;
  changed : Varid.Set.t;
}

let finish_incremental ~prev ~vars outcome =
  match outcome with
  | Unsat -> Error `Unsat
  | Unknown -> Error `Unknown
  | Sat m ->
    let resolved = vars in
    let solved_only =
      Varid.Set.fold
        (fun v acc ->
          match Model.find v m with
          | Some x -> Model.set v x acc
          | None -> acc)
        resolved Model.empty
    in
    let changed = Model.changed_vars ~before:prev ~after:solved_only in
    Ok
      {
        model = Model.union_prefer_left solved_only prev;
        fresh = solved_only;
        resolved;
        changed;
      }

let solve_incremental ?(budget = default_budget) ?(domains = Varid.Map.empty)
    ?(canonical = false) ~prev ~target cs =
  let closure, vars = Constr.dependency_closure ~seed:(Constr.vars target) cs in
  (* In canonical mode the solve must be a pure function of the closure
     as a set plus [domains] — the identity a solver cache keys on — so
     the closure is sorted/deduplicated and [prev] is not offered to the
     value search (it still anchors the merge and the [changed] diff). *)
  let closure = if canonical then List.sort_uniq Constr.compare closure else closure in
  let prefer = if canonical then Model.empty else prev in
  instrumented (fun nodes -> solve_raw ~budget ~domains ~prefer ~nodes closure)
  |> finish_incremental ~prev ~vars

let solve_prepared ?(budget = default_budget) ?(domains = Varid.Map.empty) ~prev
    ~closure ~vars () =
  (* The canonical-mode tail of [solve_incremental] for a caller that
     already holds the sorted, deduplicated dependency closure and its
     variable set (e.g. from building a cache key): same verdict, no
     second closure computation or sort. *)
  instrumented (fun nodes ->
      solve_raw ~budget ~domains ~prefer:Model.empty ~nodes closure)
  |> finish_incremental ~prev ~vars
