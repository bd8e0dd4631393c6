(* Per-execution constraint index, built on the first [prepare_negation]
   of the run and shared by all of its negations. Slots number the
   distinct constraints of the path and [extra] that mention a variable,
   in [Constr.compare] order; variable-free constraints never join a
   dependency closure, so they get no slot. Only ints and the path's own
   [Constr.t] values live here, so a checkpoint marshals it as is. *)
type closure_index = {
  ix_constrs : Smt.Constr.t array;  (* slot -> constraint, sorted *)
  ix_hash : int array;  (* slot -> Constr.hash *)
  ix_vars : int array array;  (* slot -> its variable ids, ascending *)
  ix_first : int array;  (* slot -> first path position; -1 if in [extra] *)
  ix_of_pos : int array;  (* path position -> slot; -1 if variable-free *)
  ix_by_var : int array array;  (* variable id -> slots mentioning it *)
}

type t = {
  constraints : (int * Smt.Constr.t) array;
  symtab : Symtab.t;
  model : Smt.Model.t;
  domains : Smt.Domain.t Smt.Varid.Map.t;
  extra : Smt.Constr.t list;
  nprocs : int;
  focus : int;
  mapping : (int * int array) list;
  mutable exec_id : int;
  mutable exec_schedule : int list;
  mutable closure_index : closure_index option;
}

let length t = Array.length t.constraints

let prefix t i =
  let rec go k acc = if k < 0 then acc else go (k - 1) (snd t.constraints.(k) :: acc) in
  go (i - 1) []

let constr_at t i = snd t.constraints.(i)
let branch_at t i = fst t.constraints.(i)

let negation_problem t i =
  let negated = Smt.Constr.negate (constr_at t i) in
  (negated, negated :: List.rev_append (List.rev (prefix t i)) t.extra)

let solve_negation ?budget ?canonical t i =
  let negated, cs = negation_problem t i in
  Smt.Solver.solve_incremental ?budget ?canonical ~domains:t.domains ~prev:t.model
    ~target:negated cs

module Constr_tbl = Hashtbl.Make (struct
  type t = Smt.Constr.t

  let equal = Smt.Constr.equal
  let hash = Smt.Constr.hash
end)

let build_index t =
  (* number the distinct constraints that mention a variable in order of
     first presence — [extra] (present from the start: position -1),
     then the path — so each keeps its earliest position *)
  let ids = Constr_tbl.create 64 and firsts = ref [] and count = ref 0 in
  let id_at pos c =
    if Smt.Constr.trivial c <> None then -1
    else
      match Constr_tbl.find_opt ids c with
      | Some id -> id
      | None ->
        Constr_tbl.add ids c !count;
        firsts := (pos, c) :: !firsts;
        incr count;
        !count - 1
  in
  List.iter (fun c -> ignore (id_at (-1) c)) t.extra;
  let pos_id = Array.mapi (fun k (_, c) -> id_at k c) t.constraints in
  let by_id = Array.of_list (List.rev !firsts) in
  (* sort only the distinct constraints; slots follow that order *)
  let order = Array.init !count Fun.id in
  Array.sort (fun a b -> Smt.Constr.compare (snd by_id.(a)) (snd by_id.(b))) order;
  let slot_of_id = Array.make !count 0 in
  Array.iteri (fun slot id -> slot_of_id.(id) <- slot) order;
  let constrs = Array.map (fun id -> snd by_id.(id)) order in
  let vars =
    Array.map (fun c -> Array.of_list (Smt.Varid.Set.elements (Smt.Constr.vars c))) constrs
  in
  let nvars = Array.fold_left (Array.fold_left (fun m v -> max m (v + 1))) 0 vars in
  let degree = Array.make nvars 0 in
  Array.iter (Array.iter (fun v -> degree.(v) <- degree.(v) + 1)) vars;
  let by_var = Array.map (fun d -> Array.make d 0) degree in
  Array.iteri
    (fun slot vs ->
      Array.iter
        (fun v ->
          degree.(v) <- degree.(v) - 1;
          by_var.(v).(degree.(v)) <- slot)
        vs)
    vars;
  {
    ix_constrs = constrs;
    ix_hash = Array.map Smt.Constr.hash constrs;
    ix_vars = vars;
    ix_first = Array.map (fun id -> fst by_id.(id)) order;
    ix_of_pos = Array.map (fun id -> if id < 0 then -1 else slot_of_id.(id)) pos_id;
    ix_by_var = by_var;
  }

let closure_index t =
  match t.closure_index with
  | Some ix -> ix
  | None ->
    let ix = build_index t in
    t.closure_index <- Some ix;
    ix

(* The canonical identity of the solve that [solve_negation t i] would
   perform: the dependency closure of the negated constraint — exactly
   what the incremental solver re-solves — sorted, deduplicated and
   keyed with the run's domains, plus the closure's variable set. It
   equals [Smt.Cache.key] over [Constr.dependency_closure] of
   [negation_problem t i], but is read off the run's closure index: a
   walk from the negated constraint's variables over the slots present
   before position [i], then one pass over the slots in sorted order
   with the negated constraint merged in — no prefix copy, no set per
   constraint, no sort. The campaign derives the cache probe, the miss
   solve and the hit replay all from this one value. *)
type prepared = { p_key : Smt.Cache.key; p_vars : Smt.Varid.Set.t }

let prepare_negation t i =
  let ix = closure_index t in
  let slot = ix.ix_of_pos.(i) in
  if slot < 0 then
    (* no variable to seed the walk: the closure is empty *)
    {
      p_key = Smt.Cache.key_sorted ~domains:t.domains ~vars:[] ~hashes:[] [];
      p_vars = Smt.Varid.Set.empty;
    }
  else begin
    let n = Array.length ix.ix_constrs and nvars = Array.length ix.ix_by_var in
    let member = Bytes.make n '\000' and seen = Bytes.make nvars '\000' in
    let stack = Array.make nvars 0 and top = ref 0 in
    let push v =
      if Bytes.get seen v = '\000' then begin
        Bytes.set seen v '\001';
        stack.(!top) <- v;
        incr top
      end
    in
    (* negation keeps the variables: seed with the slot's own *)
    Array.iter push ix.ix_vars.(slot);
    while !top > 0 do
      decr top;
      Array.iter
        (fun j ->
          if Bytes.get member j = '\000' && ix.ix_first.(j) < i then begin
            Bytes.set member j '\001';
            Array.iter push ix.ix_vars.(j)
          end)
        ix.ix_by_var.(stack.(!top))
    done;
    let negated = Smt.Constr.negate (constr_at t i) in
    (* [rank]: the first slot not below [negated], where it merges in *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Smt.Constr.compare ix.ix_constrs.(mid) negated < 0 then lo := mid + 1
      else hi := mid
    done;
    let rank = !lo in
    let dup = rank < n && Smt.Constr.compare ix.ix_constrs.(rank) negated = 0 in
    let cs = ref [] and hashes = ref [] in
    let emit c h =
      cs := c :: !cs;
      hashes := h :: !hashes
    in
    let emit_negated () = emit negated (Smt.Constr.hash negated) in
    if rank = n then emit_negated ();
    for j = n - 1 downto 0 do
      if Bytes.get member j = '\001' && not (dup && j = rank) then
        emit ix.ix_constrs.(j) ix.ix_hash.(j);
      if j = rank then emit_negated ()
    done;
    let vars = ref [] in
    for v = nvars - 1 downto 0 do
      if Bytes.get seen v = '\001' then vars := v :: !vars
    done;
    {
      p_key = Smt.Cache.key_sorted ~domains:t.domains ~vars:!vars ~hashes:!hashes !cs;
      p_vars = List.fold_left (fun s v -> Smt.Varid.Set.add v s) Smt.Varid.Set.empty !vars;
    }
  end

let prepared_key p = p.p_key
let prepared_vars p = p.p_vars

let solve_prepared ?budget t p =
  Smt.Solver.solve_prepared ?budget ~domains:t.domains ~prev:t.model
    ~closure:(Smt.Cache.key_constrs p.p_key) ~vars:p.p_vars ()

let negation_key t i = (prepare_negation t i).p_key

let replay ~vars t outcome =
  match (outcome : Smt.Cache.outcome) with
  | Smt.Cache.Unsat -> Error `Unsat
  | Smt.Cache.Sat cached ->
    (* Reconstruct what a canonical solve_negation would have returned:
       [cached] is a pure function of the key, so merging it over this
       run's concrete model and diffing against it reproduces the live
       result even though the verdict was found under another run. *)
    let resolved = vars in
    let fresh =
      Smt.Varid.Set.fold
        (fun v acc ->
          match Smt.Model.find v cached with
          | Some x -> Smt.Model.set v x acc
          | None -> acc)
        resolved Smt.Model.empty
    in
    let changed = Smt.Model.changed_vars ~before:t.model ~after:fresh in
    Ok
      {
        Smt.Solver.model = Smt.Model.union_prefer_left fresh t.model;
        fresh;
        resolved;
        changed;
      }

let apply_prepared t p outcome = replay ~vars:p.p_vars t outcome

let apply_cached t i outcome = replay ~vars:(prepare_negation t i).p_vars t outcome
