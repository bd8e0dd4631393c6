(* Per-execution constraint index, built on the first [prepare_negation]
   of the run and shared by all of its negations. Slots number the
   distinct constraints of the path and [extra] that mention a variable,
   in [Constr.compare] order; variable-free constraints never join a
   dependency closure, so they get no slot. Each slot's [Constr.flat]
   form is stored once, preceded by its length, in one int array: the
   closure walk reads a slot's variables there and a cache key copies
   it verbatim. Only ints and the path's own [Constr.t] values live
   here, so a checkpoint marshals it as is. *)
type closure_index = {
  ix_constrs : Smt.Constr.t array;  (* slot -> constraint, sorted *)
  ix_flat : int array;  (* every slot's flat length, then its form *)
  ix_off : int array;  (* slot -> offset of its length in [ix_flat] *)
  ix_hash : int array;  (* slot -> [Smt.Cache.form_hash] of its form *)
  ix_first : int array;  (* slot -> first path position; -1 if in [extra] *)
  ix_of_pos : int array;  (* path position -> slot; -1 if variable-free *)
  ix_by_var : int array array;  (* variable id -> slots mentioning it *)
  ix_doms : int array;  (* variable id v -> domain lo at 2v, hi at 2v+1 *)
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

let hash_flat (f : int array) =
  let h = ref 0 in
  for k = 0 to Array.length f - 1 do
    h := (!h * 31) + f.(k)
  done;
  !h

(* The filler of constraint arrays before their slots are set: an old
   value, so [Array.make] of a long array never forces a minor
   collection to promote it. *)
let no_constr = Smt.Constr.make (Smt.Linexp.const 0) Smt.Constr.Eq

let build_index t =
  (* number the distinct constraints that mention a variable in order of
     first presence — [extra] (present from the start: position -1),
     then the path — so each keeps its earliest position. Each position
     is flattened once and deduplicated on its ints, in an open-address
     table of ids. *)
  let npos = Array.length t.constraints in
  let m = List.length t.extra + npos in
  let cap = ref 16 in
  while !cap < m + (m / 2) do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let table = Array.make !cap (-1) in
  let id_flat = Array.make m [||] and id_pos = Array.make m 0 in
  let id_constr = Array.make m no_constr in
  let count = ref 0 in
  let id_at pos c =
    let f = Smt.Constr.flat c in
    (* no binding: variable-free *)
    if Array.length f = 2 then -1
    else begin
      let h = ref (hash_flat f land mask) in
      while table.(!h) >= 0 && Smt.Constr.compare_flat id_flat.(table.(!h)) f <> 0 do
        h := (!h + 1) land mask
      done;
      if table.(!h) < 0 then begin
        let id = !count in
        table.(!h) <- id;
        id_flat.(id) <- f;
        id_pos.(id) <- pos;
        id_constr.(id) <- c;
        incr count
      end;
      table.(!h)
    end
  in
  List.iter (fun c -> ignore (id_at (-1) c)) t.extra;
  let pos_id = Array.map (fun _ -> -1) t.constraints in
  for k = 0 to npos - 1 do
    pos_id.(k) <- id_at k (snd t.constraints.(k))
  done;
  (* sort only the distinct constraints, on their flat forms (a merge
     sort); slots follow that order *)
  let n = !count in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Smt.Constr.compare_flat id_flat.(a) id_flat.(b)) order;
  let slot_of_id = Array.make n 0 and off = Array.make n 0 and total = ref 0 in
  for slot = 0 to n - 1 do
    slot_of_id.(order.(slot)) <- slot;
    off.(slot) <- !total;
    total := !total + 1 + Array.length id_flat.(order.(slot))
  done;
  let flat = Array.make !total 0 and nvars = ref 0 in
  for slot = 0 to n - 1 do
    let f = id_flat.(order.(slot)) and o = off.(slot) in
    let len = Array.length f in
    flat.(o) <- len;
    for j = 0 to len - 1 do
      flat.(o + 1 + j) <- f.(j)
    done;
    (* the last binding holds the slot's largest variable *)
    nvars := max !nvars (f.(len - 2) + 1)
  done;
  let nvars = !nvars in
  (* a slot's variables: every other int after its constant *)
  let degree = Array.make nvars 0 in
  for slot = 0 to n - 1 do
    let o = off.(slot) in
    let k = ref (o + 3) in
    while !k < o + flat.(o) do
      degree.(flat.(!k)) <- degree.(flat.(!k)) + 1;
      k := !k + 2
    done
  done;
  let by_var = Array.make nvars [||] in
  Array.iteri (fun v d -> by_var.(v) <- Array.make d 0) degree;
  for slot = 0 to n - 1 do
    let o = off.(slot) in
    let k = ref (o + 3) in
    while !k < o + flat.(o) do
      let v = flat.(!k) in
      degree.(v) <- degree.(v) - 1;
      by_var.(v).(degree.(v)) <- slot;
      k := !k + 2
    done
  done;
  let doms = Array.make (2 * nvars) 0 in
  for v = 0 to nvars - 1 do
    let d =
      match Smt.Varid.Map.find_opt v t.domains with Some d -> d | None -> Smt.Domain.full
    in
    doms.(2 * v) <- d.Smt.Domain.lo;
    doms.((2 * v) + 1) <- d.Smt.Domain.hi
  done;
  {
    ix_constrs =
      (let cs = Array.make n no_constr in
       Array.iteri (fun slot id -> cs.(slot) <- id_constr.(id)) order;
       cs);
    ix_flat = flat;
    ix_off = off;
    ix_hash = Array.map (fun o -> Smt.Cache.form_hash flat o ~rel:flat.(o + 1)) off;
    ix_first = Array.map (fun id -> id_pos.(id)) order;
    ix_of_pos = Array.map (fun id -> if id < 0 then -1 else slot_of_id.(id)) pos_id;
    ix_by_var = by_var;
    ix_doms = doms;
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
   that lists where each member's flat form sits in the index, with the
   negated constraint's form (its slot's, under the negated relation)
   merged in at its rank: the key shares the index's ints — no prefix
   copy, no set per constraint, no sort, no constraint list. The list the solver needs is built from the same
   slots only on a miss ([closure_constrs]). The campaign derives the
   cache probe, the miss solve and the hit replay all from this one
   value. *)
type prepared = {
  p_key : Smt.Cache.key;
  p_doms : int array;  (* the key's [v; lo; hi] triples *)
  p_pos : int;  (* the negated path position *)
  p_member : Bytes.t;  (* slot -> '\001' when in the closure *)
  p_rank : int;  (* where the negation merges in; -1: empty closure *)
  p_dup : bool;  (* the slot at [p_rank] equals the negation *)
}

(* [compare] of slot [j]'s constraint with slot [s]'s under relation
   rank [r], on their flat forms *)
let compare_with_rel ix j s r =
  let fl = ix.ix_flat in
  let oj = ix.ix_off.(j) + 1 and os = ix.ix_off.(s) + 1 in
  let lj = fl.(oj - 1) and ls = fl.(os - 1) in
  if fl.(oj) <> r then Int.compare fl.(oj) r
  else begin
    let m = if lj < ls then lj else ls in
    let k = ref 1 in
    while !k < m && fl.(oj + !k) = fl.(os + !k) do
      incr k
    done;
    if !k < m then Int.compare fl.(oj + !k) fl.(os + !k) else Int.compare lj ls
  end

let prepare_negation t i =
  let ix = closure_index t in
  let slot = ix.ix_of_pos.(i) in
  if slot < 0 then
    (* no variable to seed the walk: the closure is empty *)
    {
      p_key =
        Smt.Cache.key_of_forms ~forms:[||] ~at:[||] ~hashes:[||] ~neg:(-1) ~rel:0 ~doms:[||];
      p_doms = [||];
      p_pos = i;
      p_member = Bytes.empty;
      p_rank = -1;
      p_dup = false;
    }
  else begin
    let n = Array.length ix.ix_constrs and nvars = Array.length ix.ix_by_var in
    let fl = ix.ix_flat in
    let member = Bytes.make n '\000' and seen = Bytes.make nvars '\000' in
    let stack = Array.make nvars 0 and top = ref 0 and nseen = ref 0 and nmember = ref 0 in
    let push_vars j =
      let o = ix.ix_off.(j) in
      let stop = o + fl.(o) in
      let k = ref (o + 3) in
      while !k < stop do
        let v = fl.(!k) in
        if Bytes.get seen v = '\000' then begin
          Bytes.set seen v '\001';
          incr nseen;
          stack.(!top) <- v;
          incr top
        end;
        k := !k + 2
      done
    in
    (* negation keeps the variables: seed with the slot's own *)
    push_vars slot;
    while !top > 0 do
      decr top;
      let slots = ix.ix_by_var.(stack.(!top)) in
      for s = 0 to Array.length slots - 1 do
        let j = slots.(s) in
        if Bytes.get member j = '\000' && ix.ix_first.(j) < i then begin
          Bytes.set member j '\001';
          incr nmember;
          push_vars j
        end
      done
    done;
    let nrel = Smt.Constr.rel_rank (Smt.Constr.negate (constr_at t i)).Smt.Constr.rel in
    (* [rank]: the first slot not below the negation, where it merges in *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare_with_rel ix mid slot nrel < 0 then lo := mid + 1 else hi := mid
    done;
    let rank = !lo in
    let dup = rank < n && compare_with_rel ix rank slot nrel = 0 in
    let keep j = Bytes.get member j = '\001' && not (dup && j = rank) in
    let replaced = dup && Bytes.get member rank = '\001' in
    let size = if replaced then !nmember else !nmember + 1 in
    (* the key reads the index's forms at these offsets, the negation
       as its slot's form under [nrel] *)
    let at = Array.make size 0 and hashes = Array.make size 0 in
    let k = ref 0 and neg = ref 0 in
    let put j h =
      at.(!k) <- ix.ix_off.(j);
      hashes.(!k) <- h;
      incr k
    in
    let put_negated () =
      neg := !k;
      put slot (Smt.Cache.form_hash fl ix.ix_off.(slot) ~rel:nrel)
    in
    for j = 0 to n - 1 do
      if j = rank then put_negated ();
      if keep j then put j ix.ix_hash.(j)
    done;
    if rank = n then put_negated ();
    let doms = Array.make (3 * !nseen) 0 and d = ref 0 in
    for v = 0 to nvars - 1 do
      if Bytes.get seen v = '\001' then begin
        doms.(!d) <- v;
        doms.(!d + 1) <- ix.ix_doms.(2 * v);
        doms.(!d + 2) <- ix.ix_doms.((2 * v) + 1);
        d := !d + 3
      end
    done;
    {
      p_key = Smt.Cache.key_of_forms ~forms:fl ~at ~hashes ~neg:!neg ~rel:nrel ~doms;
      p_doms = doms;
      p_pos = i;
      p_member = member;
      p_rank = rank;
      p_dup = dup;
    }
  end

let prepared_key p = p.p_key

let prepared_vars p =
  let vars = ref Smt.Varid.Set.empty in
  for k = 0 to (Array.length p.p_doms / 3) - 1 do
    vars := Smt.Varid.Set.add p.p_doms.(3 * k) !vars
  done;
  !vars

(* The key's closure as the index's own constraints, in its order: the
   member slots with the negation at its rank. *)
let closure_constrs t p =
  if p.p_rank < 0 then []
  else begin
    let ix = closure_index t in
    let negated = Smt.Constr.negate (constr_at t p.p_pos) in
    let n = Array.length ix.ix_constrs in
    let cs = ref (if p.p_rank = n then [ negated ] else []) in
    for j = n - 1 downto 0 do
      if Bytes.get p.p_member j = '\001' && not (p.p_dup && j = p.p_rank) then
        cs := ix.ix_constrs.(j) :: !cs;
      if j = p.p_rank then cs := negated :: !cs
    done;
    !cs
  end

let solve_prepared ?budget t p =
  Smt.Solver.solve_prepared ?budget ~domains:t.domains ~prev:t.model
    ~closure:(closure_constrs t p) ~vars:(prepared_vars p) ()

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

let apply_prepared t p outcome = replay ~vars:(prepared_vars p) t outcome

let apply_cached t i outcome = apply_prepared t (prepare_negation t i) outcome
