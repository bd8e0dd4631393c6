(* Flat per-execution state, so recording a branch event allocates
   nothing but the occasional doubling of an array:
   - [events]: one int per branch event, [branch lsl 1] with the low bit
     set when the event kept a constraint;
   - [kept_rev]: the kept constraints with their branch ids, newest first;
   - [last_outcome]: for reduction, one byte per conditional indexed by
     [cond_id]: '\000' never seen, '\001' last not taken, '\002' last
     taken. *)
type t = {
  reduce : bool;
  mutable events : int array;
  mutable nevents : int;
  mutable kept_rev : (int * Smt.Constr.t) list;
  mutable nconstraints : int;
  mutable last_outcome : Bytes.t;
  mutable constraint_bytes : int;
}

(* Event buffers released by finished logs, per domain: a campaign's
   logs reach the same length run after run, so reusing a buffer spares
   regrowing it from 64 slots on every test. A domain keeps at most
   [max_spares] buffers, enough for a one-way run's several live logs. *)
let max_spares = 16
let spares : int array list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let create ~reduce =
  let events =
    match Domain.DLS.get spares with
    | buf :: rest ->
      Domain.DLS.set spares rest;
      buf
    | [] -> Array.make 64 0
  in
  {
    reduce;
    events;
    nevents = 0;
    kept_rev = [];
    nconstraints = 0;
    last_outcome = Bytes.make 64 '\000';
    constraint_bytes = 0;
  }

(* Rough serialized size of one linear constraint: one 16-byte line per
   term plus relation and constant. *)
let constr_bytes c =
  16 + (16 * List.length (Smt.Linexp.terms c.Smt.Constr.exp))

let outcome_byte taken = if taken then '\002' else '\001'

let push_event t word =
  if t.nevents = Array.length t.events then begin
    let grown = Array.make (2 * t.nevents) 0 in
    Array.blit t.events 0 grown 0 t.nevents;
    t.events <- grown
  end;
  t.events.(t.nevents) <- word;
  t.nevents <- t.nevents + 1

let record t ~cond_id ~taken ~constr =
  if cond_id >= Bytes.length t.last_outcome then
    t.last_outcome <- Bytemap.ensure t.last_outcome cond_id;
  let now = outcome_byte taken in
  let keep =
    match constr with
    | None -> None
    | Some _ when not t.reduce -> constr
    | Some _ -> if Bytes.get t.last_outcome cond_id = now then None else constr
  in
  Bytes.set t.last_outcome cond_id now;
  let branch = Minic.Branchinfo.branch_of_cond cond_id taken in
  match keep with
  | Some c ->
    push_event t ((branch lsl 1) lor 1);
    t.kept_rev <- (branch, c) :: t.kept_rev;
    t.nconstraints <- t.nconstraints + 1;
    t.constraint_bytes <- t.constraint_bytes + constr_bytes c
  | None -> push_event t (branch lsl 1)

let release t =
  let kept = Domain.DLS.get spares in
  if Array.length t.events > 0 && List.compare_length_with kept max_spares < 0 then
    Domain.DLS.set spares (t.events :: kept);
  t.events <- [||]

let constraints t =
  let arr = Array.make t.nconstraints (0, Smt.Constr.make (Smt.Linexp.const 0) Smt.Constr.Eq) in
  List.iteri (fun k kept -> arr.(t.nconstraints - 1 - k) <- kept) t.kept_rev;
  arr

let constraint_count t = t.nconstraints
let branch_events t = t.nevents

let tail ?(n = 8) t =
  let k = min n t.nevents in
  List.init k (fun j -> Minic.Branchinfo.cond_of_branch (t.events.(t.nevents - k + j) lsr 1))

(* Heavy log: every branch event (8 bytes) + all constraints + a header. *)
let heavy_bytes t = 64 + (8 * t.nevents) + t.constraint_bytes

(* Decimal width of [n], sign included. Both helpers work on [-|n|],
   which never overflows, so [min_int] needs no special case. *)
let rec neg_width m =
  if m > -10 then 1
  else if m > -100 then 2
  else if m > -1000 then 3
  else if m > -10000 then 4
  else 4 + neg_width (m / 10000)

let int_width n = if n < 0 then 1 + neg_width n else neg_width (-n)

(* [write_int b pos n] writes [n] in decimal ending just before [pos] and
   returns where it starts. *)
let write_int b pos n =
  let pos = ref pos and m = ref (if n < 0 then n else -n) in
  while
    decr pos;
    Bytes.set b !pos (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10;
    !m <> 0
  do
    ()
  done;
  if n < 0 then begin
    decr pos;
    Bytes.set b !pos '-'
  end;
  !pos

(* One line per event: the branch id, then for a kept constraint
   [" <rel> <coeff>*<var>... <const>"], then a newline. *)
let constr_width c =
  let exp = c.Smt.Constr.exp in
  List.fold_left
    (fun w (coeff, var) -> w + 2 + int_width coeff + int_width var)
    (2 + String.length (Smt.Constr.rel_to_string c.Smt.Constr.rel)
    + int_width (Smt.Linexp.constant exp))
    (Smt.Linexp.terms exp)

(* Writes [" <coeff>*<var>"] for each term, ending at [pos]. *)
let rec write_terms b pos = function
  | [] -> pos
  | (coeff, var) :: rest ->
    let pos = write_int b (write_terms b pos rest) var - 1 in
    Bytes.set b pos '*';
    let pos = write_int b pos coeff - 1 in
    Bytes.set b pos ' ';
    pos

(* Two passes and one exact-size allocation: the width pass sums every
   line's byte count, the write pass fills the bytes from the end, so
   the kept constraints (newest first) are met in the order they are
   stored. *)
let serialize t =
  let size = ref t.nevents in
  for i = 0 to t.nevents - 1 do
    size := !size + int_width (t.events.(i) lsr 1)
  done;
  List.iter (fun (_, c) -> size := !size + constr_width c) t.kept_rev;
  let b = Bytes.create !size in
  let pos = ref !size and kept = ref t.kept_rev in
  for i = t.nevents - 1 downto 0 do
    let word = t.events.(i) in
    decr pos;
    Bytes.set b !pos '\n';
    if word land 1 = 1 then begin
      match !kept with
      | [] -> assert false
      | (_, c) :: rest ->
        kept := rest;
        let exp = c.Smt.Constr.exp in
        let p = write_int b !pos (Smt.Linexp.constant exp) - 1 in
        Bytes.set b p ' ';
        let p = write_terms b p (Smt.Linexp.terms exp) in
        let rel = Smt.Constr.rel_to_string c.Smt.Constr.rel in
        let p = p - String.length rel - 1 in
        Bytes.blit_string rel 0 b (p + 1) (String.length rel);
        Bytes.set b p ' ';
        pos := p
    end;
    pos := write_int b !pos (word lsr 1)
  done;
  assert (!pos = 0 && !kept = []);
  Bytes.unsafe_to_string b

let parse_count text =
  let n = ref 0 in
  for i = 0 to String.length text - 1 do
    if String.unsafe_get text i = '\n' then incr n
  done;
  !n
