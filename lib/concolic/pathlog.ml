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

let create ~reduce =
  {
    reduce;
    events = Array.make 64 0;
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

let constraints t =
  let arr = Array.make t.nconstraints (0, Smt.Constr.make (Smt.Linexp.const 0) Smt.Constr.Eq) in
  List.iteri (fun k kept -> arr.(t.nconstraints - 1 - k) <- kept) t.kept_rev;
  arr

let constraint_count t = t.nconstraints
let branch_events t = t.nevents

let tail ?(n = 8) t =
  let k = min n t.nevents in
  List.init k (fun j -> Minic.Branchinfo.cond_of_branch (t.events.(t.nevents - k + j) lsr 1))

(* Heavy log: every branch event (8 bytes) + all constraints + a header.
   Light log: the set of distinct covered branch ids only. *)
let heavy_bytes t = 64 + (8 * t.nevents) + t.constraint_bytes

let light_bytes t =
  let distinct = Hashtbl.create 64 in
  for i = 0 to t.nevents - 1 do
    Hashtbl.replace distinct (t.events.(i) lsr 1) ()
  done;
  64 + (8 * Hashtbl.length distinct)

let serialize t =
  let buf = Buffer.create (t.constraint_bytes + (16 * t.nevents) + 64) in
  let kept = constraints t in
  let next = ref 0 in
  for i = 0 to t.nevents - 1 do
    let word = t.events.(i) in
    Buffer.add_string buf (string_of_int (word lsr 1));
    if word land 1 = 1 then begin
      let c = snd kept.(!next) in
      incr next;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Smt.Constr.rel_to_string c.Smt.Constr.rel);
      List.iter
        (fun (coeff, var) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int coeff);
          Buffer.add_char buf '*';
          Buffer.add_string buf (string_of_int var))
        (Smt.Linexp.terms c.Smt.Constr.exp);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (Smt.Linexp.constant c.Smt.Constr.exp))
    end;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let parse_count text =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) text;
  !n
