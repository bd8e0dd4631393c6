(* Flat per-execution state, so recording a branch event allocates
   nothing but the occasional doubling of an array:
   - [events]: one int per branch event, [branch lsl 1] with the low bit
     set when the event kept a constraint;
   - [kept]: the kept constraints with their branch ids, oldest first,
     in the first [nconstraints] slots;
   - [last_outcome]: for reduction, one byte per conditional indexed by
     [cond_id]: '\000' never seen, '\001' last not taken, '\002' last
     taken. *)
type t = {
  reduce : bool;
  mutable events : int array;
  mutable nevents : int;
  mutable kept : (int * Smt.Constr.t) array;
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

(* The filler of [kept]'s unused slots. It is allocated once, at
   start-up, so once a minor collection has promoted it an [Array.make]
   of more than 256 slots with it forces no minor collection. *)
let no_constraint = (0, Smt.Constr.make (Smt.Linexp.const 0) Smt.Constr.Eq)

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
    kept = [||];
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

(* [record]'s reduction decision, asked ahead of it: a conditional never
   seen has no byte yet, which reads as '\000'. *)
let keeps t ~cond_id ~taken =
  (not t.reduce)
  || cond_id >= Bytes.length t.last_outcome
  || Bytes.get t.last_outcome cond_id <> outcome_byte taken

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
    if t.nconstraints = Array.length t.kept then begin
      let grown = Array.make (max 16 (2 * t.nconstraints)) no_constraint in
      Array.blit t.kept 0 grown 0 t.nconstraints;
      t.kept <- grown
    end;
    t.kept.(t.nconstraints) <- (branch, c);
    t.nconstraints <- t.nconstraints + 1;
    t.constraint_bytes <- t.constraint_bytes + constr_bytes c
  | None -> push_event t (branch lsl 1)

let release t =
  let kept = Domain.DLS.get spares in
  if Array.length t.events > 0 && List.compare_length_with kept max_spares < 0 then
    Domain.DLS.set spares (t.events :: kept);
  t.events <- [||]

let constraints t = Array.sub t.kept 0 t.nconstraints

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

(* The widest integer, [min_int], takes 20 bytes, and a relation at
   most two. [max_tail] bounds a kept constraint's [" <const>"] and the
   newline, [max_line] an event line without terms (the branch id,
   [" <rel>"] and the tail) and [max_term] one [" <coeff>*<var>"] term
   with a tail after it. *)
let max_tail = 1 + 20 + 1
let max_line = 20 + 3 + max_tail
let max_term = 2 + 20 + 20 + max_tail

(* "00" to "99": [write_int] puts two digits in place per division. *)
let digit_pairs =
  String.init 200 (fun i -> Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

let write_pair b pos r =
  Bytes.unsafe_set b pos (String.unsafe_get digit_pairs (2 * r));
  Bytes.unsafe_set b (pos + 1) (String.unsafe_get digit_pairs ((2 * r) + 1))

(* [write_wide b pos n] writes any [n] in decimal from [pos] and returns
   the position after it: the width comes first, then the digits are
   put in place from the end, two at a time. *)
let write_wide b pos n =
  let stop = pos + int_width n in
  let p = ref stop and m = ref (if n < 0 then n else -n) in
  while !m <= -10 do
    let q = !m / 100 in
    p := !p - 2;
    write_pair b !p ((q * 100) - !m);
    m := q
  done;
  (* one digit is left, or [n] is 0 *)
  if !m < 0 || !p = stop then begin
    decr p;
    Bytes.unsafe_set b !p (Char.unsafe_chr (48 - !m))
  end;
  if n < 0 then Bytes.unsafe_set b (!p - 1) '-';
  stop

(* [write_wide] with a short path for [0 <= n < 10_000], where nearly
   every branch id of a log falls. *)
let write_int b pos n =
  if n < 0 || n >= 10_000 then write_wide b pos n
  else if n < 10 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + n));
    pos + 1
  end
  else if n < 100 then begin
    write_pair b pos n;
    pos + 2
  end
  else begin
    let hi = n / 100 in
    let lo = n - (100 * hi) in
    if hi < 10 then begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (48 + hi));
      write_pair b (pos + 1) lo;
      pos + 3
    end
    else begin
      write_pair b pos hi;
      write_pair b (pos + 2) lo;
      pos + 4
    end
  end

(* Each domain renders into its own buffer, which only grows: a
   campaign's logs reach the same length run after run, so after its
   first runs a render allocates no bytes. *)
let out : Bytes.t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

let grow out pos n =
  let grown = Bytes.create (2 * (pos + n)) in
  Bytes.blit !out 0 grown 0 pos;
  out := grown;
  grown

(* [room out pos n] is the domain's buffer with at least [n] bytes free
   from [pos]; a grown buffer is twice the size needed and keeps the
   first [pos] bytes. *)
let room out pos n =
  let b = !out in
  if pos + n <= Bytes.length b then b else grow out pos n

(* [" <coeff>*<var>"] from [pos]. *)
let write_term out pos coeff var =
  let b = room out pos max_term in
  Bytes.unsafe_set b pos ' ';
  let pos = write_int b (pos + 1) coeff in
  Bytes.unsafe_set b pos '*';
  write_int b (pos + 1) var

(* [" <rel> <coeff>*<var>... <const>"] from [pos], where the caller
   reserved [max_line] bytes for the line. *)
let write_constr out pos c =
  let b = !out in
  Bytes.unsafe_set b pos ' ';
  let rel = Smt.Constr.rel_to_string c.Smt.Constr.rel in
  Bytes.unsafe_set b (pos + 1) rel.[0];
  if String.length rel = 2 then Bytes.unsafe_set b (pos + 2) rel.[1];
  let exp = c.Smt.Constr.exp in
  let pos = Smt.Linexp.fold_terms (write_term out) exp (pos + 1 + String.length rel) in
  let b = !out in
  Bytes.unsafe_set b pos ' ';
  write_int b (pos + 1) (Smt.Linexp.constant exp)

(* One forward pass, one line per event: the branch id, then for a kept
   constraint its relation, terms and constant, then a newline. Every
   write lands in room reserved just before it: [max_line] per line and
   [max_term] per term, each covering the line's tail. *)
let render t =
  let out = Domain.DLS.get out in
  let pos = ref 0 and next = ref 0 in
  for i = 0 to t.nevents - 1 do
    let word = t.events.(i) in
    let p = write_int (room out !pos max_line) !pos (word lsr 1) in
    let p =
      if word land 1 = 0 then p
      else begin
        let c = snd t.kept.(!next) in
        incr next;
        write_constr out p c
      end
    in
    Bytes.unsafe_set !out p '\n';
    pos := p + 1
  done;
  (!out, !pos)

(* [x] is a word of the log xor ['\n'] in every byte, so a newline is a
   zero byte of [x]. Adding 0x7f to a byte's low seven bits carries into
   its top bit exactly when they are not all zero, and or-ing [x] in
   sets it for a byte whose own top bit is set, so after [lnot] the top
   bit is set in the zero bytes alone. No carry crosses a byte, as one
   does in the shortcut [(x - 0x01..) land lnot x], which also flags a
   0x01 byte above a zero byte. Multiplying the flags, shifted down to
   bit 0 of their bytes, by 0x01.. sums them into the top byte. *)
let count_records b len =
  if len < 0 || len > Bytes.length b then invalid_arg "Pathlog.count_records";
  let n = ref 0 and i = ref 0 in
  while !i + 8 <= len do
    let low7 = 0x7f7f7f7f7f7f7f7fL in
    let x = Int64.logxor (Bytes.get_int64_le b !i) 0x0a0a0a0a0a0a0a0aL in
    let zero =
      Int64.lognot (Int64.logor (Int64.logor (Int64.add (Int64.logand x low7) low7) x) low7)
    in
    let flags = Int64.shift_right_logical zero 7 in
    n := !n + Int64.to_int (Int64.shift_right_logical (Int64.mul flags 0x0101010101010101L) 56);
    i := !i + 8
  done;
  while !i < len do
    if Bytes.unsafe_get b !i = '\n' then incr n;
    incr i
  done;
  !n

let serialize t =
  let b, len = render t in
  Bytes.sub_string b 0 len

let parse_count text = count_records (Bytes.unsafe_of_string text) (String.length text)
