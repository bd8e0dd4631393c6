(* Per-domain span buffers: the one timer of the engine.

   A span is (kind, begin tick, end tick) recorded by whichever domain
   ran the work. The hot path takes no lock and — when the timeline is
   off — allocates nothing: [span] is one ref read before tail-calling
   its argument. When on, a record is three array stores into the
   recording domain's own chunk plus one atomic increment; chunks are
   fixed-size and never reallocated, so the draining (main) domain can
   read entries [0, published) of a foreign buffer without racing a
   resize. The atomic publication counter is bumped after the stores,
   which under the OCaml 5 memory model orders them before any reader
   that observes the new count.

   Ticks are integer nanoseconds since [enable]. Workers inherit the
   epoch set by the main domain before the pool spawns. A drain writes
   each buffer's [compact]ed batch through the global {!Sink}, so the
   profile fold is just another pure trace consumer, and keeps the
   per-kind [totals] the [--metrics] phases read. *)

let chunk_size = 1024

type chunk = {
  kinds : string array;
  t0s : int array;
  t1s : int array;
  mutable next : chunk option;
}

let new_chunk () =
  {
    kinds = Array.make chunk_size "";
    t0s = Array.make chunk_size 0;
    t1s = Array.make chunk_size 0;
    next = None;
  }

type buf = {
  mutable dom : int;  (* reporting id: pool worker index, main = 0 *)
  head : chunk;
  mutable tail : chunk;
  mutable tail_used : int;
  published : int Atomic.t;  (* entries safe for a foreign reader *)
  mutable drained : int;  (* entries already emitted; main domain only *)
}

(* Registry of every buffer ever created, so the drainer finds buffers
   of joined domains too. The mutex guards registration only — never
   the recording path. *)
let registry : buf list ref = ref []
let registry_mu = Mutex.create ()
let buffers () = Mutex.protect registry_mu (fun () -> !registry)

let on_flag = ref false
let epoch = ref 0.0

let key =
  Domain.DLS.new_key (fun () ->
      let c = new_chunk () in
      let b =
        {
          dom = (if Domain.is_main_domain () then 0 else (Domain.self () :> int));
          head = c;
          tail = c;
          tail_used = 0;
          published = Atomic.make 0;
          drained = 0;
        }
      in
      Mutex.protect registry_mu (fun () -> registry := b :: !registry);
      b)

let on () = !on_flag

let tick () = int_of_float ((Unix.gettimeofday () -. !epoch) *. 1e9)

let set_domain d = (Domain.DLS.get key).dom <- d

let push kind t0 t1 =
  let b = Domain.DLS.get key in
  if b.tail_used = chunk_size then begin
    let c = new_chunk () in
    b.tail.next <- Some c;
    b.tail <- c;
    b.tail_used <- 0
  end;
  let i = b.tail_used in
  b.tail.kinds.(i) <- kind;
  b.tail.t0s.(i) <- t0;
  b.tail.t1s.(i) <- t1;
  b.tail_used <- i + 1;
  (* publish after the stores: a reader that sees the new count sees
     the entry (Atomic is sequentially consistent) *)
  Atomic.incr b.published

let record ~kind ~t0 ~t1 = if !on_flag then push kind t0 t1

let span kind f =
  if not !on_flag then f ()
  else begin
    let t0 = tick () in
    match f () with
    | v ->
      push kind t0 (tick ());
      v
    | exception e ->
      push kind t0 (tick ());
      raise e
  end

(* kind -> (count, ns) of everything drained since [enable] *)
let totals_tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16

let bump tbl key c ns =
  let c0, ns0 = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
  Hashtbl.replace tbl key (c0 + c, ns0 + ns)

let rows_of tbl = Hashtbl.fold (fun k (c, ns) acc -> (k, c, ns) :: acc) tbl [] |> List.sort compare

let enable () =
  (* restart the clock and discard anything not yet drained; called on
     the main domain before worker domains exist, so no buffer is being
     appended to concurrently *)
  List.iter (fun b -> b.drained <- Atomic.get b.published) (buffers ());
  Hashtbl.reset totals_tbl;
  epoch := Unix.gettimeofday ();
  on_flag := true

let disable () = on_flag := false

(* Spans are drained into the sink, so recording them only makes sense
   while one is writing. *)
let claim () =
  let mine = Sink.active () && not !on_flag in
  if mine then enable ();
  mine

type span = { kind : string; t0 : int; t1 : int }

(* Dropping a busy, non-structural span that lies inside another such
   span changes no union the profile computes (waits and umbrellas are
   unions of their own). Sorted by (t0 up, t1 down, recorded last
   first), a candidate is enclosed iff an earlier one ends no sooner;
   each folded span lies inside a kept one, transitively. Of equal
   intervals the outer span, recorded last, stays. *)
let compact batch =
  let spans = Array.of_list batch in
  let n = Array.length spans in
  let foldable i =
    let s = spans.(i) in
    s.t0 <= s.t1 && Fold.span_busy_kind s.kind && not (Fold.span_struct_kind s.kind)
  in
  let by_extent i j =
    let si = spans.(i) and sj = spans.(j) in
    if si.t0 <> sj.t0 then Int.compare si.t0 sj.t0
    else if si.t1 <> sj.t1 then Int.compare sj.t1 si.t1
    else Int.compare j i
  in
  let order = Array.of_seq (Seq.filter foldable (Seq.init n Fun.id)) in
  Array.stable_sort by_extent order;
  let enclosed = Array.make n false and max_end = ref min_int in
  Array.iter
    (fun i -> if spans.(i).t1 <= !max_end then enclosed.(i) <- true else max_end := spans.(i).t1)
    order;
  let rows = Hashtbl.create 8 in
  let kept =
    List.filteri
      (fun i s ->
        if enclosed.(i) then bump rows s.kind 1 (s.t1 - s.t0);
        not enclosed.(i))
      batch
  in
  (kept, rows_of rows)

(* Entry [j] of a buffer lives in chunk [j / chunk_size] (chunks only
   ever fill forward) at offset [j mod chunk_size]. *)
let drain_buf b =
  let n = Atomic.get b.published in
  let batch = ref [] in
  if n > b.drained then begin
    let c = ref b.head in
    for _ = 1 to b.drained / chunk_size do
      match !c.next with Some nx -> c := nx | None -> assert false
    done;
    for j = b.drained to n - 1 do
      let off = j mod chunk_size in
      if off = 0 && j > b.drained then
        (match !c.next with Some nx -> c := nx | None -> assert false);
      batch := { kind = !c.kinds.(off); t0 = !c.t0s.(off); t1 = !c.t1s.(off) } :: !batch
    done;
    b.drained <- n
  end;
  let kept, rows = compact (List.rev !batch) in
  let spans =
    List.map
      (fun s ->
        bump totals_tbl s.kind 1 (max 0 (s.t1 - s.t0));
        Event.Span { domain = b.dom; kind = s.kind; t0 = s.t0; t1 = s.t1 })
      kept
  in
  (spans, List.map (fun (k, c, ns) -> (b.dom, k, c, ns)) rows)

(* The whole drain is one batch for the sink: every buffer's kept spans,
   then the summary. *)
let drain () =
  let spans, rows = List.split (List.map drain_buf (buffers ())) in
  let rows = List.sort compare (List.concat rows) in
  List.iter (fun (_, k, c, ns) -> bump totals_tbl k c ns) rows;
  let summary = if rows = [] then [] else [ Event.Span_summary { rows } ] in
  Sink.emit_all (List.concat spans @ summary)

let totals () = rows_of totals_tbl

let pending () =
  List.fold_left (fun acc b -> acc + (Atomic.get b.published - b.drained)) 0 (buffers ())
