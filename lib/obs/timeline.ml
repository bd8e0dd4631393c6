(* Per-domain span buffers for the performance observatory.

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
   epoch set by the main domain before the pool spawns; a drain turns
   undrained entries into {!Event.Span} lines through the global
   {!Sink}, so spans land in the same JSONL stream as everything else
   and the profile fold is just another pure trace consumer. *)

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
      Mutex.lock registry_mu;
      registry := b :: !registry;
      Mutex.unlock registry_mu;
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

let enable () =
  (* restart the clock and discard anything not yet drained; called on
     the main domain before worker domains exist, so no buffer is being
     appended to concurrently *)
  Mutex.lock registry_mu;
  List.iter (fun b -> b.drained <- Atomic.get b.published) !registry;
  Mutex.unlock registry_mu;
  epoch := Unix.gettimeofday ();
  on_flag := true

let disable () = on_flag := false

(* Spans are drained into the sink, so recording them only makes sense
   while one is writing. *)
let claim () =
  let mine = Sink.active () && not !on_flag in
  if mine then enable ();
  mine

(* Entry [j] of a buffer lives in chunk [j / chunk_size] (chunks only
   ever fill forward) at offset [j mod chunk_size]. *)
let drain_buf b =
  let n = Atomic.get b.published in
  if n > b.drained then begin
    let c = ref b.head in
    for _ = 1 to b.drained / chunk_size do
      match !c.next with Some nx -> c := nx | None -> assert false
    done;
    for j = b.drained to n - 1 do
      let off = j mod chunk_size in
      if off = 0 && j > b.drained then
        (match !c.next with Some nx -> c := nx | None -> assert false);
      Sink.emit
        (Event.Span
           { domain = b.dom; kind = !c.kinds.(off); t0 = !c.t0s.(off); t1 = !c.t1s.(off) })
    done;
    b.drained <- n
  end

let drain () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  List.iter drain_buf bufs

let pending () =
  Mutex.lock registry_mu;
  let bufs = !registry in
  Mutex.unlock registry_mu;
  List.fold_left (fun acc b -> acc + (Atomic.get b.published - b.drained)) 0 bufs
