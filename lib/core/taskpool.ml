(* Fixed pool of worker domains for the parallel campaign engine.

   One pool serves many batches. [stream] publishes an array of thunks;
   every spawned worker claims indices from a shared cursor under the
   pool mutex, runs the thunk outside the lock, and stores the outcome
   at its index. [next] hands results back strictly in submission order
   no matter which worker ran what — the property the campaign's
   deterministic merge builds on — and it hands each result back {e as
   soon as it is ready}: the caller merges item k while the pool is
   still executing items k+1, k+2, … There is no per-batch barrier
   anywhere; the only wait is the in-order consumer blocking on the one
   index it needs next, recorded as a ["queue.wait"] span.

   The caller participates as worker 0, but only from [next] and only
   when the index it needs is still unclaimed — so a caller that merges
   slower than the pool executes never steals work it would then sit
   on, and with [jobs = 1] (no spawned domains) [next] degenerates to
   running each task inline, in order, interleaved with the caller's
   per-item processing.

   [map] is [stream] consumed to exhaustion and survives for callers
   that want the whole batch at once. *)

type outcome = Done of Obj.t | Raised of exn * Printexc.raw_backtrace

type batch = {
  thunks : (unit -> Obj.t) array;
  results : outcome option array;
  mutable cursor : int;  (* next unclaimed index *)
  mutable completed : int;
  mutable consumed : int;  (* next index [next] will hand out *)
  mutable max_inflight : int;  (* peak claimed-but-unconsumed depth *)
}

type t = {
  jobs : int;
  mu : Mutex.t;
  work_cv : Condition.t;  (* workers wait here for a batch or stop *)
  done_cv : Condition.t;  (* the consumer waits here for the next index *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable busy_s : float;  (* pool-lifetime sum of task wall times *)
  mutable domains : unit Domain.t list;
}

type 'a stream = { st_pool : t; st_batch : batch option }

let jobs t = t.jobs

let busy_seconds t =
  Mutex.lock t.mu;
  let s = t.busy_s in
  Mutex.unlock t.mu;
  s

let claim_depth b =
  let d = b.cursor - b.consumed in
  if d > b.max_inflight then b.max_inflight <- d

let run_claimed t b i =
  claim_depth b;
  Mutex.unlock t.mu;
  let t0 = Unix.gettimeofday () in
  let tk0 = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
  let outcome =
    match b.thunks.(i) () with
    | v -> Done v
    | exception e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  if Obs.Timeline.on () then
    Obs.Timeline.record ~kind:"task" ~t0:tk0 ~t1:(Obs.Timeline.tick ());
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.mu;
  t.busy_s <- t.busy_s +. dt;
  b.results.(i) <- Some outcome;
  b.completed <- b.completed + 1;
  (* wake the in-order consumer: it may be parked on exactly this index *)
  Condition.broadcast t.done_cv

let worker_loop t ~worker ~spawned =
  (* spans from this domain carry the pool worker index, not the raw
     (reused) Domain.self id *)
  Obs.Timeline.set_domain worker;
  Mutex.lock t.mu;
  (* the wait from spawn to the first claim opportunity is idle time, so
     every spawned worker shows in the profile even when it comes up
     after the last batch was consumed *)
  if Obs.Timeline.on () then
    Obs.Timeline.record ~kind:"idle" ~t0:spawned ~t1:(Obs.Timeline.tick ());
  let rec loop () =
    if t.stop then Mutex.unlock t.mu
    else
      match t.batch with
      | Some b when b.cursor < Array.length b.thunks ->
        let i = b.cursor in
        b.cursor <- i + 1;
        run_claimed t b i;
        loop ()
      | Some _ | None ->
        let tk0 = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
        Condition.wait t.work_cv t.mu;
        if Obs.Timeline.on () then
          Obs.Timeline.record ~kind:"idle" ~t0:tk0 ~t1:(Obs.Timeline.tick ());
        loop ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      batch = None;
      stop = false;
      busy_s = 0.0;
      domains = [];
    }
  in
  for worker = 1 to jobs - 1 do
    let spawned = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
    t.domains <- Domain.spawn (fun () -> worker_loop t ~worker ~spawned) :: t.domains
  done;
  t

let stream (type a) t (thunks : (unit -> a) list) : a stream =
  match thunks with
  | [] -> { st_pool = t; st_batch = None }
  | _ :: _ ->
    let b =
      {
        thunks = Array.of_list (List.map (fun f () -> Obj.repr (f ())) thunks);
        results = Array.make (List.length thunks) None;
        cursor = 0;
        completed = 0;
        consumed = 0;
        max_inflight = 0;
      }
    in
    Mutex.lock t.mu;
    t.batch <- Some b;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.mu;
    { st_pool = t; st_batch = Some b }

(* Consume index [b.consumed] — run it inline if nobody claimed it yet,
   otherwise wait for the claiming worker. Called with the mutex held;
   returns with it held. *)
let rec await_next t b i =
  match b.results.(i) with
  | Some r -> r
  | None ->
    if b.cursor <= i then begin
      (* the index we need (or an earlier one) is unclaimed: the caller
         runs it itself as worker 0 — this is the whole execution path
         when [jobs = 1] *)
      let j = b.cursor in
      b.cursor <- j + 1;
      run_claimed t b j
    end
    else begin
      (* claimed but still running on a worker: the only wait in the
         pipeline, visible to the profiler as queue.wait *)
      let tk0 = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
      Condition.wait t.done_cv t.mu;
      if Obs.Timeline.on () then
        Obs.Timeline.record ~kind:"queue.wait" ~t0:tk0 ~t1:(Obs.Timeline.tick ())
    end;
    await_next t b i

let next (type a) (st : a stream) : a option =
  match st.st_batch with
  | None -> None
  | Some b ->
    let t = st.st_pool in
    let n = Array.length b.thunks in
    if b.consumed >= n then None
    else begin
      Mutex.lock t.mu;
      let r = await_next t b b.consumed in
      b.consumed <- b.consumed + 1;
      if b.consumed = n then t.batch <- None;
      Mutex.unlock t.mu;
      match r with
      | Done v -> Some (Obj.obj v)
      | Raised (e, bt) ->
        (* drain the rest of the batch so the pool is quiescent and
           reusable, then surface the first (submission-order) failure *)
        Mutex.lock t.mu;
        while b.consumed < n do
          ignore (await_next t b b.consumed);
          b.consumed <- b.consumed + 1
        done;
        t.batch <- None;
        Mutex.unlock t.mu;
        Printexc.raise_with_backtrace e bt
    end

let max_inflight (st : _ stream) =
  match st.st_batch with None -> 0 | Some b -> b.max_inflight

let map t f xs =
  let st = stream t (List.map (fun x () -> f x) xs) in
  let rec go acc =
    match next st with None -> List.rev acc | Some v -> go (v :: acc)
  in
  go []

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  Obs.Timeline.span "join" (fun () -> List.iter Domain.join t.domains);
  t.domains <- []
