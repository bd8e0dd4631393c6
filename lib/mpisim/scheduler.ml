open Minic

exception Platform_limit of int

let default_max_procs = 512

(* A request suspends its fiber with [Yield]. The request itself waits
   in the scheduler's per-rank slot, so the effect carries nothing. *)
type _ Effect.t += Yield : Mpi_iface.reply Effect.t

(* A rank's fiber: not yet started, suspended in a request, or done. *)
type fiber =
  | Unstarted
  | Paused of (Mpi_iface.reply, fiber) Effect.Deep.continuation
  | Finished of (unit, Fault.t) result

let on_yield : ((Mpi_iface.reply, fiber) Effect.Deep.continuation -> fiber) option =
  Some (fun k -> Paused k)

let fiber_handler =
  {
    Effect.Deep.retc = (fun r -> Finished r);
    exnc =
      (function
      (* a fault injected while the fiber was blocked (deadlock, bad
         request) may escape bodies that do not run under Interp.run *)
      | Fault.Fault f -> Finished (Error f)
      | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield -> (on_yield : ((a, fiber) Effect.Deep.continuation -> fiber) option)
        | _ -> None);
  }

type leaked_message = { leak_comm : int; leak_dest : int; leak_tag : int }

type run_result = {
  outcomes : (unit, Fault.t) result array;
  deadlocked : int list;
  registry : Rankmap.t;
  leaked : leaked_message list;
      (* messages still sitting in mailboxes after every process
         finished: sends that no receive ever consumed — the message-leak
         diagnostic of MPI correctness checkers (UMPIRE/MARMOT family) *)
  choices : Schedule.choice list;
      (* wildcard match decisions taken, in service order; empty unless
         the run executed in schedule mode *)
  events : Obs.Event.t list;
      (* the sink's events of the run, in emission order; empty unless a
         sink was writing at run start *)
}

(* A message sitting in a mailbox. [src_global] is remembered so the
   delivery event can name the sender globally however late the match
   happens. *)
type message = { src_local : int; src_global : int; tag : int; data : Value.t }

(* A receive that could not be matched yet. *)
type pending_recv = {
  recv_rank : int;  (* global *)
  src_filter : int option;
  tag_filter : int option;
}

(* Matching state of one communicator, built from the registry on its
   first request and indexed by local rank. *)
type comm_state = {
  handle : int;
  members : int array;  (* global ranks in local order *)
  local_of : int array;  (* global rank -> local rank, -1 for non-members *)
  mailboxes : message Queue.t array;  (* per destination *)
  pending : pending_recv option array;  (* the blocked Recv of each member *)
  slots : Mpi_iface.request array;
      (* the collective in progress: each member's request, [vacant]
         until it arrives *)
  mutable arrived : int;  (* members in [slots]; 0 when none is open *)
  mutable opened : Mpi_iface.request;  (* the first arrival's request *)
}

let vacant = Mpi_iface.Barrier (-1)

(* An outstanding Irecv, kept in its rank's posted list until a message
   completes it. *)
type posted = { p_handle : int; p_comm : int; p_src : int option; p_tag : int option }

(* Non-blocking request state. Isends complete eagerly (the simulator
   buffers sends), so only receives can be outstanding; a complete
   request holds the reply its Wait returns. *)
type nb_status = Complete of Mpi_iface.reply | Outstanding of posted

let send_done = Complete Mpi_iface.Runit

(* The non-blocking requests of one rank. Handle [h] lives in slot
   [h land (capacity - 1)]; the capacity doubles only when a new handle
   lands on a live one, so it follows the span of the handles still
   unwaited, not the number issued. *)
type nb_table = {
  mutable next_handle : int;  (* from 1 *)
  mutable keys : int array;  (* the handle in each slot, 0 when free *)
  mutable stats : nb_status array;
  mutable posted : posted array;  (* outstanding Irecvs, in post order *)
  mutable n_posted : int;
}

let mpi_fault message = Fault.Fault (Fault.Mpi_error { message; func = "<mpi>" })

(* --- telemetry ---------------------------------------------------- *)

let m_messages = Obs.Metrics.counter "sched.messages"
let m_collectives = Obs.Metrics.counter "sched.collectives"

(* Per-run MPI aggregates for the trace's one [Mpi_summary] event;
   allocated only when a sink is writing at run start. *)
type tally = {
  t_sends : int array;  (* per global rank *)
  t_recvs : int array;
  t_colls : int array;
  t_blocked : int array;
  t_matrix : int array;  (* row-major src x dst *)
  t_coll_sigs : (int * string, int) Hashtbl.t;
}

type sched = {
  nprocs : int;
  registry : Rankmap.t;
  fibers : fiber array;  (* per global rank *)
  mutable finished : int;
  requests : Mpi_iface.request array;  (* per rank: the request it yielded *)
  replies : Mpi_iface.reply array;  (* per rank: what its queued resumption returns *)
  crashes : string option array;  (* per rank: the fault its queued resumption raises *)
  runq : int array;
      (* FIFO ring of ranks to resume; a rank is queued at most once, so
         it holds [nprocs] *)
  mutable runq_head : int;
  mutable runq_len : int;
  mutable comms : comm_state option array;  (* by handle *)
  nb_tables : nb_table array;  (* per global rank *)
  waits : int array;  (* per global rank: the handle it waits on, 0 when none *)
  on_event : Trace.event -> unit;
  observe : bool;
      (* [on_event] is not {!Trace.discard}. Every observable occurrence
         goes to [on_event], built only when [observe] holds; the
         telemetry sink sees only the per-run summary and the deadlock
         and schedule-choice events, all written at the run's end. *)
  tally : tally option;
  mutable events_rev : Obs.Event.t list;
      (* the sink's events so far, newest first; kept only with [tally] *)
  mutable deadlocked : int list;
  mutable msg_count : int;
  mutable coll_count : int;
  lazy_wildcards : bool;
      (* schedule mode: wildcard-source receives never match eagerly;
         they are served one per quiescent round by [serve_choice] *)
  mutable presc : Schedule.prescription;  (* unconsumed prescription tail *)
  mutable choices_rev : Schedule.choice list;
  mutable choice_points : int;
}

(* Keep a telemetry event for the run's end; a no-op when no sink was
   writing at run start. *)
let keep s ev = if s.tally <> None then s.events_rev <- ev :: s.events_rev

(* [count s field i] adds one to cell [i] of a tally array; a no-op,
   allocating nothing, when no sink was writing at run start. *)
let count s field i =
  match s.tally with
  | Some t ->
    let a = field t in
    a.(i) <- a.(i) + 1
  | None -> ()

let sends t = t.t_sends
let recvs t = t.t_recvs
let blocks t = t.t_blocked
let matrix t = t.t_matrix

(* A point-to-point message was delivered: global sender to receiver. *)
let delivered s ~src ~dst ~comm ~tag =
  count s matrix ((src * s.nprocs) + dst);
  if s.observe then s.on_event (Trace.Matched { src; dst; comm; tag })

(* A blocking receive completed on global [rank], fed by [src_local]. *)
let recv_completed s ~rank ~src_local ~src ~comm ~tag =
  count s recvs rank;
  if s.observe then s.on_event (Trace.Recv_matched { rank; src_local; tag; comm });
  delivered s ~src ~dst:rank ~comm ~tag

let blocked s ~rank ~comm ~kind ~peer =
  count s blocks rank;
  if s.observe then s.on_event (Trace.Blocked { rank; comm; kind; peer })

let summary_event s t =
  Obs.Event.Mpi_summary
    {
      nprocs = s.nprocs;
      sends = Array.to_list t.t_sends;
      recvs = Array.to_list t.t_recvs;
      colls = Array.to_list t.t_colls;
      blocked = Array.to_list t.t_blocked;
      matrix = Array.to_list t.t_matrix;
      collectives =
        Hashtbl.fold (fun (comm, signature) n acc -> (comm, signature, n) :: acc)
          t.t_coll_sigs []
        |> List.sort compare;
    }

(* Queue [rank] at the tail of the run queue. *)
let enqueue s rank =
  let cap = Array.length s.runq in
  if s.runq_len = cap then invalid_arg "Scheduler: a rank was queued twice";
  let i = s.runq_head + s.runq_len in
  s.runq.(if i >= cap then i - cap else i) <- rank;
  s.runq_len <- s.runq_len + 1

let resume s rank reply =
  s.replies.(rank) <- reply;
  enqueue s rank

let crash s rank message =
  s.crashes.(rank) <- Some message;
  enqueue s rank

(* The matching state of [comm], built on first use; [None] when the
   registry does not know the handle. *)
let comm_state s comm =
  let known = if comm >= 0 && comm < Array.length s.comms then s.comms.(comm) else None in
  match known with
  | Some _ -> known
  | None -> (
    match Rankmap.members s.registry ~comm with
    | None -> None
    | Some members ->
      let size = Array.length members in
      let local_of = Array.make s.nprocs (-1) in
      Array.iteri (fun local g -> local_of.(g) <- local) members;
      let c =
        Some
          {
            handle = comm;
            members;
            local_of;
            mailboxes = Array.init size (fun _ -> Queue.create ());
            pending = Array.make size None;
            slots = Array.make size vacant;
            arrived = 0;
            opened = vacant;
          }
      in
      if comm >= Array.length s.comms then begin
        let grown = Array.make (max (comm + 1) (2 * Array.length s.comms)) None in
        Array.blit s.comms 0 grown 0 (Array.length s.comms);
        s.comms <- grown
      end;
      s.comms.(comm) <- c;
      c)

let accepts ~src_filter ~tag_filter ~src ~tag =
  (match src_filter with Some f -> f = src | None -> true)
  && match tag_filter with Some f -> f = tag | None -> true

let matches ~src_filter ~tag_filter (m : message) =
  accepts ~src_filter ~tag_filter ~src:m.src_local ~tag:m.tag

(* Pull the first matching message out of a mailbox, preserving order.
   A match at the head pops it; any other match rebuilds the queue. *)
let take_matching q ~src_filter ~tag_filter =
  if Queue.is_empty q then None
  else if matches ~src_filter ~tag_filter (Queue.peek q) then Some (Queue.pop q)
  else
    let rec go acc =
      if Queue.is_empty q then begin
        List.iter (fun m -> Queue.push m q) (List.rev acc);
        None
      end
      else
        let m = Queue.pop q in
        if matches ~src_filter ~tag_filter m then begin
          (* put the skipped prefix back in front *)
          let rest = List.of_seq (Queue.to_seq q) in
          Queue.clear q;
          List.iter (fun x -> Queue.push x q) (List.rev_append acc rest);
          Some m
        end
        else go (m :: acc)
    in
    go []

(* ------------------------------------------------------------------ *)
(* Collective signatures                                               *)
(* ------------------------------------------------------------------ *)

(* Collectives are compatible only if their signature (operation plus
   root/op parameters) agrees across participants. *)
let same_collective (a : Mpi_iface.request) (b : Mpi_iface.request) =
  match (a, b) with
  | Mpi_iface.Barrier _, Mpi_iface.Barrier _
  | Mpi_iface.Split _, Mpi_iface.Split _
  | Mpi_iface.Allgather _, Mpi_iface.Allgather _
  | Mpi_iface.Alltoall _, Mpi_iface.Alltoall _ ->
    true
  | Mpi_iface.Bcast { root = r; _ }, Mpi_iface.Bcast { root = r'; _ }
  | Mpi_iface.Gather { root = r; _ }, Mpi_iface.Gather { root = r'; _ }
  | Mpi_iface.Scatter { root = r; _ }, Mpi_iface.Scatter { root = r'; _ } ->
    r = r'
  | Mpi_iface.Reduce { op; root; _ }, Mpi_iface.Reduce { op = op'; root = root'; _ } ->
    op = op' && root = root'
  | Mpi_iface.Allreduce { op; _ }, Mpi_iface.Allreduce { op = op'; _ } -> op = op'
  | ( ( Mpi_iface.Barrier _ | Mpi_iface.Split _ | Mpi_iface.Bcast _ | Mpi_iface.Reduce _
      | Mpi_iface.Allreduce _ | Mpi_iface.Gather _ | Mpi_iface.Scatter _
      | Mpi_iface.Allgather _ | Mpi_iface.Alltoall _ | Mpi_iface.Rank _ | Mpi_iface.Size _
      | Mpi_iface.Send _ | Mpi_iface.Recv _ | Mpi_iface.Isend _ | Mpi_iface.Irecv _
      | Mpi_iface.Wait _ ),
      _ ) ->
    false

let op_name = function
  | Mpi_iface.Rsum -> "sum"
  | Mpi_iface.Rprod -> "prod"
  | Mpi_iface.Rmax -> "max"
  | Mpi_iface.Rmin -> "min"

(* The signature of a collective request, for reports and messages. *)
let signature (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Barrier _ -> "barrier"
  | Mpi_iface.Split _ -> "split"
  | Mpi_iface.Bcast { root; _ } -> Printf.sprintf "bcast:%d" root
  | Mpi_iface.Reduce { op; root; _ } -> Printf.sprintf "reduce:%s:%d" (op_name op) root
  | Mpi_iface.Allreduce { op; _ } -> Printf.sprintf "allreduce:%s" (op_name op)
  | Mpi_iface.Gather { root; _ } -> Printf.sprintf "gather:%d" root
  | Mpi_iface.Scatter { root; _ } -> Printf.sprintf "scatter:%d" root
  | Mpi_iface.Allgather _ -> "allgather"
  | Mpi_iface.Alltoall _ -> "alltoall"
  | Mpi_iface.Rank _ | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _
  | Mpi_iface.Isend _ | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    invalid_arg "Scheduler.signature: not a collective"

(* ------------------------------------------------------------------ *)
(* Collective completion                                               *)
(* ------------------------------------------------------------------ *)

(* The payload every member supplies to reduce, gather, allgather and
   alltoall. *)
let payload (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Reduce { data; _ }
  | Mpi_iface.Allreduce { data; _ }
  | Mpi_iface.Gather { data; _ }
  | Mpi_iface.Allgather { data; _ }
  | Mpi_iface.Alltoall { data; _ } ->
    data
  | Mpi_iface.Bcast _ | Mpi_iface.Scatter _ | Mpi_iface.Barrier _ | Mpi_iface.Split _
  | Mpi_iface.Rank _ | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _
  | Mpi_iface.Isend _ | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    invalid_arg "Scheduler.payload: no payload"

(* The data a rooted bcast or scatter request supplies, if any. *)
let root_data (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Bcast { data; _ } | Mpi_iface.Scatter { data; _ } -> data
  | Mpi_iface.Reduce _ | Mpi_iface.Allreduce _ | Mpi_iface.Gather _ | Mpi_iface.Allgather _
  | Mpi_iface.Alltoall _ | Mpi_iface.Barrier _ | Mpi_iface.Split _ | Mpi_iface.Rank _
  | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _ | Mpi_iface.Isend _
  | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    None

(* Members are answered, or crashed, in local-rank order. *)
let crash_all s (c : comm_state) message = Array.iter (fun rank -> crash s rank message) c.members

let reply_each s (c : comm_state) reply = Array.iter (fun rank -> resume s rank reply) c.members

(* Each member its own deep copy of an array [v]; a scalar is immutable,
   so every member shares it. *)
let copy_each s (c : comm_state) v =
  match v with
  | Value.Vint _ | Value.Vfloat _ -> reply_each s c (Mpi_iface.Rvalue v)
  | Value.Varr_int _ | Value.Varr_float _ ->
    Array.iter (fun rank -> resume s rank (Mpi_iface.Rvalue (Value.copy v))) c.members

let reply_parts s (c : comm_state) parts =
  Array.iteri (fun l rank -> resume s rank (Mpi_iface.Rvalue parts.(l))) c.members

(* [v] to local [root], nothing to the others. *)
let reply_root s (c : comm_state) root v =
  Array.iteri
    (fun l rank -> resume s rank (if l = root then Mpi_iface.Rvalue v else Mpi_iface.Rnone))
    c.members

let complete_collective s (c : comm_state) =
  s.coll_count <- s.coll_count + 1;
  let comm = c.handle and size = Array.length c.members in
  let req = c.opened and slots = c.slots in
  let in_comm root = root >= 0 && root < size in
  (match s.tally with
  | Some t ->
    Array.iter (fun rank -> t.t_colls.(rank) <- t.t_colls.(rank) + 1) c.members;
    let key = (comm, signature req) in
    Hashtbl.replace t.t_coll_sigs key
      (1 + Option.value (Hashtbl.find_opt t.t_coll_sigs key) ~default:0)
  | None -> ());
  if s.observe then
    s.on_event
      (Trace.Collective { comm; signature = signature req; ranks = Array.to_list c.members });
  (match req with
  | Mpi_iface.Barrier _ -> reply_each s c Mpi_iface.Runit
  | Mpi_iface.Bcast { root; _ } ->
    if not (in_comm root) then crash_all s c "bcast root outside communicator"
    else (
      match root_data slots.(root) with
      | Some v -> copy_each s c v
      | None -> crash_all s c "bcast root supplied no data")
  | Mpi_iface.Reduce { op; root; _ } -> (
    match Collectives.reduce op (Array.map payload slots) with
    | Ok v ->
      if in_comm root then reply_root s c root v
      else crash_all s c "reduce root outside communicator"
    | Error e -> crash_all s c e)
  | Mpi_iface.Allreduce { op; _ } -> (
    match Collectives.reduce op (Array.map payload slots) with
    | Ok v -> copy_each s c v
    | Error e -> crash_all s c e)
  | Mpi_iface.Gather { root; _ } -> (
    match Collectives.gather (Array.map payload slots) with
    | Ok v ->
      if in_comm root then reply_root s c root v
      else crash_all s c "gather root outside communicator"
    | Error e -> crash_all s c e)
  | Mpi_iface.Allgather _ -> (
    match Collectives.gather (Array.map payload slots) with
    | Ok v -> copy_each s c v
    | Error e -> crash_all s c e)
  | Mpi_iface.Scatter { root; _ } ->
    if not (in_comm root) then crash_all s c "scatter root outside communicator"
    else (
      match root_data slots.(root) with
      | None -> crash_all s c "scatter root supplied no data"
      | Some src -> (
        match Collectives.scatter src size with
        | Ok parts -> reply_parts s c parts
        | Error e -> crash_all s c e))
  | Mpi_iface.Alltoall _ -> (
    match Collectives.alltoall (Array.map payload slots) with
    | Ok parts -> reply_parts s c parts
    | Error e -> crash_all s c e)
  | Mpi_iface.Split _ ->
    let decisions =
      List.init size (fun l ->
          match slots.(l) with
          | Mpi_iface.Split { color; key; _ } -> (c.members.(l), color, key)
          | _ -> assert false)
    in
    let handles = Rankmap.split s.registry ~parent:comm decisions in
    Array.iter (fun rank -> resume s rank (Mpi_iface.Rint (List.assoc rank handles))) c.members
  | Mpi_iface.Rank _ | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _
  | Mpi_iface.Isend _ | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    assert false);
  Array.fill slots 0 size vacant;
  c.arrived <- 0

(* ------------------------------------------------------------------ *)
(* Non-blocking request bookkeeping                                    *)
(* ------------------------------------------------------------------ *)

(* Fills the unused cells of a posted list. *)
let no_posted = { p_handle = 0; p_comm = -1; p_src = None; p_tag = None }

let nb_table () =
  {
    next_handle = 1;
    keys = Array.make 8 0;
    stats = Array.make 8 send_done;
    posted = Array.make 4 no_posted;
    n_posted = 0;
  }

(* The slot holding [handle], -1 when it is not a live handle. *)
let slot t handle =
  if handle <= 0 then -1
  else
    let i = handle land (Array.length t.keys - 1) in
    if t.keys.(i) = handle then i else -1

let free t i =
  t.keys.(i) <- 0;
  t.stats.(i) <- send_done

(* Double the capacity and rehash. Handles are issued in order and a
   new handle [h] collides only with a live [h - capacity], so before
   each issue every live handle lies within [capacity] of [h]; one
   doubling then always separates them. *)
let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0 and stats = Array.make cap send_done in
  Array.iteri
    (fun i k ->
      if k > 0 then begin
        keys.(k land (cap - 1)) <- k;
        stats.(k land (cap - 1)) <- t.stats.(i)
      end)
    t.keys;
  t.keys <- keys;
  t.stats <- stats

let fresh_handle t status =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  if t.keys.(h land (Array.length t.keys - 1)) <> 0 then grow t;
  let i = h land (Array.length t.keys - 1) in
  assert (t.keys.(i) = 0);
  t.keys.(i) <- h;
  t.stats.(i) <- status;
  h

let post_recv t ~comm ~src ~tag =
  let p = { p_handle = t.next_handle; p_comm = comm; p_src = src; p_tag = tag } in
  if t.n_posted = Array.length t.posted then begin
    let grown = Array.make (2 * t.n_posted) no_posted in
    Array.blit t.posted 0 grown 0 t.n_posted;
    t.posted <- grown
  end;
  t.posted.(t.n_posted) <- p;
  t.n_posted <- t.n_posted + 1;
  fresh_handle t (Outstanding p)

(* The earliest posted receive of [t] on [comm] that takes a message
   from local [src] with [tag], as an index into [t.posted]; -1 when
   none. *)
let find_posted t ~comm ~src ~tag =
  let rec go i =
    if i = t.n_posted then -1
    else
      let p = t.posted.(i) in
      if p.p_comm = comm && accepts ~src_filter:p.p_src ~tag_filter:p.p_tag ~src ~tag then i
      else go (i + 1)
  in
  go 0

(* Complete posted receive [j] of global [rank] with [data]; wake its
   waiter if any. *)
let complete_posted s ~rank j ~data =
  let t = s.nb_tables.(rank) in
  let handle = t.posted.(j).p_handle in
  Array.blit t.posted (j + 1) t.posted j (t.n_posted - j - 1);
  t.n_posted <- t.n_posted - 1;
  t.posted.(t.n_posted) <- no_posted;
  let i = slot t handle in
  if s.waits.(rank) = handle then begin
    s.waits.(rank) <- 0;
    free t i;
    resume s rank (Mpi_iface.Rvalue data)
  end
  else t.stats.(i) <- Complete (Mpi_iface.Rvalue data)

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let comm_of_request (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Rank comm
  | Mpi_iface.Size comm
  | Mpi_iface.Barrier comm
  | Mpi_iface.Split { comm; _ }
  | Mpi_iface.Send { comm; _ }
  | Mpi_iface.Recv { comm; _ }
  | Mpi_iface.Isend { comm; _ }
  | Mpi_iface.Irecv { comm; _ }
  | Mpi_iface.Bcast { comm; _ }
  | Mpi_iface.Reduce { comm; _ }
  | Mpi_iface.Allreduce { comm; _ }
  | Mpi_iface.Gather { comm; _ }
  | Mpi_iface.Scatter { comm; _ }
  | Mpi_iface.Allgather { comm; _ }
  | Mpi_iface.Alltoall { comm; _ } ->
    comm
  | Mpi_iface.Wait _ -> Mpi_iface.world

let is_wildcard pr = match pr.src_filter with None -> true | Some _ -> false

(* The global rank behind local source [src] of [c], -1 when unknown. *)
let peer_of (c : comm_state) = function
  | Some sl when sl >= 0 && sl < Array.length c.members -> c.members.(sl)
  | Some _ | None -> -1

(* The global rank a posted receive waits on, -1 when unknown. *)
let posted_peer s p =
  match comm_state s p.p_comm with Some c -> peer_of c p.p_src | None -> -1

let send s (c : comm_state) rank my_local ~dest ~tag ~data =
  let comm = c.handle in
  s.msg_count <- s.msg_count + 1;
  count s sends rank;
  if s.observe then s.on_event (Trace.Send { from_rank = rank; to_local = dest; comm; tag });
  (* matching priority: a blocked Recv first, then posted Irecvs in
     post order, then the mailbox. (Strict MPI interleaves blocked
     and posted receives by posting time; a blocked receive and an
     overlapping outstanding Irecv on one process is already
     ambiguous code, so the simpler rule is acceptable here.) *)
  match c.pending.(dest) with
  | Some pr
    when accepts ~src_filter:pr.src_filter ~tag_filter:pr.tag_filter ~src:my_local ~tag
         && not (s.lazy_wildcards && is_wildcard pr) ->
    c.pending.(dest) <- None;
    recv_completed s ~rank:pr.recv_rank ~src_local:my_local ~src:rank ~comm ~tag;
    resume s pr.recv_rank (Mpi_iface.Rvalue data)
  | Some _ | None ->
    let dest_rank = c.members.(dest) in
    let t = s.nb_tables.(dest_rank) in
    let j = if t.n_posted = 0 then -1 else find_posted t ~comm ~src:my_local ~tag in
    if j >= 0 then begin
      delivered s ~src:rank ~dst:dest_rank ~comm ~tag;
      complete_posted s ~rank:dest_rank j ~data
    end
    else Queue.push { src_local = my_local; src_global = rank; tag; data } c.mailboxes.(dest)

let recv s (c : comm_state) rank my_local ~src ~tag =
  let comm = c.handle in
  let eager =
    (* schedule mode defers every wildcard-source match to the
       quiescence server, even when the mailbox could satisfy it now *)
    if s.lazy_wildcards && Option.is_none src then None
    else take_matching c.mailboxes.(my_local) ~src_filter:src ~tag_filter:tag
  in
  match eager with
  | Some m ->
    recv_completed s ~rank ~src_local:m.src_local ~src:m.src_global ~comm ~tag:m.tag;
    resume s rank (Mpi_iface.Rvalue m.data)
  | None -> (
    match c.pending.(my_local) with
    | Some _ -> crash s rank "second simultaneous recv on one process"
    | None ->
      blocked s ~rank ~comm ~kind:"recv" ~peer:(peer_of c src);
      c.pending.(my_local) <- Some { recv_rank = rank; src_filter = src; tag_filter = tag })

let wait s rank handle =
  let t = s.nb_tables.(rank) in
  let i = slot t handle in
  if i < 0 then crash s rank (Printf.sprintf "wait on unknown request %d" handle)
  else
    match t.stats.(i) with
    | Complete reply ->
      free t i;
      resume s rank reply
    | Outstanding p ->
      if s.waits.(rank) <> 0 then crash s rank "second simultaneous wait on one process"
      else begin
        blocked s ~rank ~comm:p.p_comm ~kind:"wait" ~peer:(posted_peer s p);
        s.waits.(rank) <- handle
      end

let arrive s (c : comm_state) rank my_local req =
  if c.arrived > 0 && not (same_collective c.opened req) then
    crash s rank
      (Printf.sprintf "collective mismatch on communicator %d: %s vs %s" c.handle
         (signature c.opened) (signature req))
  else begin
    if c.arrived = 0 then c.opened <- req;
    c.slots.(my_local) <- req;
    c.arrived <- c.arrived + 1;
    if c.arrived = Array.length c.members then complete_collective s c
    else blocked s ~rank ~comm:c.handle ~kind:"collective" ~peer:(-1)
  end

(* A request on [c] from its member [rank], local rank [my_local]. *)
let member_request s (c : comm_state) rank my_local (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Rank _ -> resume s rank (Mpi_iface.Rint my_local)
  | Mpi_iface.Size _ -> resume s rank (Mpi_iface.Rint (Array.length c.members))
  | Mpi_iface.Send { dest; tag; data; _ } | Mpi_iface.Isend { dest; tag; data; _ } -> (
    let size = Array.length c.members in
    if dest < 0 || dest >= size then
      crash s rank (Printf.sprintf "send to invalid rank %d (size %d)" dest size)
    else begin
      send s c rank my_local ~dest ~tag ~data;
      match req with
      | Mpi_iface.Isend _ ->
        resume s rank (Mpi_iface.Rint (fresh_handle s.nb_tables.(rank) send_done))
      | _ -> resume s rank Mpi_iface.Runit
    end)
  | Mpi_iface.Irecv { src; tag; _ } -> (
    let t = s.nb_tables.(rank) in
    match take_matching c.mailboxes.(my_local) ~src_filter:src ~tag_filter:tag with
    | Some m ->
      delivered s ~src:m.src_global ~dst:rank ~comm:c.handle ~tag:m.tag;
      resume s rank
        (Mpi_iface.Rint (fresh_handle t (Complete (Mpi_iface.Rvalue m.data))))
    | None -> resume s rank (Mpi_iface.Rint (post_recv t ~comm:c.handle ~src ~tag)))
  | Mpi_iface.Recv { src = Some sl; _ } when sl < 0 || sl >= Array.length c.members ->
    crash s rank
      (Printf.sprintf "recv from invalid rank %d (size %d)" sl (Array.length c.members))
  | Mpi_iface.Recv { src; tag; _ } -> recv s c rank my_local ~src ~tag
  | Mpi_iface.Barrier _ | Mpi_iface.Split _ | Mpi_iface.Bcast _ | Mpi_iface.Reduce _
  | Mpi_iface.Allreduce _ | Mpi_iface.Gather _ | Mpi_iface.Scatter _
  | Mpi_iface.Allgather _ | Mpi_iface.Alltoall _ ->
    arrive s c rank my_local req
  | Mpi_iface.Wait _ -> assert false

let handle_request s rank =
  match s.requests.(rank) with
  | Mpi_iface.Wait handle -> wait s rank handle
  | req -> (
    let comm = comm_of_request req in
    match comm_state s comm with
    | Some c when c.local_of.(rank) >= 0 -> member_request s c rank c.local_of.(rank) req
    | Some _ | None ->
      crash s rank
        (Printf.sprintf "%s on communicator %d which rank %d does not belong to"
           (Mpi_iface.request_name req) comm rank))

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

(* Resume the ranks of the run queue, in FIFO order, until it is empty.
   Each request a rank yields is handled as soon as it yields. *)
let drain s body =
  while s.runq_len > 0 do
    let rank = s.runq.(s.runq_head) in
    s.runq_head <- (if s.runq_head + 1 = Array.length s.runq then 0 else s.runq_head + 1);
    s.runq_len <- s.runq_len - 1;
    let next =
      match s.fibers.(rank) with
      | Unstarted ->
        let mpi req =
          s.requests.(rank) <- req;
          Effect.perform Yield
        in
        Effect.Deep.match_with (fun () -> body ~rank ~mpi) () fiber_handler
      | Paused k -> (
        match s.crashes.(rank) with
        | None -> Effect.Deep.continue k s.replies.(rank)
        | Some message ->
          s.crashes.(rank) <- None;
          Effect.Deep.discontinue k (mpi_fault message))
      | Finished _ -> invalid_arg "Scheduler: a finished rank was queued"
    in
    s.fibers.(rank) <- next;
    match next with
    | Paused _ -> handle_request s rank
    | Finished r ->
      s.finished <- s.finished + 1;
      if s.observe then s.on_event (Trace.Finished { rank; ok = Result.is_ok r })
    | Unstarted -> assert false
  done

(* Every communicator built so far, in handle order. *)
let iter_comms s f = Array.iter (function Some c -> f c | None -> ()) s.comms

(* Schedule mode: serve one wildcard match decision at quiescence.

   Among all blocked wildcard-source receives whose mailbox holds at
   least one eligible message, the one on the lowest global rank is
   served; the prescription picks the source (falling back to the first
   eligible message in arrival order when exhausted or infeasible), and
   the decision is recorded and emitted. Serving exactly one choice per
   quiescent round gives a canonical service order, so interleavings of
   independent deliveries collapse to a single representative and only
   the per-point source pick forks the schedule space. Returns false
   when no wildcard receive is serviceable — the caller then falls
   through to deadlock detection exactly as in eager mode. *)
let serve_choice s =
  s.lazy_wildcards
  &&
  let best = ref None in
  iter_comms s (fun c ->
      Array.iteri
        (fun local -> function
          | Some pr when is_wildcard pr ->
            let sources =
              Queue.fold
                (fun acc (m : message) ->
                  if
                    matches ~src_filter:None ~tag_filter:pr.tag_filter m
                    && not (List.mem m.src_local acc)
                  then m.src_local :: acc
                  else acc)
                [] c.mailboxes.(local)
            in
            if sources <> [] then (
              match !best with
              | Some (_, _, best_pr, _) when best_pr.recv_rank <= pr.recv_rank -> ()
              | Some _ | None -> best := Some (c, local, pr, List.sort Int.compare sources))
          | Some _ | None -> ())
        c.pending);
  match !best with
  | None -> false
  | Some (c, local, pr, alts) ->
    let rank = pr.recv_rank and comm = c.handle in
    let q = c.mailboxes.(local) in
    let default () =
      let found = ref None in
      Queue.iter
        (fun (m : message) ->
          if !found = None && matches ~src_filter:None ~tag_filter:pr.tag_filter m then
            found := Some m.src_local)
        q;
      Option.get !found
    in
    let chosen =
      match s.presc with
      | [] -> default ()
      | p :: rest ->
        s.presc <- rest;
        if List.mem p alts then p else default ()
    in
    let m =
      Option.get (take_matching q ~src_filter:(Some chosen) ~tag_filter:pr.tag_filter)
    in
    c.pending.(local) <- None;
    let point = s.choice_points in
    s.choice_points <- point + 1;
    s.choices_rev <-
      {
        Schedule.ch_rank = rank;
        ch_comm = comm;
        ch_tag = m.tag;
        ch_chosen = chosen;
        ch_alts = alts;
      }
      :: s.choices_rev;
    if s.observe then
      s.on_event (Trace.Schedule_choice { rank; comm; tag = m.tag; chosen; alts; point });
    keep s (Obs.Event.Schedule_choice { rank; comm; tag = m.tag; chosen; alts; point });
    recv_completed s ~rank ~src_local:m.src_local ~src:m.src_global ~comm ~tag:m.tag;
    resume s rank (Mpi_iface.Rvalue m.data);
    true

(* Terminate every blocked fiber with a deadlock fault and record it,
   first emitting one wait-for witness edge per blocked dependency so
   the trace names the cycle, not just the stuck ranks. Blocked ranks
   are listed and crashed in ascending global rank order. *)
let break_deadlock s =
  let stuck = Array.make s.nprocs false in
  let edges = ref [] in
  let edge ~rank ~comm ~kind ~peer =
    stuck.(rank) <- true;
    edges := (rank, kind, peer, comm) :: !edges
  in
  iter_comms s (fun c ->
      let comm = c.handle in
      Array.iteri
        (fun local -> function
          | Some pr ->
            edge ~rank:pr.recv_rank ~comm ~kind:"recv" ~peer:(peer_of c pr.src_filter);
            c.pending.(local) <- None
          | None -> ())
        c.pending;
      if c.arrived > 0 then begin
        (* each arrived rank waits on every member still missing *)
        let kind = "collective:" ^ signature c.opened in
        Array.iteri
          (fun l rank ->
            if c.slots.(l) != vacant then
              Array.iteri
                (fun l' peer -> if c.slots.(l') == vacant then edge ~rank ~comm ~kind ~peer)
                c.members)
          c.members;
        Array.fill c.slots 0 (Array.length c.slots) vacant;
        c.arrived <- 0
      end);
  Array.iteri
    (fun rank handle ->
      if handle <> 0 then begin
        let t = s.nb_tables.(rank) in
        (* a rank waits only on a posted receive, which clears its
           waiter when it completes *)
        (match t.stats.(slot t handle) with
        | Outstanding p -> edge ~rank ~comm:p.p_comm ~kind:"wait" ~peer:(posted_peer s p)
        | Complete _ -> assert false);
        s.waits.(rank) <- 0
      end)
    s.waits;
  let ranks = List.filter (fun rank -> stuck.(rank)) (List.init s.nprocs Fun.id) in
  if ranks <> [] then begin
    List.iter
      (fun (rank, kind, peer, comm) ->
        if s.observe then s.on_event (Trace.Witness { rank; comm; kind; peer });
        keep s (Obs.Event.Deadlock_witness { rank; comm; kind; peer }))
      (List.sort compare !edges);
    if s.observe then s.on_event (Trace.Deadlock { ranks });
    keep s (Obs.Event.Sched_deadlock { ranks })
  end;
  List.iter
    (fun rank ->
      s.deadlocked <- rank :: s.deadlocked;
      crash s rank "deadlock: all unfinished processes are blocked")
    ranks

let run ?(max_procs = default_max_procs) ?(on_event = Trace.discard) ?schedule ~nprocs body =
  if nprocs < 1 || nprocs > max_procs then raise (Platform_limit nprocs);
  let s =
    {
      on_event;
      observe = on_event != Trace.discard;
      tally =
        (if Obs.Sink.active () then
           Some
             {
               t_sends = Array.make nprocs 0;
               t_recvs = Array.make nprocs 0;
               t_colls = Array.make nprocs 0;
               t_blocked = Array.make nprocs 0;
               t_matrix = Array.make (nprocs * nprocs) 0;
               t_coll_sigs = Hashtbl.create 8;
             }
         else None);
      events_rev = [];
      nprocs;
      registry = Rankmap.create ~nprocs;
      fibers = Array.make nprocs Unstarted;
      finished = 0;
      requests = Array.make nprocs vacant;
      replies = Array.make nprocs Mpi_iface.Runit;
      crashes = Array.make nprocs None;
      runq = Array.init nprocs Fun.id;
      runq_head = 0;
      runq_len = nprocs;
      comms = Array.make 4 None;
      nb_tables = Array.init nprocs (fun _ -> nb_table ());
      waits = Array.make nprocs 0;
      deadlocked = [];
      msg_count = 0;
      coll_count = 0;
      lazy_wildcards = schedule <> None;
      presc = Option.value schedule ~default:[];
      choices_rev = [];
      choice_points = 0;
    }
  in
  let rec settle () =
    drain s body;
    if s.finished < nprocs then
      if serve_choice s then settle ()
      else begin
        break_deadlock s;
        if s.runq_len = 0 then
          (* blocked set was empty yet fibers unfinished: impossible unless
             a fiber was lost; fail loudly rather than spin *)
          invalid_arg "Scheduler.run: stuck with no blocked fibers"
        else settle ()
      end
  in
  Obs.Timeline.span "schedule" settle;
  Obs.Metrics.incr ~by:s.msg_count m_messages;
  Obs.Metrics.incr ~by:s.coll_count m_collectives;
  let events =
    match s.tally with
    | Some t -> List.rev (summary_event s t :: s.events_rev)
    | None -> []
  in
  Obs.Sink.emit_all events;
  let leaked = ref [] in
  iter_comms s (fun c ->
      Array.iteri
        (fun dest q ->
          Queue.iter
            (fun (m : message) ->
              leaked := { leak_comm = c.handle; leak_dest = dest; leak_tag = m.tag } :: !leaked)
            q)
        c.mailboxes);
  {
    outcomes =
      Array.map (function Finished r -> r | Unstarted | Paused _ -> assert false) s.fibers;
    deadlocked = List.sort Int.compare s.deadlocked;
    registry = s.registry;
    leaked = List.rev !leaked;
    choices = List.rev s.choices_rev;
    events;
  }
