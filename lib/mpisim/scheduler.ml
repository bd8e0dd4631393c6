open Minic

exception Platform_limit of int

let default_max_procs = 512

type _ Effect.t += Mpi_call : Mpi_iface.request -> Mpi_iface.reply Effect.t

let mpi_handler : Mpi_iface.handler = fun req -> Effect.perform (Mpi_call req)

type step =
  | Done of (unit, Fault.t) result
  | Paused of Mpi_iface.request * (Mpi_iface.reply, step) Effect.Deep.continuation

let start_fiber body =
  Effect.Deep.match_with body ()
    {
      Effect.Deep.retc = (fun r -> Done r);
      exnc =
        (function
        (* a fault injected while the fiber was blocked (deadlock, bad
           request) may escape bodies that do not run under Interp.run *)
        | Fault.Fault f -> Done (Error f)
        | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Mpi_call req ->
            Some
              (fun (k : (a, step) Effect.Deep.continuation) -> Paused (req, k))
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
}

type continuation = (Mpi_iface.reply, step) Effect.Deep.continuation

(* A message sitting in a mailbox. [src_global] is remembered so the
   delivery event can name the sender globally however late the match
   happens. *)
type message = { src_local : int; src_global : int; tag : int; data : Value.t }

(* A receive that could not be matched yet. *)
type pending_recv = {
  recv_rank : int;  (* global *)
  src_filter : int option;
  tag_filter : int option;
  recv_k : continuation;
}

(* Non-blocking request state, per owning rank. Isends complete eagerly
   (the simulator buffers sends), so only receives can be outstanding. *)
type nb_status =
  | Nb_send_done
  | Nb_recv_posted of { comm : int; local : int; src_filter : int option; tag_filter : int option }
  | Nb_recv_done of Value.t

module Itbl = Hashtbl.Make (Int)

type nb_table = {
  mutable next_handle : int;
  statuses : nb_status Itbl.t;
  mutable posted : int;  (* [Nb_recv_posted] entries in [statuses] *)
}

(* A fiber blocked in MPI_Wait. *)
type pending_wait = { wait_handle : int; wait_k : continuation }

(* One collective in progress on a communicator. *)
type arrival = {
  arr_local : int;
  arr_rank : int;  (* global *)
  arr_req : Mpi_iface.request;
  arr_k : continuation;
}

(* Collectives are compatible only if their signature (operation plus
   root/op parameters) agrees across participants. The key is compared
   structurally; {!signature} renders it for reports and messages. *)
type coll_key =
  | K_barrier
  | K_split
  | K_bcast of int
  | K_reduce of Mpi_iface.reduce_op * int
  | K_allreduce of Mpi_iface.reduce_op
  | K_gather of int
  | K_scatter of int
  | K_allgather
  | K_alltoall

let coll_key (req : Mpi_iface.request) =
  match req with
  | Mpi_iface.Barrier _ -> K_barrier
  | Mpi_iface.Split _ -> K_split
  | Mpi_iface.Bcast { root; _ } -> K_bcast root
  | Mpi_iface.Reduce { op; root; _ } -> K_reduce (op, root)
  | Mpi_iface.Allreduce { op; _ } -> K_allreduce op
  | Mpi_iface.Gather { root; _ } -> K_gather root
  | Mpi_iface.Scatter { root; _ } -> K_scatter root
  | Mpi_iface.Allgather _ -> K_allgather
  | Mpi_iface.Alltoall _ -> K_alltoall
  | Mpi_iface.Rank _ | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _
  | Mpi_iface.Isend _ | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    invalid_arg "Scheduler.coll_key: not a collective"

let same_key a b =
  match (a, b) with
  | K_barrier, K_barrier | K_split, K_split | K_allgather, K_allgather | K_alltoall, K_alltoall ->
    true
  | K_bcast r, K_bcast r' | K_gather r, K_gather r' | K_scatter r, K_scatter r' -> r = r'
  | K_reduce (op, r), K_reduce (op', r') -> op = op' && r = r'
  | K_allreduce op, K_allreduce op' -> op = op'
  | ( ( K_barrier | K_split | K_bcast _ | K_reduce _ | K_allreduce _ | K_gather _ | K_scatter _
      | K_allgather | K_alltoall ),
      _ ) ->
    false

let op_name = function
  | Mpi_iface.Rsum -> "sum"
  | Mpi_iface.Rprod -> "prod"
  | Mpi_iface.Rmax -> "max"
  | Mpi_iface.Rmin -> "min"

let signature = function
  | K_barrier -> "barrier"
  | K_split -> "split"
  | K_bcast root -> Printf.sprintf "bcast:%d" root
  | K_reduce (op, root) -> Printf.sprintf "reduce:%s:%d" (op_name op) root
  | K_allreduce op -> Printf.sprintf "allreduce:%s" (op_name op)
  | K_gather root -> Printf.sprintf "gather:%d" root
  | K_scatter root -> Printf.sprintf "scatter:%d" root
  | K_allgather -> "allgather"
  | K_alltoall -> "alltoall"

type site = { key : coll_key; mutable arrived : int; mutable arrivals : arrival list }

(* Matching state of one communicator, built from the registry on its
   first request and indexed by local rank. *)
type comm_state = {
  handle : int;
  members : int array;  (* global ranks in local order *)
  local_of : int array;  (* global rank -> local rank, -1 for non-members *)
  mailboxes : message Queue.t array;  (* per destination *)
  pending : pending_recv option array;  (* the blocked Recv of each member *)
  mutable site : site option;  (* the collective in progress *)
}

let mpi_fault message = Fault.Fault (Fault.Mpi_error { message; func = "<mpi>" })

(* --- telemetry ---------------------------------------------------- *)

let m_runs = Obs.Metrics.counter "sched.runs"
let m_messages = Obs.Metrics.counter "sched.messages"
let m_collectives = Obs.Metrics.counter "sched.collectives"
let m_deadlocks = Obs.Metrics.counter "sched.deadlocks"
let m_msgs_per_run = Obs.Metrics.histogram "sched.messages_per_run"

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

(* What the run queue resumes next. *)
type task =
  | Start of int
  | Continue of int * continuation * Mpi_iface.reply
  | Crash of int * continuation * string

type sched = {
  nprocs : int;
  registry : Rankmap.t;
  results : (unit, Fault.t) result option array;
  runq : task Queue.t;
  mutable comms : comm_state option array;  (* by handle *)
  nb_tables : nb_table array;  (* per global rank *)
  waits : pending_wait option array;  (* per global rank *)
  on_event : Trace.event -> unit;
  observe : bool;
      (* [on_event] is not {!Trace.discard}. Every observable occurrence
         goes to [on_event], built only when [observe] holds; the
         telemetry sink sees only the per-run summary and the deadlock
         and schedule-choice events, which stay per occurrence. *)
  tally : tally option;
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

let resume s rank k reply = Queue.push (Continue (rank, k, reply)) s.runq
let crash s rank k message = Queue.push (Crash (rank, k, message)) s.runq

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
            site = None;
          }
      in
      if comm >= Array.length s.comms then begin
        let grown = Array.make (max (comm + 1) (2 * Array.length s.comms)) None in
        Array.blit s.comms 0 grown 0 (Array.length s.comms);
        s.comms <- grown
      end;
      s.comms.(comm) <- c;
      c)

let matches ~src_filter ~tag_filter (m : message) =
  (match src_filter with Some src -> src = m.src_local | None -> true)
  && match tag_filter with Some tag -> tag = m.tag | None -> true

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
(* Collective completion                                               *)
(* ------------------------------------------------------------------ *)

let payload_of_arrival (a : arrival) =
  match a.arr_req with
  | Mpi_iface.Reduce { data; _ }
  | Mpi_iface.Allreduce { data; _ }
  | Mpi_iface.Gather { data; _ }
  | Mpi_iface.Allgather { data; _ }
  | Mpi_iface.Alltoall { data; _ } ->
    Some data
  | Mpi_iface.Bcast { data; _ } -> data
  | Mpi_iface.Scatter { data; _ } -> data
  | Mpi_iface.Barrier _ | Mpi_iface.Split _ | Mpi_iface.Rank _ | Mpi_iface.Size _
  | Mpi_iface.Send _ | Mpi_iface.Recv _ | Mpi_iface.Isend _ | Mpi_iface.Irecv _
  | Mpi_iface.Wait _ ->
    None

let crash_all s arrivals message =
  List.iter (fun a -> crash s a.arr_rank a.arr_k message) arrivals

let complete_collective s (c : comm_state) (site : site) =
  s.coll_count <- s.coll_count + 1;
  let comm = c.handle in
  let arrivals = List.sort (fun a b -> Int.compare a.arr_local b.arr_local) site.arrivals in
  (match s.tally with
  | Some t ->
    List.iter (fun a -> t.t_colls.(a.arr_rank) <- t.t_colls.(a.arr_rank) + 1) arrivals;
    let key = (comm, signature site.key) in
    Hashtbl.replace t.t_coll_sigs key
      (1 + Option.value (Hashtbl.find_opt t.t_coll_sigs key) ~default:0)
  | None -> ());
  if s.observe then
    s.on_event
      (Trace.Collective
         {
           comm;
           signature = signature site.key;
           ranks = List.map (fun a -> a.arr_rank) arrivals;
         });
  let payloads () = List.map (fun a -> Option.get (payload_of_arrival a)) arrivals in
  let reply_each f = List.iter (fun a -> resume s a.arr_rank a.arr_k (f a)) arrivals in
  let reply_root root make_root_reply =
    List.iter
      (fun a ->
        if a.arr_local = root then resume s a.arr_rank a.arr_k (make_root_reply ())
        else resume s a.arr_rank a.arr_k Mpi_iface.Rnone)
      arrivals
  in
  let first = List.hd arrivals in
  match first.arr_req with
  | Mpi_iface.Barrier _ -> reply_each (fun _ -> Mpi_iface.Runit)
  | Mpi_iface.Bcast { root; _ } -> (
    match List.find_opt (fun a -> a.arr_local = root) arrivals with
    | None -> crash_all s arrivals "bcast root outside communicator"
    | Some root_a -> (
      match payload_of_arrival root_a with
      | Some v -> reply_each (fun _ -> Mpi_iface.Rvalue (Value.copy v))
      | None -> crash_all s arrivals "bcast root supplied no data"))
  | Mpi_iface.Reduce { op; root; _ } -> (
    match Collectives.reduce op (payloads ()) with
    | Ok v ->
      if List.exists (fun a -> a.arr_local = root) arrivals then
        reply_root root (fun () -> Mpi_iface.Rvalue v)
      else crash_all s arrivals "reduce root outside communicator"
    | Error e -> crash_all s arrivals e)
  | Mpi_iface.Allreduce { op; _ } -> (
    match Collectives.reduce op (payloads ()) with
    | Ok v -> reply_each (fun _ -> Mpi_iface.Rvalue (Value.copy v))
    | Error e -> crash_all s arrivals e)
  | Mpi_iface.Gather { root; _ } -> (
    match Collectives.gather (payloads ()) with
    | Ok v ->
      if List.exists (fun a -> a.arr_local = root) arrivals then
        reply_root root (fun () -> Mpi_iface.Rvalue v)
      else crash_all s arrivals "gather root outside communicator"
    | Error e -> crash_all s arrivals e)
  | Mpi_iface.Allgather _ -> (
    match Collectives.gather (payloads ()) with
    | Ok v -> reply_each (fun _ -> Mpi_iface.Rvalue (Value.copy v))
    | Error e -> crash_all s arrivals e)
  | Mpi_iface.Scatter { root; _ } -> (
    match List.find_opt (fun a -> a.arr_local = root) arrivals with
    | None -> crash_all s arrivals "scatter root outside communicator"
    | Some root_a -> (
      match payload_of_arrival root_a with
      | None -> crash_all s arrivals "scatter root supplied no data"
      | Some src -> (
        match Collectives.scatter src (List.length arrivals) with
        | Ok parts ->
          List.iter2
            (fun a part -> resume s a.arr_rank a.arr_k (Mpi_iface.Rvalue part))
            arrivals parts
        | Error e -> crash_all s arrivals e)))
  | Mpi_iface.Alltoall _ -> (
    match Collectives.alltoall (payloads ()) with
    | Ok parts ->
      List.iter2
        (fun a part -> resume s a.arr_rank a.arr_k (Mpi_iface.Rvalue part))
        arrivals parts
    | Error e -> crash_all s arrivals e)
  | Mpi_iface.Split _ ->
    let decisions =
      List.map
        (fun a ->
          match a.arr_req with
          | Mpi_iface.Split { color; key; _ } -> (a.arr_rank, color, key)
          | _ -> assert false)
        arrivals
    in
    let handles = Rankmap.split s.registry ~parent:comm decisions in
    List.iter
      (fun a ->
        let handle = List.assoc a.arr_rank handles in
        resume s a.arr_rank a.arr_k (Mpi_iface.Rint handle))
      arrivals
  | Mpi_iface.Rank _ | Mpi_iface.Size _ | Mpi_iface.Send _ | Mpi_iface.Recv _
  | Mpi_iface.Isend _ | Mpi_iface.Irecv _ | Mpi_iface.Wait _ ->
    assert false

(* ------------------------------------------------------------------ *)
(* Non-blocking request bookkeeping                                    *)
(* ------------------------------------------------------------------ *)

let fresh_handle table status =
  let h = table.next_handle in
  table.next_handle <- h + 1;
  Itbl.replace table.statuses h status;
  (match status with
  | Nb_recv_posted _ -> table.posted <- table.posted + 1
  | Nb_send_done | Nb_recv_done _ -> ());
  h

(* Complete a posted receive on [rank]; wake its waiter if any. *)
let complete_posted s ~rank ~handle ~data =
  let table = s.nb_tables.(rank) in
  Itbl.replace table.statuses handle (Nb_recv_done data);
  table.posted <- table.posted - 1;
  match s.waits.(rank) with
  | Some w when w.wait_handle = handle ->
    s.waits.(rank) <- None;
    Itbl.remove table.statuses handle;
    resume s rank w.wait_k (Mpi_iface.Rvalue data)
  | Some _ | None -> ()

(* Earliest matching posted receive of the destination, if any. *)
let find_posted s ~dest_rank ~comm ~dest_local (m : message) =
  let best = ref (-1) in
  Itbl.iter
    (fun handle status ->
      match status with
      | Nb_recv_posted p
        when p.comm = comm && p.local = dest_local
             && matches ~src_filter:p.src_filter ~tag_filter:p.tag_filter m ->
        if !best < 0 || handle < !best then best := handle
      | Nb_recv_posted _ | Nb_send_done | Nb_recv_done _ -> ())
    s.nb_tables.(dest_rank).statuses;
  !best

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

let send s (c : comm_state) rank my_local ~dest ~tag ~data =
  let msg = { src_local = my_local; src_global = rank; tag; data } in
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
    when matches ~src_filter:pr.src_filter ~tag_filter:pr.tag_filter msg
         && not (s.lazy_wildcards && is_wildcard pr) ->
    c.pending.(dest) <- None;
    recv_completed s ~rank:pr.recv_rank ~src_local:my_local ~src:rank ~comm ~tag;
    resume s pr.recv_rank pr.recv_k (Mpi_iface.Rvalue data)
  | Some _ | None ->
    let dest_rank = c.members.(dest) in
    let handle =
      if s.nb_tables.(dest_rank).posted = 0 then -1
      else find_posted s ~dest_rank ~comm ~dest_local:dest msg
    in
    if handle >= 0 then begin
      delivered s ~src:rank ~dst:dest_rank ~comm ~tag;
      complete_posted s ~rank:dest_rank ~handle ~data
    end
    else Queue.push msg c.mailboxes.(dest)

let recv s (c : comm_state) rank my_local ~src ~tag k =
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
    resume s rank k (Mpi_iface.Rvalue m.data)
  | None -> (
    match c.pending.(my_local) with
    | Some _ -> crash s rank k "second simultaneous recv on one process"
    | None ->
      blocked s ~rank ~comm ~kind:"recv" ~peer:(peer_of c src);
      c.pending.(my_local) <-
        Some { recv_rank = rank; src_filter = src; tag_filter = tag; recv_k = k })

let wait s rank handle k =
  let table = s.nb_tables.(rank) in
  match Itbl.find_opt table.statuses handle with
  | None -> crash s rank k (Printf.sprintf "wait on unknown request %d" handle)
  | Some Nb_send_done ->
    Itbl.remove table.statuses handle;
    resume s rank k Mpi_iface.Runit
  | Some (Nb_recv_done data) ->
    Itbl.remove table.statuses handle;
    resume s rank k (Mpi_iface.Rvalue data)
  | Some (Nb_recv_posted p) ->
    if Option.is_some s.waits.(rank) then crash s rank k "second simultaneous wait on one process"
    else begin
      let peer =
        match comm_state s p.comm with Some c -> peer_of c p.src_filter | None -> -1
      in
      blocked s ~rank ~comm:p.comm ~kind:"wait" ~peer;
      s.waits.(rank) <- Some { wait_handle = handle; wait_k = k }
    end

let arrive s (c : comm_state) rank my_local req k =
  let key = coll_key req in
  let arrival = { arr_local = my_local; arr_rank = rank; arr_req = req; arr_k = k } in
  let size = Array.length c.members in
  match c.site with
  | Some site when not (same_key site.key key) ->
    crash s rank k
      (Printf.sprintf "collective mismatch on communicator %d: %s vs %s" c.handle
         (signature site.key) (signature key))
  | Some site ->
    site.arrivals <- arrival :: site.arrivals;
    site.arrived <- site.arrived + 1;
    if site.arrived = size then begin
      c.site <- None;
      complete_collective s c site
    end
    else blocked s ~rank ~comm:c.handle ~kind:"collective" ~peer:(-1)
  | None ->
    let site = { key; arrived = 1; arrivals = [ arrival ] } in
    if size = 1 then complete_collective s c site
    else begin
      blocked s ~rank ~comm:c.handle ~kind:"collective" ~peer:(-1);
      c.site <- Some site
    end

(* A request on [c] from its member [rank], local rank [my_local]. *)
let member_request s (c : comm_state) rank my_local req k =
  let comm = c.handle in
  match req with
  | Mpi_iface.Rank _ -> resume s rank k (Mpi_iface.Rint my_local)
  | Mpi_iface.Size _ -> resume s rank k (Mpi_iface.Rint (Array.length c.members))
  | Mpi_iface.Send { dest; tag; data; _ } | Mpi_iface.Isend { dest; tag; data; _ } -> (
    let size = Array.length c.members in
    if dest < 0 || dest >= size then
      crash s rank k (Printf.sprintf "send to invalid rank %d (size %d)" dest size)
    else begin
      send s c rank my_local ~dest ~tag ~data;
      match req with
      | Mpi_iface.Isend _ ->
        resume s rank k (Mpi_iface.Rint (fresh_handle s.nb_tables.(rank) Nb_send_done))
      | _ -> resume s rank k Mpi_iface.Runit
    end)
  | Mpi_iface.Irecv { src; tag; _ } -> (
    let table = s.nb_tables.(rank) in
    match take_matching c.mailboxes.(my_local) ~src_filter:src ~tag_filter:tag with
    | Some m ->
      delivered s ~src:m.src_global ~dst:rank ~comm ~tag:m.tag;
      resume s rank k (Mpi_iface.Rint (fresh_handle table (Nb_recv_done m.data)))
    | None ->
      let handle =
        fresh_handle table
          (Nb_recv_posted { comm; local = my_local; src_filter = src; tag_filter = tag })
      in
      resume s rank k (Mpi_iface.Rint handle))
  | Mpi_iface.Recv { src = Some sl; _ } when sl < 0 || sl >= Array.length c.members ->
    crash s rank k
      (Printf.sprintf "recv from invalid rank %d (size %d)" sl (Array.length c.members))
  | Mpi_iface.Recv { src; tag; _ } -> recv s c rank my_local ~src ~tag k
  | Mpi_iface.Barrier _ | Mpi_iface.Split _ | Mpi_iface.Bcast _ | Mpi_iface.Reduce _
  | Mpi_iface.Allreduce _ | Mpi_iface.Gather _ | Mpi_iface.Scatter _
  | Mpi_iface.Allgather _ | Mpi_iface.Alltoall _ ->
    arrive s c rank my_local req k
  | Mpi_iface.Wait _ -> assert false

let handle_request s rank req k =
  match req with
  | Mpi_iface.Wait handle -> wait s rank handle k
  | _ -> (
    let comm = comm_of_request req in
    match comm_state s comm with
    | Some c when c.local_of.(rank) >= 0 -> member_request s c rank c.local_of.(rank) req k
    | Some _ | None ->
      crash s rank k
        (Printf.sprintf "%s on communicator %d which rank %d does not belong to"
           (Mpi_iface.request_name req) comm rank))

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let advance s rank = function
  | Done r ->
    if s.observe then s.on_event (Trace.Finished { rank; ok = Result.is_ok r });
    s.results.(rank) <- Some r
  | Paused (req, k) -> handle_request s rank req k

let drain s body =
  while not (Queue.is_empty s.runq) do
    match Queue.pop s.runq with
    | Start rank -> advance s rank (start_fiber (fun () -> body ~rank ~mpi:mpi_handler))
    | Continue (rank, k, reply) -> advance s rank (Effect.Deep.continue k reply)
    | Crash (rank, k, message) -> advance s rank (Effect.Deep.discontinue k (mpi_fault message))
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
    if Obs.Sink.active () then
      Obs.Sink.emit (Obs.Event.Schedule_choice { rank; comm; tag = m.tag; chosen; alts; point });
    recv_completed s ~rank ~src_local:m.src_local ~src:m.src_global ~comm ~tag:m.tag;
    resume s rank pr.recv_k (Mpi_iface.Rvalue m.data);
    true

(* Terminate every blocked fiber with a deadlock fault and record it,
   first emitting one wait-for witness edge per blocked dependency so
   the trace names the cycle, not just the stuck ranks. Blocked ranks
   are listed and crashed in ascending global rank order. *)
let break_deadlock s =
  let blocked = ref [] in
  let edges = ref [] in
  let edge ~rank ~comm ~kind ~peer = edges := (rank, kind, peer, comm) :: !edges in
  iter_comms s (fun c ->
      let comm = c.handle in
      Array.iteri
        (fun local -> function
          | Some pr ->
            edge ~rank:pr.recv_rank ~comm ~kind:"recv" ~peer:(peer_of c pr.src_filter);
            blocked := (pr.recv_rank, pr.recv_k) :: !blocked;
            c.pending.(local) <- None
          | None -> ())
        c.pending;
      match c.site with
      | None -> ()
      | Some site ->
        c.site <- None;
        let missing =
          Array.to_list c.members
          |> List.filter (fun r -> not (List.exists (fun a -> a.arr_rank = r) site.arrivals))
        in
        let kind = "collective:" ^ signature site.key in
        List.iter
          (fun a ->
            (* each arrived rank waits on every member still missing *)
            (match missing with
            | [] -> edge ~rank:a.arr_rank ~comm ~kind ~peer:(-1)
            | missing -> List.iter (fun peer -> edge ~rank:a.arr_rank ~comm ~kind ~peer) missing);
            blocked := (a.arr_rank, a.arr_k) :: !blocked)
          site.arrivals);
  Array.iteri
    (fun rank -> function
      | Some w ->
        (match Itbl.find_opt s.nb_tables.(rank).statuses w.wait_handle with
        | Some (Nb_recv_posted p) ->
          let peer =
            match comm_state s p.comm with Some c -> peer_of c p.src_filter | None -> -1
          in
          edge ~rank ~comm:p.comm ~kind:"wait" ~peer
        | Some Nb_send_done | Some (Nb_recv_done _) | None ->
          edge ~rank ~comm:Mpi_iface.world ~kind:"wait" ~peer:(-1));
        blocked := (rank, w.wait_k) :: !blocked;
        s.waits.(rank) <- None
      | None -> ())
    s.waits;
  let blocked = List.sort (fun (a, _) (b, _) -> Int.compare a b) !blocked in
  if blocked <> [] then begin
    Obs.Metrics.incr m_deadlocks;
    let sink = Obs.Sink.active () in
    List.iter
      (fun (rank, kind, peer, comm) ->
        if s.observe then s.on_event (Trace.Witness { rank; comm; kind; peer });
        if sink then Obs.Sink.emit (Obs.Event.Deadlock_witness { rank; comm; kind; peer }))
      (List.sort compare !edges);
    let ranks = List.map fst blocked in
    if s.observe then s.on_event (Trace.Deadlock { ranks });
    if sink then Obs.Sink.emit (Obs.Event.Sched_deadlock { ranks })
  end;
  List.iter
    (fun (rank, k) ->
      s.deadlocked <- rank :: s.deadlocked;
      crash s rank k "deadlock: all unfinished processes are blocked")
    blocked

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
      nprocs;
      registry = Rankmap.create ~nprocs;
      results = Array.make nprocs None;
      runq = Queue.create ();
      comms = Array.make 4 None;
      nb_tables =
        Array.init nprocs (fun _ -> { next_handle = 1; statuses = Itbl.create 8; posted = 0 });
      waits = Array.make nprocs None;
      deadlocked = [];
      msg_count = 0;
      coll_count = 0;
      lazy_wildcards = schedule <> None;
      presc = Option.value schedule ~default:[];
      choices_rev = [];
      choice_points = 0;
    }
  in
  Obs.Metrics.incr m_runs;
  for rank = 0 to nprocs - 1 do
    Queue.push (Start rank) s.runq
  done;
  let rec settle () =
    drain s body;
    if Array.exists Option.is_none s.results then
      if serve_choice s then settle ()
      else begin
        break_deadlock s;
        if Queue.is_empty s.runq then
          (* blocked set was empty yet fibers unfinished: impossible unless
             a fiber was lost; fail loudly rather than spin *)
          invalid_arg "Scheduler.run: stuck with no blocked fibers"
        else settle ()
      end
  in
  Obs.Timeline.span "schedule" settle;
  Obs.Metrics.incr ~by:s.msg_count m_messages;
  Obs.Metrics.incr ~by:s.coll_count m_collectives;
  Obs.Metrics.observe_int m_msgs_per_run s.msg_count;
  Option.iter (fun t -> Obs.Sink.emit (summary_event s t)) s.tally;
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
    outcomes = Array.map Option.get s.results;
    deadlocked = List.sort Int.compare s.deadlocked;
    registry = s.registry;
    leaked = List.rev !leaked;
    choices = List.rev s.choices_rev;
  }
