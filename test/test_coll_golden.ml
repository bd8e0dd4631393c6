(* Golden collectives and request-table test for the MPI scheduler.

   A second fixed-seed generator, beside the one in [Test_matching],
   aimed at what that one does not reach: every collective kind (roots
   other than 0, scalar and array payloads, payload and signature
   mismatches, a member that never arrives) and bursts of 40 or more
   outstanding [Isend]/[Irecv] requests per rank, waited in shuffled
   order. Each script runs through [Scheduler.run] in eager mode and in
   schedule mode under a random prescription. The rendered text holds
   every rank's outcome and replies, the deadlocked ranks, the leaked
   messages, the schedule choices and every trace event in emission
   order (a collective names its participants in order), and is
   compared with [golden/mpisim_collectives.txt].

   On a mismatch the test writes the text it produced to
   [mpisim_collectives.actual] in its working directory
   ([_build/default/test]) and names the first differing line. *)

open Minic
open Mpisim

type comm_sel = Test_matching.comm_sel = World | Sub

(* A payload shape; the values are made from the rank and a per-rank
   serial when the script runs, so a reply names who supplied it. *)
type payload = Pint | Pfloat | Aint of int | Afloat of int

type coll =
  | Barrier
  | Split of { color : int; key : int }
  | Bcast of { root : int; data : payload option }
  | Reduce of { op : Mpi_iface.reduce_op; root : int; data : payload }
  | Allreduce of { op : Mpi_iface.reduce_op; data : payload }
  | Gather of { root : int; data : payload }
  | Scatter of { root : int; data : payload option }
  | Allgather of payload
  | Alltoall of payload

type op =
  | Send of { comm : comm_sel; dest : int; tag : int; nb : bool }
  | Recv of { comm : comm_sel; src : int option; tag : int option; nb : bool }
  | Wait of int  (** index among the rank's non-blocking requests *)
  | Wait_raw of int  (** a handle the program never got *)
  | Coll of comm_sel * coll

type script = {
  np : int;
  split : (int * int) array option;  (** per world rank: colour, key *)
  ops : op list array;  (** per world rank, in program order *)
  presc : Schedule.prescription;
}

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let ops_list = [| Mpi_iface.Rsum; Mpi_iface.Rprod; Mpi_iface.Rmax; Mpi_iface.Rmin |]

let gen_script rng turn =
  let int n = Random.State.int rng n in
  let np = 2 + int 4 in
  let split = if int 3 = 0 then None else Some (Array.init np (fun _ -> (int 2, int 3))) in
  let ops = Array.make np [] in
  let nreq = Array.make np 0 in
  let unwaited = Array.make np [] in
  let add r op = ops.(r) <- op :: ops.(r) in
  let add_nb r op =
    unwaited.(r) <- nreq.(r) :: unwaited.(r);
    nreq.(r) <- nreq.(r) + 1;
    add r op
  in
  let group comm g =
    match (comm, split) with
    | Sub, Some split -> Test_matching.group_of split g
    | (Sub | World), _ -> List.init np Fun.id
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = int (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  (* one script in two goes wrong once: a rank supplies a payload of
     the wrong shape, calls a different collective, never arrives, names
     a root outside the communicator or waits on a handle it never got.
     [turn] walks the faulty collectives through every kind and fault. *)
  let faults = ref (int 2) in
  let faulty () =
    let f = !faults > 0 && int 3 = 0 in
    if f then faults := 0;
    f
  in
  let collective () =
    let comm = if split <> None && int 2 = 0 then Sub else World in
    let sizes = List.init np (fun g -> List.length (group comm g)) in
    let min_size = List.fold_left min np sizes and max_size = List.fold_left max 1 sizes in
    let kind, fault =
      if faulty () then begin
        let t = !turn in
        incr turn;
        (t mod 9, 1 + (t / 9 mod 4))
      end
      else (int 9, 0)
    in
    let root = if fault = 4 then min_size else int min_size in
    let op = ops_list.(int 4) in
    let len = 1 + int 3 in
    let any = match int 4 with 0 -> Pint | 1 -> Pfloat | 2 -> Aint len | _ -> Afloat len in
    let scalar = if int 2 = 0 then Pint else Pfloat in
    let wide = if int 2 = 0 then Aint (max_size + int 2) else Afloat (max_size + int 2) in
    let pick n = if n then int np else -1 in
    let odd = pick (fault = 1) and stray = pick (fault = 2) and skip = pick (fault = 3) in
    (* in bcast and scatter the roots are the odd ranks: they supply no
       data, or a scatter source too short for the group *)
    let root_fault = fault = 1 && (kind = 2 || kind = 6) in
    let no_data = int 2 = 0 in
    let bad = function
      | Pint -> Pfloat
      | Pfloat -> Aint 2
      | Aint n -> Aint (n + 1)
      | Afloat n -> if n > 1 then Afloat (n - 1) else Pint
    in
    for g = 0 to np - 1 do
      let local = Test_matching.index_of g (group comm g) in
      let shape p = if g = odd then bad p else p in
      (* an array too short for the group when [g] is odd *)
      let short p =
        if g <> odd then p
        else
          let size = List.length (group comm g) in
          match p with Aint _ -> Aint (size - 1) | Afloat _ -> Afloat (size - 1) | p -> p
      in
      let coll =
        match kind with
        | 0 -> Barrier
        | 1 -> Split { color = int 3 - (if int 6 = 0 then 1 else 0); key = int 3 }
        | 2 -> Bcast { root; data = (if local = root && not root_fault then Some any else None) }
        | 3 -> Reduce { op; root; data = shape any }
        | 4 -> Allreduce { op; data = shape any }
        | 5 -> Gather { root; data = shape scalar }
        | 6 ->
          let data =
            if local <> root || (root_fault && no_data) then None
            else if root_fault then
              let size = List.length (group comm g) in
              Some (match wide with Aint _ -> Aint (size - 1) | _ -> Afloat (size - 1))
            else Some wide
          in
          Scatter { root; data }
        | 7 -> Allgather (shape scalar)
        | _ -> Alltoall (short wide)
      in
      if g = skip then ()
      else if g = stray then
        add g (Coll (comm, match coll with Barrier -> Allgather Pint | _ -> Barrier))
      else add g (Coll (comm, coll))
    done;
    (* a member that never arrives blocks the others for good; it waits
       on a message nobody sends *)
    if skip >= 0 then
      add skip (Recv { comm = World; src = Some ((skip + 1) mod np); tag = Some 9; nb = false })
  in
  let point_to_point () =
    let comm = if split <> None && int 2 = 0 then Sub else World in
    let a = int np in
    let group = group comm a in
    let len = List.length group in
    if len >= 2 then begin
      let b = List.nth group ((Test_matching.index_of a group + 1 + int (len - 1)) mod len) in
      let tag = int 3 in
      let snb = int 3 = 0 and rnb = int 3 = 0 in
      let send = Send { comm; dest = Test_matching.index_of b group; tag; nb = snb } in
      let recv =
        Recv
          {
            comm;
            src = (if int 3 = 0 then None else Some (Test_matching.index_of a group));
            tag = (if int 3 = 0 then None else Some tag);
            nb = rnb;
          }
      in
      if snb then add_nb a send else add a send;
      (* now and then nobody receives: the message leaks *)
      if int 8 <> 0 then if rnb then add_nb b recv else add b recv
    end
  in
  (* every rank posts an Isend and an Irecv per round, each to and from
     ranks [d] away, and waits for none of them yet *)
  let burst () =
    for _ = 1 to 20 + int 6 do
      let d = 1 + int (np - 1) and tag = int 3 in
      let wild_src = int 4 = 0 and wild_tag = int 5 = 0 and recv_first = int 2 = 0 in
      for g = 0 to np - 1 do
        let send = Send { comm = World; dest = (g + d) mod np; tag; nb = true } in
        let recv =
          Recv
            {
              comm = World;
              src = (if wild_src then None else Some ((g - d + np) mod np));
              tag = (if wild_tag then None else Some tag);
              nb = true;
            }
        in
        if recv_first then (add_nb g recv; add_nb g send) else (add_nb g send; add_nb g recv)
      done
    done
  in
  let wait_some () =
    let r = int np in
    match unwaited.(r) with
    | [] -> ()
    | reqs ->
      let i = List.nth reqs (int (List.length reqs)) in
      unwaited.(r) <- List.filter (( <> ) i) reqs;
      add r (Wait i)
  in
  if int 4 = 0 then begin
    burst ();
    if int 2 = 0 then collective ()
  end;
  for _ = 1 to 3 + int 8 do
    match int 12 with
    | n when n < 6 -> collective ()
    | n when n < 9 -> point_to_point ()
    | n when n < 11 -> wait_some ()
    | _ ->
      if faulty () then
        add (int np) (Wait_raw (match int 3 with 0 -> 0 | 1 -> -1 - int 3 | _ -> 1000))
  done;
  Array.iteri
    (fun r reqs -> List.iter (fun i -> if int 6 <> 0 then add r (Wait i)) (shuffle reqs))
    unwaited;
  let presc = List.init (int 5) (fun _ -> int np) in
  { np; split; ops = Array.map List.rev ops; presc }

(* ------------------------------------------------------------------ *)
(* Execution and rendering                                             *)
(* ------------------------------------------------------------------ *)

let comm_name = Test_matching.comm_name
let opt = Test_matching.opt

let payload_to_string = function
  | Pint -> "i"
  | Pfloat -> "f"
  | Aint n -> Printf.sprintf "i%d" n
  | Afloat n -> Printf.sprintf "f%d" n

let op_name = function
  | Mpi_iface.Rsum -> "sum"
  | Mpi_iface.Rprod -> "prod"
  | Mpi_iface.Rmax -> "max"
  | Mpi_iface.Rmin -> "min"

let coll_to_string = function
  | Barrier -> "barrier"
  | Split { color; key } -> Printf.sprintf "split(%d,%d)" color key
  | Bcast { root; data } ->
    Printf.sprintf "bcast@%d(%s)" root (Option.fold ~none:"-" ~some:payload_to_string data)
  | Reduce { op; root; data } ->
    Printf.sprintf "reduce:%s@%d(%s)" (op_name op) root (payload_to_string data)
  | Allreduce { op; data } ->
    Printf.sprintf "allreduce:%s(%s)" (op_name op) (payload_to_string data)
  | Gather { root; data } -> Printf.sprintf "gather@%d(%s)" root (payload_to_string data)
  | Scatter { root; data } ->
    Printf.sprintf "scatter@%d(%s)" root (Option.fold ~none:"-" ~some:payload_to_string data)
  | Allgather data -> Printf.sprintf "allgather(%s)" (payload_to_string data)
  | Alltoall data -> Printf.sprintf "alltoall(%s)" (payload_to_string data)

let op_to_string = function
  | Send { comm; dest; tag; nb } ->
    Printf.sprintf "%s%s>%d:%d" (if nb then "isend" else "send") (comm_name comm) dest tag
  | Recv { comm; src; tag; nb } ->
    Printf.sprintf "%s%s<%s:%s" (if nb then "irecv" else "recv") (comm_name comm) (opt src)
      (opt tag)
  | Wait i -> Printf.sprintf "wait%d" i
  | Wait_raw h -> Printf.sprintf "waitraw%d" h
  | Coll (c, coll) -> coll_to_string coll ^ comm_name c

let ints l = String.concat "," (List.map string_of_int l)

let event_to_string = function
  | Trace.Send { from_rank; to_local; comm; tag } ->
    Printf.sprintf "send %d>%d c%d t%d" from_rank to_local comm tag
  | Trace.Recv_matched { rank; src_local; tag; comm } ->
    Printf.sprintf "recv %d<%d c%d t%d" rank src_local comm tag
  | Trace.Matched { src; dst; comm; tag } -> Printf.sprintf "match %d=>%d c%d t%d" src dst comm tag
  | Trace.Collective { comm; signature; ranks } ->
    Printf.sprintf "coll %s c%d [%s]" signature comm (ints ranks)
  | Trace.Blocked { rank; comm; kind; peer } ->
    Printf.sprintf "block %d %s c%d p%d" rank kind comm peer
  | Trace.Finished { rank; ok } -> Printf.sprintf "done %d %b" rank ok
  | Trace.Deadlock { ranks } -> Printf.sprintf "deadlock [%s]" (ints ranks)
  | Trace.Witness { rank; comm; kind; peer } ->
    Printf.sprintf "witness %d %s c%d p%d" rank kind comm peer
  | Trace.Schedule_choice { rank; comm; tag; chosen; alts; point } ->
    Printf.sprintf "choice %d c%d t%d %d of [%s] #%d" rank comm tag chosen (ints alts) point

let run_script ?schedule sc =
  let log = Array.make sc.np [] in
  let trace = Trace.create () in
  let body ~rank ~mpi =
    let record what reply =
      log.(rank) <- (what ^ "=" ^ Test_matching.reply_to_string reply) :: log.(rank)
    in
    let sub =
      match sc.split with
      | None -> -1
      | Some split -> (
        let color, key = split.(rank) in
        match mpi (Mpi_iface.Split { comm = Mpi_iface.world; color; key }) with
        | Mpi_iface.Rint h -> h
        | reply ->
          record "split" reply;
          -1)
    in
    let comm = function World -> Mpi_iface.world | Sub -> sub in
    let handles = ref [||] in
    let serial = ref 0 in
    let value = function
      | Pint -> Value.Vint ((100 * rank) + !serial)
      | Pfloat -> Value.Vfloat (float_of_int ((100 * rank) + !serial) +. 0.5)
      | Aint n -> Value.Varr_int (Array.init n (fun i -> (100 * rank) + (10 * i) + !serial))
      | Afloat n ->
        Value.Varr_float (Array.init n (fun i -> float_of_int ((100 * rank) + (10 * i) + !serial)))
    in
    let post req =
      let h = match mpi req with Mpi_iface.Rint h -> h | reply -> (record "post" reply; -1) in
      handles := Array.append !handles [| h |]
    in
    List.iter
      (fun op ->
        incr serial;
        match op with
        | Send { comm = c; dest; tag; nb } ->
          let data = Value.Varr_int [| rank; tag; !serial |] in
          if nb then post (Mpi_iface.Isend { comm = comm c; dest; tag; data })
          else ignore (mpi (Mpi_iface.Send { comm = comm c; dest; tag; data }))
        | Recv { comm = c; src; tag; nb } ->
          if nb then post (Mpi_iface.Irecv { comm = comm c; src; tag })
          else record "recv" (mpi (Mpi_iface.Recv { comm = comm c; src; tag }))
        | Wait i -> record "wait" (mpi (Mpi_iface.Wait !handles.(i)))
        | Wait_raw h -> record "waitraw" (mpi (Mpi_iface.Wait h))
        | Coll (c, coll) ->
          let comm = comm c in
          let req, name =
            match coll with
            | Barrier -> (Mpi_iface.Barrier comm, "barrier")
            | Split { color; key } -> (Mpi_iface.Split { comm; color; key }, "split")
            | Bcast { root; data } ->
              (Mpi_iface.Bcast { comm; root; data = Option.map value data }, "bcast")
            | Reduce { op; root; data } ->
              (Mpi_iface.Reduce { comm; op; root; data = value data }, "reduce")
            | Allreduce { op; data } ->
              (Mpi_iface.Allreduce { comm; op; data = value data }, "allreduce")
            | Gather { root; data } ->
              (Mpi_iface.Gather { comm; root; data = value data }, "gather")
            | Scatter { root; data } ->
              (Mpi_iface.Scatter { comm; root; data = Option.map value data }, "scatter")
            | Allgather data -> (Mpi_iface.Allgather { comm; data = value data }, "allgather")
            | Alltoall data -> (Mpi_iface.Alltoall { comm; data = value data }, "alltoall")
          in
          record name (mpi req))
      sc.ops.(rank);
    Ok ()
  in
  let r = Scheduler.run ?schedule ~on_event:(Trace.collector trace) ~nprocs:sc.np body in
  (r, log, trace)

let render_run buf label (r : Scheduler.run_result) log trace =
  Test_matching.render_run buf label r log;
  List.iter
    (fun (l : Scheduler.leaked_message) ->
      Printf.bprintf buf "    leak c%d d%d t%d\n" l.leak_comm l.leak_dest l.leak_tag)
    r.Scheduler.leaked;
  List.iter (fun ev -> Printf.bprintf buf "    | %s\n" (event_to_string ev)) (Trace.events trace)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every collective and request fault the scheduler reports. *)
let fault_messages =
  [
    "alltoall expects";
    "bcast root outside";
    "bcast root supplied no data";
    "collective mismatch";
    "gather expects";
    "gather root outside";
    "reduce over mismatched";
    "reduce root outside";
    "scatter root outside";
    "scatter root supplied no data";
    "scatter source has";
    "wait on unknown request";
  ]

let scripts = 160

let golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden/mpisim_collectives.txt"

(* The rendered golden text, plus counts showing the generator reached
   every collective signature, every collective fault, partial-arrival
   deadlocks and bursts of at least 40 outstanding requests. *)
let generate () =
  let rng = Random.State.make [| 33 |] in
  let buf = Buffer.create (1 lsl 20) in
  let signatures = Hashtbl.create 16 in
  let faults = Hashtbl.create 16 in
  let partial = ref 0 and bursts = ref 0 in
  let turn = ref 0 in
  for id = 1 to scripts do
    let sc = gen_script rng turn in
    Printf.bprintf buf "script %d np %d split [%s] schedule %s\n" id sc.np
      (match sc.split with
      | None -> "-"
      | Some split ->
        String.concat " " (Array.to_list (Array.map (fun (c, k) -> Printf.sprintf "%d:%d" c k) split)))
      (Schedule.to_string sc.presc);
    Array.iteri
      (fun rank ops ->
        Printf.bprintf buf "  r%d: %s\n" rank
          (match ops with [] -> "-" | ops -> String.concat " " (List.map op_to_string ops));
        let nb = function Send { nb; _ } | Recv { nb; _ } -> nb | Wait _ | Wait_raw _ | Coll _ -> false in
        if rank = 0 && List.length (List.filter nb ops) >= 40 then incr bursts)
      sc.ops;
    List.iter
      (fun (label, schedule) ->
        let r, log, trace = run_script ?schedule sc in
        render_run buf label r log trace;
        List.iter
          (function
            | Trace.Collective { signature; _ } ->
              Hashtbl.replace signatures (List.hd (String.split_on_char ':' signature)) ()
            | Trace.Witness { kind; _ } when String.starts_with ~prefix:"collective" kind ->
              incr partial
            | _ -> ())
          (Trace.events trace);
        Array.iter
          (function
            | Error f ->
              List.iter
                (fun m -> if contains (Fault.to_string f) m then Hashtbl.replace faults m ())
                fault_messages
            | Ok () -> ())
          r.Scheduler.outcomes)
      [ ("eager", None); ("schedule", Some sc.presc) ]
  done;
  (Buffer.contents buf, Hashtbl.length signatures, Hashtbl.length faults, !partial, !bursts)

let test_golden () =
  let actual, signatures, faults, partial, bursts = generate () in
  Alcotest.(check int) "generator completes every collective kind" 9 signatures;
  Alcotest.(check int) "generator reaches every collective fault" (List.length fault_messages)
    faults;
  Alcotest.(check bool) "generator reaches a partial-arrival deadlock" true (partial > 0);
  Alcotest.(check bool) "generator reaches 40 outstanding requests" true (bursts > 0);
  let expected = Test_matching.read_file golden_file in
  if actual <> expected then begin
    Out_channel.with_open_bin "mpisim_collectives.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "collectives differ from %s (%s); see mpisim_collectives.actual" golden_file
      (Test_matching.first_difference expected actual)
  end

let suite = [ ("mpisim:collective", [ ("collectives golden", `Quick, test_golden) ]) ]
