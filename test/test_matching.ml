(* Golden matching test for the MPI scheduler.

   A fixed-seed generator writes small rank scripts (np 2-4) of sends,
   receives, non-blocking requests, waits and collectives on the world
   or a split communicator, and runs each one through [Scheduler.run]
   in eager mode and in schedule mode under a random prescription. What
   the scheduler decided is rendered as text and compared with
   [golden/mpisim_matching.txt]:

   - each rank's outcome;
   - every reply a rank received, in order; sends carry
     [source; tag; serial] as their payload, so a delivery names its
     source and tag;
   - the deadlocked ranks and the number of leaked messages;
   - the schedule choices.

   Every rank stops at its first fault, so the text does not depend on
   the order in which deadlocked ranks are crashed.

   On a mismatch the test writes the text it produced to
   [mpisim_matching.actual] in its working directory
   ([_build/default/test]) and names the first differing line. *)

open Minic
open Mpisim

type comm_sel = World | Sub

type op =
  | Send of { comm : comm_sel; dest : int; tag : int; nb : bool }
  | Recv of { comm : comm_sel; src : int option; tag : int option; nb : bool }
  | Wait of int  (** index among the rank's non-blocking requests *)
  | Allreduce of comm_sel
  | Barrier of comm_sel

type script = {
  np : int;
  split : (int * int) array option;  (** per world rank: colour, key *)
  ops : op list array;  (** per world rank, in program order *)
  presc : Schedule.prescription;
}

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

(* Members of [g]'s split colour, ordered as MPI_Comm_split orders
   them: by key, ties broken by world rank. *)
let group_of split g =
  let colour, _ = split.(g) in
  List.init (Array.length split) Fun.id
  |> List.filter (fun h -> fst split.(h) = colour)
  |> List.stable_sort (fun a b -> Int.compare (snd split.(a)) (snd split.(b)))

let index_of x l =
  let rec go k = function
    | [] -> invalid_arg "index_of"
    | y :: rest -> if y = x then k else go (k + 1) rest
  in
  go 0 l

let gen_script rng =
  let int n = Random.State.int rng n in
  let np = 2 + int 3 in
  let split = if int 3 = 0 then None else Some (Array.init np (fun _ -> (int 2, int 3))) in
  let ops = Array.make np [] in
  let nreq = Array.make np 0 in
  let unwaited = Array.make np [] in
  let add r op = ops.(r) <- op :: ops.(r) in
  let add_nb r nb op =
    if nb then begin
      unwaited.(r) <- nreq.(r) :: unwaited.(r);
      nreq.(r) <- nreq.(r) + 1
    end;
    add r op
  in
  (* a communicator containing [g] and its members in local order *)
  let pick_comm g =
    match split with
    | Some split when int 2 = 0 && List.length (group_of split g) >= 2 ->
      (Sub, group_of split g)
    | Some _ | None -> (World, List.init np Fun.id)
  in
  let point_to_point ~comm ~group ~src ~dst ~tag ~wild_src ~wild_tag =
    let snb = int 4 = 0 and rnb = int 4 = 0 in
    add_nb src snb (Send { comm; dest = index_of dst group; tag; nb = snb });
    add_nb dst rnb
      (Recv
         {
           comm;
           src = (if wild_src then None else Some (index_of src group));
           tag = (if wild_tag then None else Some tag);
           nb = rnb;
         })
  in
  for _ = 1 to 3 + int 8 do
    match int 20 with
    | n when n < 10 ->
      let comm, group = pick_comm (int np) in
      let len = List.length group in
      let a = List.nth group (int len) in
      let b = List.nth group ((index_of a group + 1 + int (len - 1)) mod len) in
      point_to_point ~comm ~group ~src:a ~dst:b ~tag:(int 3) ~wild_src:(int 3 = 0)
        ~wild_tag:(int 3 = 0)
    | n when n < 12 ->
      (* fan-in: every other world rank sends, the root takes them all
         by wildcard source — the schedule-mode choice points *)
      let root = int np and tag = int 2 in
      for g = 0 to np - 1 do
        if g <> root then
          point_to_point ~comm:World ~group:(List.init np Fun.id) ~src:g ~dst:root ~tag
            ~wild_src:true ~wild_tag:(int 2 = 0)
      done
    | n when n < 15 ->
      let comm = if split <> None && int 2 = 0 then Sub else World in
      let coll = if int 2 = 0 then Allreduce comm else Barrier comm in
      for g = 0 to np - 1 do
        add g coll
      done
    | n when n < 18 -> (
      let r = int np in
      match unwaited.(r) with
      | [] -> ()
      | reqs ->
        let i = List.nth reqs (int (List.length reqs)) in
        unwaited.(r) <- List.filter (( <> ) i) reqs;
        add r (Wait i))
    | 18 -> (
      (* a stray operation: an unmatched receive (deadlock), an
         unmatched send (leak) or a mismatched collective *)
      let r = int np in
      match int 3 with
      | 0 -> add r (Recv { comm = World; src = Some ((r + 1) mod np); tag = Some 9; nb = false })
      | 1 -> add r (Send { comm = World; dest = (r + 1) mod np; tag = 9; nb = false })
      | _ ->
        for g = 0 to np - 1 do
          add g (if g = r then Barrier World else Allreduce World)
        done)
    | _ -> ()
  done;
  Array.iteri
    (fun r reqs -> List.iter (fun i -> if int 4 <> 0 then add r (Wait i)) (List.rev reqs))
    unwaited;
  let presc = List.init (int 5) (fun _ -> int np) in
  { np; split; ops = Array.map List.rev ops; presc }

(* ------------------------------------------------------------------ *)
(* Execution and rendering                                             *)
(* ------------------------------------------------------------------ *)

let comm_name = function World -> "w" | Sub -> "s"
let opt = function Some n -> string_of_int n | None -> "*"

let op_to_string = function
  | Send { comm; dest; tag; nb } ->
    Printf.sprintf "%s%s>%d:%d" (if nb then "isend" else "send") (comm_name comm) dest tag
  | Recv { comm; src; tag; nb } ->
    Printf.sprintf "%s%s<%s:%s" (if nb then "irecv" else "recv") (comm_name comm) (opt src)
      (opt tag)
  | Wait i -> Printf.sprintf "wait%d" i
  | Allreduce c -> "allreduce" ^ comm_name c
  | Barrier c -> "barrier" ^ comm_name c

let reply_to_string = function
  | Mpi_iface.Runit -> "()"
  | Mpi_iface.Rint n -> string_of_int n
  | Mpi_iface.Rvalue v -> Format.asprintf "%a" Value.pp v
  | Mpi_iface.Rvalues vs -> String.concat "," (List.map (Format.asprintf "%a" Value.pp) vs)
  | Mpi_iface.Rnone -> "none"

let run_script ?schedule sc =
  let log = Array.make sc.np [] in
  let body ~rank ~mpi =
    let record what reply = log.(rank) <- (what ^ "=" ^ reply_to_string reply) :: log.(rank) in
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
    let handles = ref [] in
    let serial = ref 0 in
    let post req =
      match mpi req with
      | Mpi_iface.Rint h -> handles := !handles @ [ h ]
      | reply ->
        handles := !handles @ [ -1 ];
        record "post" reply
    in
    List.iter
      (function
        | Send { comm = c; dest; tag; nb } ->
          incr serial;
          let data = Value.Varr_int [| rank; tag; !serial |] in
          if nb then post (Mpi_iface.Isend { comm = comm c; dest; tag; data })
          else ignore (mpi (Mpi_iface.Send { comm = comm c; dest; tag; data }))
        | Recv { comm = c; src; tag; nb } ->
          if nb then post (Mpi_iface.Irecv { comm = comm c; src; tag })
          else record "recv" (mpi (Mpi_iface.Recv { comm = comm c; src; tag }))
        | Wait i -> record "wait" (mpi (Mpi_iface.Wait (List.nth !handles i)))
        | Allreduce c ->
          record "allreduce"
            (mpi
               (Mpi_iface.Allreduce
                  { comm = comm c; op = Mpi_iface.Rsum; data = Value.Vint (rank + 1) }))
        | Barrier c -> ignore (mpi (Mpi_iface.Barrier (comm c))))
      sc.ops.(rank);
    Ok ()
  in
  let r = Scheduler.run ?schedule ~nprocs:sc.np body in
  (r, log)

let render_run buf label (r : Scheduler.run_result) log =
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  line "  %s:" label;
  Array.iteri
    (fun rank outcome ->
      line "    r%d %s | %s" rank
        (match outcome with Ok () -> "ok" | Error f -> Fault.to_string f)
        (match log.(rank) with [] -> "-" | l -> String.concat " " (List.rev l)))
    r.Scheduler.outcomes;
  line "    deadlocked [%s] leaked %d"
    (String.concat "," (List.map string_of_int r.Scheduler.deadlocked))
    (List.length r.Scheduler.leaked);
  List.iter
    (fun (c : Schedule.choice) ->
      line "    choice r%d comm%d tag%d chose %d of [%s]" c.ch_rank c.ch_comm c.ch_tag c.ch_chosen
        (String.concat "," (List.map string_of_int c.ch_alts)))
    r.Scheduler.choices

let scripts = 160
(* Beside the test executable, where dune copies the test's deps, so the
   suite finds it from any working directory. *)
let golden_file =
  Filename.concat (Filename.dirname Sys.executable_name) "golden/mpisim_matching.txt"

(* The rendered golden text, plus counts showing the generator reached
   deadlocks, leaks and multi-way choice points. *)
let generate () =
  let rng = Random.State.make [| 21 |] in
  let buf = Buffer.create 65536 in
  let deadlocks = ref 0 and leaks = ref 0 and forks = ref 0 in
  for id = 1 to scripts do
    let sc = gen_script rng in
    Printf.bprintf buf "script %d np %d split [%s] schedule %s\n" id sc.np
      (match sc.split with
      | None -> "-"
      | Some split ->
        String.concat " " (Array.to_list (Array.map (fun (c, k) -> Printf.sprintf "%d:%d" c k) split)))
      (Schedule.to_string sc.presc);
    Array.iteri
      (fun rank ops ->
        Printf.bprintf buf "  r%d: %s\n" rank
          (match ops with [] -> "-" | ops -> String.concat " " (List.map op_to_string ops)))
      sc.ops;
    let eager, elog = run_script sc in
    render_run buf "eager" eager elog;
    let sched, slog = run_script ~schedule:sc.presc sc in
    render_run buf "schedule" sched slog;
    List.iter
      (fun (r : Scheduler.run_result) ->
        if r.deadlocked <> [] then incr deadlocks;
        if r.leaked <> [] then incr leaks)
      [ eager; sched ];
    List.iter
      (fun (c : Schedule.choice) -> if List.length c.ch_alts > 1 then incr forks)
      sched.choices
  done;
  (Buffer.contents buf, !deadlocks, !leaks, !forks)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_difference expected actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go n e a =
    match (e, a) with
    | x :: e, y :: a when x = y -> go (n + 1) e a
    | x :: _, y :: _ -> Printf.sprintf "line %d: expected %S, got %S" n x y
    | x :: _, [] -> Printf.sprintf "line %d: expected %S, got end of text" n x
    | [], y :: _ -> Printf.sprintf "line %d: expected end of text, got %S" n y
    | [], [] -> "no difference"
  in
  go 1 e a

let test_golden () =
  let actual, deadlocks, leaks, forks = generate () in
  Alcotest.(check bool) "generator reaches a deadlock" true (deadlocks > 0);
  Alcotest.(check bool) "generator reaches a leak" true (leaks > 0);
  Alcotest.(check bool) "generator reaches a multi-way choice" true (forks > 0);
  let expected = read_file golden_file in
  if actual <> expected then begin
    Out_channel.with_open_bin "mpisim_matching.actual" (fun oc ->
        Out_channel.output_string oc actual);
    Alcotest.failf "matching differs from %s (%s); see mpisim_matching.actual" golden_file
      (first_difference expected actual)
  end

let suite = [ ("mpisim:golden", [ ("matching golden", `Quick, test_golden) ]) ]
