(* Tests for the MPI simulator: rank maps, collective semantics, the
   scheduler (point-to-point, collectives, splits, deadlock detection),
   and integration with the Mini-C interpreter. *)

open Minic
open Mpisim

(* ------------------------------------------------------------------ *)
(* Rankmap                                                             *)
(* ------------------------------------------------------------------ *)

let test_rankmap_world () =
  let t = Rankmap.create ~nprocs:4 in
  Alcotest.(check int) "world size" 4 (Rankmap.world_size t);
  Alcotest.(check (option int)) "size" (Some 4) (Rankmap.size t ~comm:Mpi_iface.world);
  Alcotest.(check (option int)) "local of 2" (Some 2)
    (Rankmap.local_rank t ~comm:Mpi_iface.world ~global:2);
  Alcotest.(check (option int)) "global of 3" (Some 3)
    (Rankmap.global_of_local t ~comm:Mpi_iface.world ~local:3);
  Alcotest.(check (option int)) "unknown comm" None (Rankmap.size t ~comm:99)

let test_rankmap_split () =
  let t = Rankmap.create ~nprocs:5 in
  (* colors: evens vs odds; key = -global to reverse order within color *)
  let decisions = List.init 5 (fun g -> (g, g mod 2, -g)) in
  let handles = Rankmap.split t ~parent:Mpi_iface.world decisions in
  let h0 = List.assoc 0 handles and h1 = List.assoc 1 handles in
  Alcotest.(check bool) "distinct comms" true (h0 <> h1);
  Alcotest.(check bool) "same color same comm" true (List.assoc 2 handles = h0);
  (* evens reversed by key: members = [4;2;0] *)
  (match Rankmap.members t ~comm:h0 with
  | Some ms -> Alcotest.(check (list int)) "key order" [ 4; 2; 0 ] (Array.to_list ms)
  | None -> Alcotest.fail "missing comm");
  Alcotest.(check (option int)) "local rank of 0 in evens" (Some 2)
    (Rankmap.local_rank t ~comm:h0 ~global:0)

let test_rankmap_split_undefined_color () =
  let t = Rankmap.create ~nprocs:3 in
  let handles = Rankmap.split t ~parent:Mpi_iface.world [ (0, -1, 0); (1, 0, 0); (2, 0, 0) ] in
  Alcotest.(check int) "undefined color handle" (-1) (List.assoc 0 handles);
  Alcotest.(check bool) "others joined" true (List.assoc 1 handles >= 1)

let test_rankmap_mapping_table () =
  (* Paper Table II: rows of global ranks per local communicator. *)
  let t = Rankmap.create ~nprocs:5 in
  let _ = Rankmap.split t ~parent:Mpi_iface.world (List.init 5 (fun g -> (g, g mod 2, 0))) in
  let table = Rankmap.mapping_table t ~global:0 in
  Alcotest.(check int) "one non-world comm for rank 0" 1 (List.length table);
  let _, row = List.hd table in
  Alcotest.(check (list int)) "row" [ 0; 2; 4 ] (Array.to_list row)

(* ------------------------------------------------------------------ *)
(* Collectives semantics                                               *)
(* ------------------------------------------------------------------ *)

let value = Alcotest.testable Value.pp Value.equal

let test_reduce_ops () =
  let vs = [| Value.Vint 3; Value.Vint (-1); Value.Vint 5 |] in
  let check op expected =
    match Collectives.reduce op vs with
    | Ok got -> Alcotest.check value "reduce" (Value.Vint expected) got
    | Error e -> Alcotest.fail e
  in
  check Mpi_iface.Rsum 7;
  check Mpi_iface.Rprod (-15);
  check Mpi_iface.Rmax 5;
  check Mpi_iface.Rmin (-1)

let test_reduce_arrays_elementwise () =
  let vs = [| Value.Varr_int [| 1; 2 |]; Value.Varr_int [| 10; 20 |] |] in
  match Collectives.reduce Mpi_iface.Rsum vs with
  | Ok got -> Alcotest.check value "elementwise" (Value.Varr_int [| 11; 22 |]) got
  | Error e -> Alcotest.fail e

let test_reduce_mismatch () =
  match Collectives.reduce Mpi_iface.Rsum [| Value.Vint 1; Value.Vfloat 2.0 |] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected mismatch error"

let test_gather_scatter_alltoall () =
  (match Collectives.gather [| Value.Vint 5; Value.Vint 6 |] with
  | Ok got -> Alcotest.check value "gather" (Value.Varr_int [| 5; 6 |]) got
  | Error e -> Alcotest.fail e);
  (match Collectives.scatter (Value.Varr_int [| 7; 8; 9 |]) 2 with
  | Ok [| a; b |] ->
    Alcotest.check value "scatter0" (Value.Vint 7) a;
    Alcotest.check value "scatter1" (Value.Vint 8) b
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  match
    Collectives.alltoall [| Value.Varr_int [| 1; 2 |]; Value.Varr_int [| 3; 4 |] |]
  with
  | Ok [| r0; r1 |] ->
    Alcotest.check value "alltoall0" (Value.Varr_int [| 1; 3 |]) r0;
    Alcotest.check value "alltoall1" (Value.Varr_int [| 2; 4 |]) r1
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let ok_body f ~rank ~mpi =
  f ~rank ~mpi;
  Ok ()

let all_ok name (r : Scheduler.run_result) =
  Array.iteri
    (fun rank outcome ->
      match outcome with
      | Ok () -> ()
      | Error fault ->
        Alcotest.failf "%s: rank %d faulted: %s" name rank (Fault.to_string fault))
    r.Scheduler.outcomes

let test_sched_rank_size () =
  let seen = Array.make 4 (-1) in
  let r =
    Scheduler.run ~nprocs:4
      (ok_body (fun ~rank ~mpi ->
           match mpi (Mpi_iface.Rank Mpi_iface.world) with
           | Mpi_iface.Rint l ->
             seen.(rank) <- l;
             (match mpi (Mpi_iface.Size Mpi_iface.world) with
             | Mpi_iface.Rint 4 -> ()
             | _ -> failwith "bad size")
           | _ -> failwith "bad rank reply"))
  in
  all_ok "rank/size" r;
  Alcotest.(check (list int)) "ranks" [ 0; 1; 2; 3 ] (Array.to_list seen)

let test_sched_ring () =
  (* Each rank sends to (rank+1) mod n and receives from the left. *)
  let n = 5 in
  let received = Array.make n (-1) in
  let r =
    Scheduler.run ~nprocs:n
      (ok_body (fun ~rank ~mpi ->
           let _ =
             mpi
               (Mpi_iface.Send
                  {
                    comm = Mpi_iface.world;
                    dest = (rank + 1) mod n;
                    tag = 7;
                    data = Value.Vint (100 + rank);
                  })
           in
           match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = Some 7 }) with
           | Mpi_iface.Rvalue (Value.Vint got) -> received.(rank) <- got
           | _ -> failwith "bad recv"))
  in
  all_ok "ring" r;
  List.iteri
    (fun rank got ->
      Alcotest.(check int) "ring value" (100 + ((rank + n - 1) mod n)) got)
    (Array.to_list received)

let test_sched_recv_by_source () =
  (* rank 0 receives specifically from rank 2 then from rank 1. *)
  let order = ref [] in
  let r =
    Scheduler.run ~nprocs:3
      (ok_body (fun ~rank ~mpi ->
           if rank = 0 then begin
             (match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 2; tag = None }) with
             | Mpi_iface.Rvalue (Value.Vint x) -> order := x :: !order
             | _ -> failwith "bad");
             match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None }) with
             | Mpi_iface.Rvalue (Value.Vint x) -> order := x :: !order
             | _ -> failwith "bad"
           end
           else
             ignore
               (mpi
                  (Mpi_iface.Send
                     { comm = Mpi_iface.world; dest = 0; tag = 0; data = Value.Vint rank }))))
  in
  all_ok "recv by source" r;
  Alcotest.(check (list int)) "selective order" [ 1; 2 ] !order

let test_sched_allreduce () =
  let results = Array.make 6 0 in
  let r =
    Scheduler.run ~nprocs:6
      (ok_body (fun ~rank ~mpi ->
           match
             mpi
               (Mpi_iface.Allreduce
                  { comm = Mpi_iface.world; op = Mpi_iface.Rsum; data = Value.Vint rank })
           with
           | Mpi_iface.Rvalue (Value.Vint s) -> results.(rank) <- s
           | _ -> failwith "bad allreduce"))
  in
  all_ok "allreduce" r;
  Array.iter (fun s -> Alcotest.(check int) "sum 0..5" 15 s) results

let test_sched_bcast_and_reduce_root () =
  let got = Array.make 4 (-1) in
  let root_sum = ref (-1) in
  let r =
    Scheduler.run ~nprocs:4
      (ok_body (fun ~rank ~mpi ->
           (match
              mpi
                (Mpi_iface.Bcast
                   {
                     comm = Mpi_iface.world;
                     root = 2;
                     data = (if rank = 2 then Some (Value.Vint 77) else None);
                   })
            with
           | Mpi_iface.Rvalue (Value.Vint x) -> got.(rank) <- x
           | _ -> failwith "bad bcast");
           match
             mpi
               (Mpi_iface.Reduce
                  {
                    comm = Mpi_iface.world;
                    op = Mpi_iface.Rmax;
                    root = 1;
                    data = Value.Vint (10 * rank);
                  })
           with
           | Mpi_iface.Rvalue (Value.Vint s) ->
             if rank <> 1 then failwith "non-root got a reduce value";
             root_sum := s
           | Mpi_iface.Rnone -> if rank = 1 then failwith "root got no value"
           | _ -> failwith "bad reduce"))
  in
  all_ok "bcast+reduce" r;
  Array.iter (fun x -> Alcotest.(check int) "bcast value" 77 x) got;
  Alcotest.(check int) "reduce max" 30 !root_sum

let test_sched_split_then_collective () =
  (* Split into evens/odds, allreduce within each group. *)
  let sums = Array.make 6 0 in
  let r =
    Scheduler.run ~nprocs:6
      (ok_body (fun ~rank ~mpi ->
           match
             mpi
               (Mpi_iface.Split
                  { comm = Mpi_iface.world; color = rank mod 2; key = rank })
           with
           | Mpi_iface.Rint sub when sub >= 0 -> (
             match
               mpi
                 (Mpi_iface.Allreduce
                    { comm = sub; op = Mpi_iface.Rsum; data = Value.Vint rank })
             with
             | Mpi_iface.Rvalue (Value.Vint s) -> sums.(rank) <- s
             | _ -> failwith "bad sub allreduce")
           | _ -> failwith "bad split"))
  in
  all_ok "split" r;
  (* evens: 0+2+4 = 6, odds: 1+3+5 = 9 *)
  List.iteri
    (fun rank s -> Alcotest.(check int) "group sum" (if rank mod 2 = 0 then 6 else 9) s)
    (Array.to_list sums)

let test_sched_deadlock_detected () =
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        ignore rank;
        match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None }) with
        | _ -> Ok ())
  in
  Alcotest.(check (list int)) "both deadlocked" [ 0; 1 ] r.Scheduler.deadlocked;
  Array.iter
    (fun outcome ->
      match outcome with
      | Error (Fault.Mpi_error _) -> ()
      | Error fault -> Alcotest.failf "wrong fault %s" (Fault.to_string fault)
      | Ok () -> Alcotest.fail "expected deadlock fault")
    r.Scheduler.outcomes

let test_sched_partial_deadlock () =
  (* rank 0 finishes; ranks 1 and 2 wait on each other's barrier vs recv. *)
  let r =
    Scheduler.run ~nprocs:3 (fun ~rank ~mpi ->
        if rank = 0 then Ok ()
        else if rank = 1 then
          match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 2; tag = None }) with
          | _ -> Ok ()
        else
          match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None }) with
          | _ -> Ok ())
  in
  Alcotest.(check (list int)) "two deadlocked" [ 1; 2 ] r.Scheduler.deadlocked;
  (match r.Scheduler.outcomes.(0) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rank 0 should finish")

let test_sched_collective_mismatch () =
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 0 then match mpi (Mpi_iface.Barrier Mpi_iface.world) with _ -> Ok ()
        else
          match
            mpi
              (Mpi_iface.Allreduce
                 { comm = Mpi_iface.world; op = Mpi_iface.Rsum; data = Value.Vint 1 })
          with
          | _ -> Ok ())
  in
  let faults =
    Array.to_list r.Scheduler.outcomes
    |> List.filter (function Error _ -> true | Ok () -> false)
  in
  Alcotest.(check bool) "at least one fault" true (faults <> [])

let test_sched_platform_limit () =
  match Scheduler.run ~max_procs:8 ~nprocs:9 (fun ~rank:_ ~mpi:_ -> Ok ()) with
  | exception Scheduler.Platform_limit 9 -> ()
  | _ -> Alcotest.fail "expected Platform_limit"

let test_sched_send_invalid_rank () =
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 0 then
          match
            mpi
              (Mpi_iface.Send
                 { comm = Mpi_iface.world; dest = 5; tag = 0; data = Value.Vint 1 })
          with
          | _ -> Ok ()
        else Ok ())
  in
  match r.Scheduler.outcomes.(0) with
  | Error (Fault.Mpi_error _) -> ()
  | Error fault -> Alcotest.failf "wrong fault %s" (Fault.to_string fault)
  | Ok () -> Alcotest.fail "expected invalid-rank fault"

(* ------------------------------------------------------------------ *)
(* Non-blocking point-to-point                                         *)
(* ------------------------------------------------------------------ *)

let test_nb_basic_exchange () =
  (* both ranks post irecv, then isend, then wait: the classic pattern
     that deadlocks with blocking calls *)
  let n = 2 in
  let got = Array.make n (-1) in
  let r =
    Scheduler.run ~nprocs:n
      (ok_body (fun ~rank ~mpi ->
           let peer = 1 - rank in
           let rh =
             match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = Some peer; tag = None }) with
             | Mpi_iface.Rint h -> h
             | _ -> failwith "bad irecv"
           in
           let sh =
             match
               mpi
                 (Mpi_iface.Isend
                    { comm = Mpi_iface.world; dest = peer; tag = 5; data = Value.Vint (70 + rank) })
             with
             | Mpi_iface.Rint h -> h
             | _ -> failwith "bad isend"
           in
           (match mpi (Mpi_iface.Wait rh) with
           | Mpi_iface.Rvalue (Value.Vint x) -> got.(rank) <- x
           | _ -> failwith "bad wait recv");
           match mpi (Mpi_iface.Wait sh) with
           | Mpi_iface.Runit -> ()
           | _ -> failwith "bad wait send"))
  in
  all_ok "nb exchange" r;
  Alcotest.(check int) "rank 0 got" 71 got.(0);
  Alcotest.(check int) "rank 1 got" 70 got.(1)

let test_nb_wait_before_send () =
  (* rank 0 waits on an irecv posted before the matching send exists *)
  let got = ref (-1) in
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 0 then begin
          let h =
            match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = None; tag = Some 9 }) with
            | Mpi_iface.Rint h -> h
            | _ -> failwith "bad irecv"
          in
          (match mpi (Mpi_iface.Wait h) with
          | Mpi_iface.Rvalue (Value.Vint x) -> got := x
          | _ -> failwith "bad wait");
          Ok ()
        end
        else begin
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag = 9; data = Value.Vint 123 }));
          Ok ()
        end)
  in
  all_ok "wait before send" r;
  Alcotest.(check int) "payload" 123 !got

let test_nb_message_already_in_mailbox () =
  (* the send happens long before the irecv is posted *)
  let got = ref (-1) in
  let r2 =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 1 then begin
          ignore
            (mpi
               (Mpi_iface.Send
                  { comm = Mpi_iface.world; dest = 0; tag = 3; data = Value.Vint 55 }));
          ignore (mpi (Mpi_iface.Barrier Mpi_iface.world));
          Ok ()
        end
        else begin
          ignore (mpi (Mpi_iface.Barrier Mpi_iface.world));
          let h =
            match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = Some 1; tag = Some 3 }) with
            | Mpi_iface.Rint h -> h
            | _ -> failwith "bad irecv"
          in
          (match mpi (Mpi_iface.Wait h) with
          | Mpi_iface.Rvalue (Value.Vint x) -> got := x
          | _ -> failwith "bad wait");
          Ok ()
        end)
  in
  all_ok "mailbox then irecv" r2;
  Alcotest.(check int) "payload" 55 !got

let test_nb_posted_order () =
  (* two irecvs posted; two sends with distinct tags complete them in
     post order when filters allow either *)
  let first = ref (-1) and second = ref (-1) in
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 0 then begin
          let h1 =
            match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = None; tag = None }) with
            | Mpi_iface.Rint h -> h
            | _ -> failwith "bad"
          in
          let h2 =
            match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = None; tag = None }) with
            | Mpi_iface.Rint h -> h
            | _ -> failwith "bad"
          in
          (match mpi (Mpi_iface.Wait h1) with
          | Mpi_iface.Rvalue (Value.Vint x) -> first := x
          | _ -> failwith "bad");
          (match mpi (Mpi_iface.Wait h2) with
          | Mpi_iface.Rvalue (Value.Vint x) -> second := x
          | _ -> failwith "bad");
          Ok ()
        end
        else begin
          ignore
            (mpi (Mpi_iface.Send { comm = Mpi_iface.world; dest = 0; tag = 1; data = Value.Vint 10 }));
          ignore
            (mpi (Mpi_iface.Send { comm = Mpi_iface.world; dest = 0; tag = 2; data = Value.Vint 20 }));
          Ok ()
        end)
  in
  all_ok "posted order" r;
  Alcotest.(check int) "first irecv gets first send" 10 !first;
  Alcotest.(check int) "second irecv gets second send" 20 !second

let test_nb_unmatched_wait_deadlocks () =
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 0 then begin
          let h =
            match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = Some 1; tag = Some 42 }) with
            | Mpi_iface.Rint h -> h
            | _ -> failwith "bad"
          in
          match mpi (Mpi_iface.Wait h) with _ -> Ok ()
        end
        else Ok ())
  in
  Alcotest.(check (list int)) "waiter deadlocked" [ 0 ] r.Scheduler.deadlocked

let test_nb_wait_unknown_handle () =
  let r =
    Scheduler.run ~nprocs:1 (fun ~rank:_ ~mpi ->
        match mpi (Mpi_iface.Wait 999) with _ -> Ok ())
  in
  match r.Scheduler.outcomes.(0) with
  | Error (Fault.Mpi_error _) -> ()
  | Error f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)
  | Ok () -> Alcotest.fail "expected fault"

(* Each bad [Wait] faults once, and the rank goes on: handle 0, a
   negative handle, the next handle not yet issued, and a handle already
   waited on. *)
let test_nb_wait_bad_handles () =
  let log = ref [] in
  let r =
    Scheduler.run ~nprocs:1 (fun ~rank:_ ~mpi ->
        let call req =
          log :=
            (match mpi req with
            | Mpi_iface.Rint h -> Printf.sprintf "handle %d" h
            | Mpi_iface.Runit -> "done"
            | Mpi_iface.Rvalue v -> Format.asprintf "value %a" Value.pp v
            | Mpi_iface.Rvalues _ | Mpi_iface.Rnone -> "other"
            | exception Fault.Fault f -> Fault.to_string f)
            :: !log
        in
        call (Mpi_iface.Isend { comm = Mpi_iface.world; dest = 0; tag = 1; data = Value.Vint 7 });
        List.iter (fun h -> call (Mpi_iface.Wait h)) [ 0; -3; 2; 1; 1 ];
        call (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 0; tag = Some 1 });
        Ok ())
  in
  all_ok "bad handles" r;
  let unknown h = Printf.sprintf "MPI error in <mpi>: wait on unknown request %d" h in
  Alcotest.(check (list string)) "replies and faults"
    [ "handle 1"; unknown 0; unknown (-3); unknown 2; "done"; unknown 1; "value 7" ]
    (List.rev !log)

(* 300 outstanding requests on each side, waited in reverse order: the
   table grows past its first capacity and keeps every handle. *)
let test_nb_many_outstanding () =
  let n = 300 in
  let handles = Array.make 2 [] and replies = Array.make 2 [] in
  let r =
    Scheduler.run ~nprocs:2
      (ok_body (fun ~rank ~mpi ->
           let post req =
             match mpi req with
             | Mpi_iface.Rint h -> handles.(rank) <- h :: handles.(rank)
             | _ -> failwith "post"
           in
           if rank = 1 then
             for tag = 1 to n do
               post (Mpi_iface.Irecv { comm = Mpi_iface.world; src = Some 0; tag = Some tag })
             done;
           (* rank 0 sends only once every receive is posted *)
           ignore (mpi (Mpi_iface.Barrier Mpi_iface.world));
           if rank = 0 then
             for tag = n downto 1 do
               post
                 (Mpi_iface.Isend
                    { comm = Mpi_iface.world; dest = 1; tag; data = Value.Vint (1000 + tag) })
             done;
           List.iter
             (fun h -> replies.(rank) <- mpi (Mpi_iface.Wait h) :: replies.(rank))
             handles.(rank)))
  in
  all_ok "300 outstanding" r;
  let upto = List.init n (fun k -> k + 1) in
  Alcotest.(check (list int)) "send handles" upto (List.rev handles.(0));
  Alcotest.(check (list int)) "recv handles" upto (List.rev handles.(1));
  Alcotest.(check bool) "sends complete" true
    (List.for_all (fun reply -> reply = Mpi_iface.Runit) replies.(0));
  (* waited from handle 300 down, so the replies list runs from 1 up *)
  Alcotest.(check (list string)) "each receive got its tag's message"
    (List.map (fun tag -> string_of_int (1000 + tag)) upto)
    (List.map
       (function Mpi_iface.Rvalue v -> Format.asprintf "%a" Value.pp v | _ -> "?")
       replies.(1))

(* A request left outstanding while hundreds of later ones come and go:
   the table must keep it however far the later handles run past it. *)
let test_nb_long_lived_handle () =
  let world = Mpi_iface.world in
  let got = ref [] in
  let r =
    Scheduler.run ~nprocs:2
      (ok_body (fun ~rank ~mpi ->
           let handle req = match mpi req with Mpi_iface.Rint h -> h | _ -> failwith "post" in
           if rank = 0 then begin
             let early = handle (Mpi_iface.Irecv { comm = world; src = Some 1; tag = Some 9 }) in
             for k = 1 to 200 do
               let h =
                 handle (Mpi_iface.Isend { comm = world; dest = 0; tag = k; data = Value.Vint k })
               in
               ignore (mpi (Mpi_iface.Wait h));
               ignore (mpi (Mpi_iface.Recv { comm = world; src = Some 0; tag = Some k }))
             done;
             ignore (mpi (Mpi_iface.Barrier world));
             got := [ early; 202 ];
             match mpi (Mpi_iface.Wait early) with
             | Mpi_iface.Rvalue (Value.Vint n) -> got := n :: !got
             | _ -> failwith "wait"
           end
           else begin
             ignore (mpi (Mpi_iface.Barrier world));
             ignore (mpi (Mpi_iface.Send { comm = world; dest = 0; tag = 9; data = Value.Vint 99 }))
           end))
  in
  all_ok "long-lived handle" r;
  Alcotest.(check (list int)) "early receive kept" [ 99; 1; 202 ] !got

(* Posted receives with different filters, some already completed: each
   send completes the earliest posted receive that takes it. *)
let test_nb_earliest_posted () =
  let got = ref [] in
  let world = Mpi_iface.world in
  let r =
    Scheduler.run ~nprocs:3
      (ok_body (fun ~rank ~mpi ->
           let barrier () = ignore (mpi (Mpi_iface.Barrier world)) in
           let send tag =
             ignore
               (mpi
                  (Mpi_iface.Send
                     { comm = world; dest = 2; tag; data = Value.Varr_int [| rank; tag |] }))
           in
           match rank with
           | 2 ->
             let handles =
               List.map
                 (fun (src, tag) ->
                   match mpi (Mpi_iface.Irecv { comm = world; src; tag }) with
                   | Mpi_iface.Rint h -> h
                   | _ -> failwith "irecv")
                 [
                   (Some 0, Some 5); (None, Some 5); (Some 1, None); (None, None); (Some 0, Some 6);
                 ]
             in
             for _ = 1 to 5 do
               barrier ()
             done;
             List.iter
               (fun h ->
                 match mpi (Mpi_iface.Wait h) with
                 | Mpi_iface.Rvalue v -> got := (h, Format.asprintf "%a" Value.pp v) :: !got
                 | _ -> failwith "wait")
               handles
           | _ ->
             (* one send per round, from rank 0 or 1 as listed *)
             List.iter
               (fun (from, tag) ->
                 barrier ();
                 if from = rank then send tag)
               [ (0, 5); (1, 5); (0, 6); (1, 7); (0, 6) ]))
  in
  all_ok "earliest posted" r;
  Alcotest.(check (list (pair int string))) "matches"
    [
      (1, "[|0; 5|]"); (2, "[|1; 5|]"); (3, "[|1; 7|]"); (4, "[|0; 6|]"); (5, "[|0; 6|]");
    ]
    (List.rev !got)

(* A rank that mutates an array it received from bcast, allreduce,
   allgather or alltoall changes neither another rank's copy nor the
   buffer it came from; scalar replies still compare equal. *)
let test_collective_replies_not_aliased () =
  let np = 3 and world = Mpi_iface.world in
  let root_buf = [| 1; 2; 3 |] in
  let rows = Array.init np (fun r -> Array.init np (fun j -> (10 * r) + j)) in
  let sums = Array.init np (fun r -> [| r; 2 * r |]) in
  let got = Array.make_matrix 4 np [||] and scalars = Array.make np (Value.Vint 0) in
  let ints = function Mpi_iface.Rvalue (Value.Varr_int a) -> a | _ -> failwith "not an array" in
  let r =
    Scheduler.run ~nprocs:np
      (ok_body (fun ~rank ~mpi ->
           let replies =
             [|
               mpi
                 (Mpi_iface.Bcast
                    {
                      comm = world;
                      root = 0;
                      data = (if rank = 0 then Some (Value.Varr_int root_buf) else None);
                    });
               mpi
                 (Mpi_iface.Allreduce
                    { comm = world; op = Mpi_iface.Rsum; data = Value.Varr_int sums.(rank) });
               mpi (Mpi_iface.Allgather { comm = world; data = Value.Vint rank });
               mpi (Mpi_iface.Alltoall { comm = world; data = Value.Varr_int rows.(rank) });
             |]
           in
           Array.iteri
             (fun k reply ->
               let a = ints reply in
               a.(0) <- -1 - rank;
               got.(k).(rank) <- a)
             replies;
           (match
              mpi (Mpi_iface.Allreduce { comm = world; op = Mpi_iface.Rmax; data = Value.Vint rank })
            with
           | Mpi_iface.Rvalue v -> scalars.(rank) <- v
           | _ -> failwith "allreduce");
           ignore (mpi (Mpi_iface.Barrier world))))
  in
  all_ok "aliasing" r;
  let check name k expected =
    Array.iteri
      (fun rank a ->
        let want = Array.copy (expected rank) in
        want.(0) <- -1 - rank;
        Alcotest.(check (array int)) (Printf.sprintf "%s copy of rank %d" name rank) want a)
      got.(k)
  in
  check "bcast" 0 (fun _ -> [| 1; 2; 3 |]);
  check "allreduce" 1 (fun _ -> [| 0 + 1 + 2; 0 + 2 + 4 |]);
  check "allgather" 2 (fun _ -> [| 0; 1; 2 |]);
  check "alltoall" 3 (fun j -> Array.init np (fun i -> (10 * i) + j));
  Alcotest.(check (array int)) "root buffer" [| 1; 2; 3 |] root_buf;
  Array.iteri
    (fun r row ->
      Alcotest.(check (array int)) "alltoall send buffer" (Array.init np (fun j -> (10 * r) + j)) row)
    rows;
  Array.iteri
    (fun r a -> Alcotest.(check (array int)) "allreduce send buffer" [| r; 2 * r |] a)
    sums;
  Array.iter (fun v -> Alcotest.check value "scalar reply" (Value.Vint 2) v) scalars

(* ------------------------------------------------------------------ *)
(* Interp + scheduler integration                                      *)
(* ------------------------------------------------------------------ *)

open Builder

let run_spmd ~nprocs program =
  let instrumented = (Branchinfo.instrument (Check.check_exn program)).Branchinfo.program in
  Scheduler.run ~nprocs (fun ~rank:_ ~mpi ->
      Interp.run (Interp.plain_hooks ~mpi ()) instrumented)

let test_spmd_pi_style_reduction () =
  (* Figure-2-shaped program: rank 0 coordinates, all reduce a sum. *)
  let p =
    program
      [
        func "main" []
          [
            decl "rank" (i 0);
            decl "size" (i 0);
            comm_rank Ast.World "rank";
            comm_size Ast.World "size";
            decl "contrib" ((v "rank" +: i 1) *: i 10);
            decl "total" (i 0);
            allreduce ~op:Ast.Op_sum (v "contrib") ~into:(Ast.Lvar "total");
            (* with 4 procs: 10+20+30+40 = 100 *)
            assert_ (v "total" =: i 100) "reduced total";
            if_ (v "rank" =: i 0)
              [ assert_ (v "size" =: i 4) "size seen by root" ]
              [];
          ];
      ]
  in
  let r = run_spmd ~nprocs:4 p in
  all_ok "spmd allreduce" r

let test_spmd_master_worker () =
  let p =
    program
      [
        func "main" []
          [
            decl "rank" (i 0);
            decl "size" (i 0);
            comm_rank Ast.World "rank";
            comm_size Ast.World "size";
            if_
              (v "rank" =: i 0)
              ([ decl "acc" (i 0); decl "tmp" (i 0) ]
              @ for_ "src" (i 1) (v "size")
                  [
                    recv ~src:(v "src") ~tag:(i 1) ~into:(Ast.Lvar "tmp") ();
                    assign "acc" (v "acc" +: v "tmp");
                  ]
              @ [ assert_ (v "acc" =: i 6) "1+2+3" ])
              [ send ~dest:(i 0) ~tag:(i 1) (v "rank") ];
          ];
      ]
  in
  all_ok "master worker" (run_spmd ~nprocs:4 p)

let test_spmd_fault_isolated_to_one_rank () =
  (* Only rank 1 dereferences out of bounds; others complete or deadlock
     on the collective with it gone. *)
  let p =
    program
      [
        func "main" []
          [
            decl "rank" (i 0);
            comm_rank Ast.World "rank";
            decl_arr "a" (i 2);
            if_ (v "rank" =: i 1) [ aset "a" (i 5) (i 1) ] [];
          ];
      ]
  in
  let r = run_spmd ~nprocs:3 p in
  (match r.Scheduler.outcomes.(1) with
  | Error (Fault.Segfault _) -> ()
  | Error fault -> Alcotest.failf "wrong fault %s" (Fault.to_string fault)
  | Ok () -> Alcotest.fail "rank 1 should segfault");
  (match r.Scheduler.outcomes.(0) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rank 0 should finish")

let test_sched_root_is_local_rank () =
  (* MPI semantics: the root argument of a collective is a LOCAL rank.
     Split with reversed keys so local rank 0 is global rank 2, then
     gather to "root 0" and check global 2 received. *)
  let holder = ref (-1) in
  let r =
    Scheduler.run ~nprocs:3
      (ok_body (fun ~rank ~mpi ->
           match
             mpi (Mpi_iface.Split { comm = Mpi_iface.world; color = 0; key = -rank })
           with
           | Mpi_iface.Rint sub -> (
             match
               mpi (Mpi_iface.Gather { comm = sub; root = 0; data = Value.Vint rank })
             with
             | Mpi_iface.Rvalue (Value.Varr_int a) ->
               holder := rank;
               (* local order is reversed: [2; 1; 0] *)
               if Array.to_list a <> [ 2; 1; 0 ] then failwith "wrong gather order"
             | Mpi_iface.Rnone -> ()
             | _ -> failwith "bad gather")
           | _ -> failwith "bad split"))
  in
  all_ok "root local" r;
  Alcotest.(check int) "root is global 2" 2 !holder

let test_sched_tag_wildcard_recv () =
  (* recv with no tag filter takes the first arrival regardless of tag;
     the barrier guarantees both messages are queued before receiving *)
  let got = ref [] in
  let r2 =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        if rank = 1 then begin
          ignore
            (mpi (Mpi_iface.Send { comm = Mpi_iface.world; dest = 0; tag = 5; data = Value.Vint 50 }));
          ignore
            (mpi (Mpi_iface.Send { comm = Mpi_iface.world; dest = 0; tag = 9; data = Value.Vint 90 }));
          ignore (mpi (Mpi_iface.Barrier Mpi_iface.world));
          Ok ()
        end
        else begin
          ignore (mpi (Mpi_iface.Barrier Mpi_iface.world));
          got := [];
          for _ = 1 to 2 do
            match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None }) with
            | Mpi_iface.Rvalue (Value.Vint x) -> got := x :: !got
            | _ -> failwith "bad recv"
          done;
          Ok ()
        end)
  in
  all_ok "wildcard" r2;
  Alcotest.(check (list int)) "arrival order preserved" [ 90; 50 ] !got

let test_sched_reduce_on_subcomm () =
  (* reduce within each split half, root = local rank 0 *)
  let roots = Array.make 6 (-1) in
  let r =
    Scheduler.run ~nprocs:6
      (ok_body (fun ~rank ~mpi ->
           match
             mpi (Mpi_iface.Split { comm = Mpi_iface.world; color = rank / 3; key = rank })
           with
           | Mpi_iface.Rint sub -> (
             match
               mpi
                 (Mpi_iface.Reduce
                    { comm = sub; op = Mpi_iface.Rsum; root = 0; data = Value.Vint 1 })
             with
             | Mpi_iface.Rvalue (Value.Vint s) -> roots.(rank) <- s
             | Mpi_iface.Rnone -> ()
             | _ -> failwith "bad reduce")
           | _ -> failwith "bad split"))
  in
  all_ok "reduce subcomm" r;
  (* local roots are global 0 and 3; each group has 3 members *)
  Alcotest.(check int) "group A count" 3 roots.(0);
  Alcotest.(check int) "group B count" 3 roots.(3);
  Alcotest.(check int) "non-root untouched" (-1) roots.(1)

let test_sched_split_of_split () =
  (* nested splits: quarters via two halvings *)
  let sizes = Array.make 8 0 in
  let r =
    Scheduler.run ~nprocs:8
      (ok_body (fun ~rank ~mpi ->
           let sub =
             match
               mpi (Mpi_iface.Split { comm = Mpi_iface.world; color = rank / 4; key = rank })
             with
             | Mpi_iface.Rint h -> h
             | _ -> failwith "bad split"
           in
           let subrank =
             match mpi (Mpi_iface.Rank sub) with
             | Mpi_iface.Rint l -> l
             | _ -> failwith "bad rank"
           in
           match mpi (Mpi_iface.Split { comm = sub; color = subrank / 2; key = subrank }) with
           | Mpi_iface.Rint subsub -> (
             match mpi (Mpi_iface.Size subsub) with
             | Mpi_iface.Rint s -> sizes.(rank) <- s
             | _ -> failwith "bad size")
           | _ -> failwith "bad second split"))
  in
  all_ok "split of split" r;
  Array.iter (fun s -> Alcotest.(check int) "quarter size" 2 s) sizes

let prop_split_partitions =
  (* split partitions the parent: every member lands in exactly one new
     comm, groups have matching colors, key order respected *)
  QCheck.Test.make ~name:"rankmap: split partitions members" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 10 in
          let* colors = list_repeat n (int_range (-1) 3) in
          let* keys = list_repeat n (int_range (-5) 5) in
          return (n, colors, keys)))
    (fun (n, colors, keys) ->
      let t = Rankmap.create ~nprocs:n in
      let decisions = List.init n (fun g -> (g, List.nth colors g, List.nth keys g)) in
      let handles = Rankmap.split t ~parent:Mpi_iface.world decisions in
      List.for_all
        (fun (g, color, _) ->
          let h = List.assoc g handles in
          if color < 0 then h = -1
          else
            match Rankmap.members t ~comm:h with
            | None -> false
            | Some ms ->
              (* contains g exactly once, same-color members only *)
              Array.to_list ms |> List.filter (( = ) g) |> List.length = 1
              && Array.for_all (fun g' -> List.nth colors g' = color) ms
              &&
              (* keys non-decreasing along the row *)
              let ks = Array.map (fun g' -> List.nth keys g') ms in
              Array.for_all (fun ok -> ok)
                (Array.mapi (fun k _ -> k = 0 || ks.(k - 1) <= ks.(k)) ks))
        decisions)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_ring_events () =
  let n = 4 in
  let tracer = Trace.create () in
  let r =
    Scheduler.run ~on_event:(Trace.collector tracer) ~nprocs:n
      (ok_body (fun ~rank ~mpi ->
           ignore
             (mpi
                (Mpi_iface.Send
                   { comm = Mpi_iface.world; dest = (rank + 1) mod n; tag = 7;
                     data = Value.Vint rank }));
           match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = Some 7 }) with
           | _ -> ()))
  in
  all_ok "ring" r;
  let summary = Trace.summary tracer in
  Alcotest.(check (option int)) "n sends" (Some n) (List.assoc_opt "send" summary);
  Alcotest.(check (option int)) "n matches" (Some n) (List.assoc_opt "recv" summary);
  Alcotest.(check (option int)) "n finishes" (Some n) (List.assoc_opt "finished" summary);
  Alcotest.(check bool) "timeline renders" true (String.length (Trace.timeline tracer) > 0)

let test_trace_deadlock_event () =
  let tracer = Trace.create () in
  let _ =
    Scheduler.run ~on_event:(Trace.collector tracer) ~nprocs:2 (fun ~rank:_ ~mpi ->
        match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = None; tag = None }) with
        | _ -> Ok ())
  in
  Alcotest.(check bool) "deadlock event" true
    (List.exists
       (function Trace.Deadlock { ranks } -> ranks = [ 0; 1 ] || ranks = [ 1; 0 ] | _ -> false)
       (Trace.events tracer))

let test_recv_invalid_source_resumes_once () =
  (* rank 0's receive names a source outside the communicator: it must
     fault once and leave the scheduler, rather than also blocking and
     being crashed a second time at deadlock detection *)
  let r =
    Scheduler.run ~nprocs:2 (fun ~rank ~mpi ->
        let src = if rank = 0 then 5 else 0 in
        match mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some src; tag = None }) with
        | _ -> Ok ())
  in
  (match r.Scheduler.outcomes.(0) with
  | Error (Fault.Mpi_error { message; _ }) ->
    Alcotest.(check string) "rank 0 fault" "recv from invalid rank 5 (size 2)" message
  | Error f -> Alcotest.failf "wrong fault %s" (Fault.to_string f)
  | Ok () -> Alcotest.fail "expected invalid-source fault");
  Alcotest.(check (list int)) "rank 1 deadlocked" [ 1 ] r.Scheduler.deadlocked

let test_deadlock_ascending_order () =
  (* four blocked ranks across a collective (1, 3), a wait (2) and a
     receive (4): they are listed and crashed in ascending rank order *)
  let tracer = Trace.create () in
  let sink = Buffer.create 1024 in
  let r =
    Obs.Sink.with_sink (Obs.Sink.Buffer_sink sink) (fun () ->
        Scheduler.run ~on_event:(Trace.collector tracer) ~nprocs:5 (fun ~rank ~mpi ->
            (match rank with
            | 0 -> ()
            | 1 | 3 -> ignore (mpi (Mpi_iface.Barrier Mpi_iface.world))
            | 2 -> (
              match mpi (Mpi_iface.Irecv { comm = Mpi_iface.world; src = Some 0; tag = None }) with
              | Mpi_iface.Rint h -> ignore (mpi (Mpi_iface.Wait h))
              | _ -> failwith "bad irecv")
            | _ ->
              ignore (mpi (Mpi_iface.Recv { comm = Mpi_iface.world; src = Some 1; tag = None })));
            Ok ()))
  in
  Alcotest.(check (list int)) "deadlocked" [ 1; 2; 3; 4 ] r.Scheduler.deadlocked;
  let events = Trace.events tracer in
  Alcotest.(check (list (list int))) "deadlock event lists ranks ascending" [ [ 1; 2; 3; 4 ] ]
    (List.filter_map (function Trace.Deadlock { ranks } -> Some ranks | _ -> None) events);
  Alcotest.(check (list int)) "crashed in ascending order" [ 0; 1; 2; 3; 4 ]
    (List.filter_map (function Trace.Finished { rank; _ } -> Some rank | _ -> None) events);
  let contains needle line =
    let n = String.length needle in
    let rec go i = i + n <= String.length line && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check (list bool)) "telemetry lists ranks ascending" [ true ]
    (String.split_on_char '\n' (Buffer.contents sink)
    |> List.filter (contains {|"ev":"sched_deadlock"|})
    |> List.map (contains {|"ranks":[1,2,3,4]|}))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_allreduce_sum =
  QCheck.Test.make ~name:"scheduler: allreduce sum over random vectors" ~count:50
    QCheck.(make Gen.(list_size (int_range 1 8) (int_range (-100) 100)))
    (fun xs ->
      let n = List.length xs in
      let data = Array.of_list xs in
      let expected = List.fold_left ( + ) 0 xs in
      let results = Array.make n min_int in
      let r =
        Scheduler.run ~nprocs:n
          (ok_body (fun ~rank ~mpi ->
               match
                 mpi
                   (Mpi_iface.Allreduce
                      {
                        comm = Mpi_iface.world;
                        op = Mpi_iface.Rsum;
                        data = Value.Vint data.(rank);
                      })
               with
               | Mpi_iface.Rvalue (Value.Vint s) -> results.(rank) <- s
               | _ -> failwith "bad"))
      in
      Array.for_all (function Ok () -> true | Error _ -> false) r.Scheduler.outcomes
      && Array.for_all (Int.equal expected) results)

let prop_gather_order =
  QCheck.Test.make ~name:"scheduler: gather preserves rank order" ~count:50
    QCheck.(make Gen.(int_range 1 10))
    (fun n ->
      let gathered = ref [||] in
      let r =
        Scheduler.run ~nprocs:n
          (ok_body (fun ~rank ~mpi ->
               match
                 mpi
                   (Mpi_iface.Gather
                      { comm = Mpi_iface.world; root = 0; data = Value.Vint (rank * rank) })
               with
               | Mpi_iface.Rvalue (Value.Varr_int a) when rank = 0 -> gathered := a
               | Mpi_iface.Rnone when rank <> 0 -> ()
               | _ -> failwith "bad gather"))
      in
      Array.for_all (function Ok () -> true | Error _ -> false) r.Scheduler.outcomes
      && Array.to_list !gathered = List.init n (fun k -> k * k))

let unit_tests =
  [
    ("rankmap world", `Quick, test_rankmap_world);
    ("rankmap split", `Quick, test_rankmap_split);
    ("rankmap undefined color", `Quick, test_rankmap_split_undefined_color);
    ("rankmap mapping table", `Quick, test_rankmap_mapping_table);
    ("reduce ops", `Quick, test_reduce_ops);
    ("reduce arrays", `Quick, test_reduce_arrays_elementwise);
    ("reduce mismatch", `Quick, test_reduce_mismatch);
    ("gather/scatter/alltoall", `Quick, test_gather_scatter_alltoall);
    ("sched rank/size", `Quick, test_sched_rank_size);
    ("sched ring", `Quick, test_sched_ring);
    ("sched recv by source", `Quick, test_sched_recv_by_source);
    ("sched allreduce", `Quick, test_sched_allreduce);
    ("sched bcast+reduce", `Quick, test_sched_bcast_and_reduce_root);
    ("sched split", `Quick, test_sched_split_then_collective);
    ("sched deadlock", `Quick, test_sched_deadlock_detected);
    ("sched partial deadlock", `Quick, test_sched_partial_deadlock);
    ("sched collective mismatch", `Quick, test_sched_collective_mismatch);
    ("sched platform limit", `Quick, test_sched_platform_limit);
    ("sched invalid dest", `Quick, test_sched_send_invalid_rank);
    ("root is local rank", `Quick, test_sched_root_is_local_rank);
    ("tag wildcard recv", `Quick, test_sched_tag_wildcard_recv);
    ("reduce on subcomm", `Quick, test_sched_reduce_on_subcomm);
    ("split of split", `Quick, test_sched_split_of_split);
    ("nb exchange", `Quick, test_nb_basic_exchange);
    ("nb wait before send", `Quick, test_nb_wait_before_send);
    ("nb mailbox then irecv", `Quick, test_nb_message_already_in_mailbox);
    ("nb posted order", `Quick, test_nb_posted_order);
    ("nb unmatched wait deadlocks", `Quick, test_nb_unmatched_wait_deadlocks);
    ("nb wait unknown handle", `Quick, test_nb_wait_unknown_handle);
    ("nb wait bad handles", `Quick, test_nb_wait_bad_handles);
    ("nb 300 outstanding", `Quick, test_nb_many_outstanding);
    ("nb long-lived handle", `Quick, test_nb_long_lived_handle);
    ("nb earliest posted", `Quick, test_nb_earliest_posted);
    ("collective replies not aliased", `Quick, test_collective_replies_not_aliased);
    ("trace ring events", `Quick, test_trace_ring_events);
    ("trace deadlock event", `Quick, test_trace_deadlock_event);
    ("spmd allreduce", `Quick, test_spmd_pi_style_reduction);
    ("spmd master/worker", `Quick, test_spmd_master_worker);
    ("spmd isolated fault", `Quick, test_spmd_fault_isolated_to_one_rank);
    ("recv invalid source resumes once", `Quick, test_recv_invalid_source_resumes_once);
    ("deadlock ascending order", `Quick, test_deadlock_ascending_order);
  ]

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_allreduce_sum; prop_gather_order; prop_split_partitions ]

let suite = [ ("mpisim:unit", unit_tests); ("mpisim:property", property_tests) ]
