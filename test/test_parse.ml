(* Tests for the Mini-C surface parser, including the strongest check we
   have: every catalogue target pretty-prints to text that parses back
   into a program with the same branch structure and the same runtime
   behaviour. *)

open Minic

let parse_ok src =
  match Parse.program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" (Format.asprintf "%a" Parse.pp_error e)

let expr_ok src =
  match Parse.expr src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse error: %s" (Format.asprintf "%a" Parse.pp_error e)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let eval_int e =
  (* closed integer expressions only *)
  let rec go (e : Ast.expr) =
    match e with
    | Ast.Int n -> n
    | Ast.Unop (Ast.Neg, e1) -> -go e1
    | Ast.Unop (Ast.Lognot, e1) -> if go e1 = 0 then 1 else 0
    | Ast.Binop (op, a, b) -> (
      let x = go a and y = go b in
      match op with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div -> x / y
      | Ast.Mod -> x mod y
      | Ast.Eq -> if x = y then 1 else 0
      | Ast.Ne -> if x <> y then 1 else 0
      | Ast.Lt -> if x < y then 1 else 0
      | Ast.Le -> if x <= y then 1 else 0
      | Ast.Gt -> if x > y then 1 else 0
      | Ast.Ge -> if x >= y then 1 else 0
      | Ast.Logand -> if x <> 0 && y <> 0 then 1 else 0
      | Ast.Logor -> if x <> 0 || y <> 0 then 1 else 0
      | Ast.Bitand -> x land y
      | Ast.Bitor -> x lor y
      | Ast.Bitxor -> x lxor y
      | Ast.Shl -> x lsl y
      | Ast.Shr -> x asr y)
    | Ast.Float _ | Ast.Var _ | Ast.Idx _ | Ast.Len _ -> Alcotest.fail "not closed"
  in
  go e

let test_expr_precedence () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check int) src expected (eval_int (expr_ok src)))
    [
      ("1 + 2 * 3", 7);
      ("(1 + 2) * 3", 9);
      ("10 - 4 - 3", 3);  (* left associative *)
      ("7 % 4 + 1", 4);
      ("1 < 2 && 3 < 2", 0);
      ("1 < 2 || 3 < 2", 1);
      ("6 & 3", 2);
      ("6 ^ 3", 5);
      ("1 << 4", 16);
      ("-8 >> 1", -4);
      ("!(3 < 1)", 1);
      ("-(2 + 3)", -5);
      ("2 < 3 == 1", 1);
    ]

let test_expr_errors () =
  List.iter
    (fun src ->
      match Parse.expr src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %S" src)
    [ "1 +"; "(1"; "a["; "*3"; "1 2" ]

(* ------------------------------------------------------------------ *)
(* Statements and programs                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_simple_program () =
  let p =
    parse_ok
      {|
      int helper(int a) {
        if (a > 10) { return a - 10; }
        return a;
      }
      int main() {
        COMPI_int_with_limit(&n, 100);
        int x = 0;
        x = helper(n);
        int *buf = malloc(x + 1);
        buf[0] = 42;
        while (x > 0) { x = x - 1; }
        for (int k = 0; k < 3; k++) { buf[0] = buf[0] + k; }
        sanity(n >= 0);
        assert(buf[0] >= 42);
      }
      |}
  in
  Alcotest.(check (list string)) "validates" [] (Check.check p);
  let info = Branchinfo.instrument p in
  (* helper: 1 if; main: while + for-while + sanity-if = 3
     (Assert is a runtime check, not a branch) *)
  Alcotest.(check int) "conditionals" 4 info.Branchinfo.total_conditionals;
  let inputs = Ast.inputs_of_program p in
  (match inputs with
  | [ d ] ->
    Alcotest.(check string) "input name" "n" d.Ast.iname;
    Alcotest.(check (option int)) "cap" (Some 100) d.Ast.cap
  | _ -> Alcotest.fail "expected one input");
  (* runs cleanly *)
  match Interp.run (Interp.plain_hooks ()) info.Branchinfo.program with
  | Ok () -> ()
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

let test_parse_mpi_program () =
  let p =
    parse_ok
      {|
      int main() {
        int rank = 0;
        int size = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        MPI_Comm_size(MPI_COMM_WORLD, &size);
        int sub = 0;
        MPI_Comm_split(MPI_COMM_WORLD, rank % 2, rank, &sub);
        int total = 0;
        MPI_Allreduce(rank, &total, MPI_SUM, MPI_COMM_WORLD);
        if (rank == 0) {
          MPI_Send(total, 1, 7, MPI_COMM_WORLD);
        } else {
          if (rank == 1) {
            int got = 0;
            MPI_Recv(&got, 0, 7, MPI_COMM_WORLD);
            assert(got == total);
          }
        }
        MPI_Barrier(MPI_COMM_WORLD);
      }
      |}
  in
  Alcotest.(check (list string)) "validates" [] (Check.check p);
  let info = Branchinfo.instrument p in
  let r =
    Mpisim.Scheduler.run ~nprocs:4 (fun ~rank:_ ~mpi ->
        Interp.run (Interp.plain_hooks ~mpi ()) info.Branchinfo.program)
  in
  Array.iter
    (fun outcome ->
      match outcome with
      | Ok () -> ()
      | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f))
    r.Mpisim.Scheduler.outcomes

let test_parse_nonblocking () =
  let p =
    parse_ok
      {|
      int main() {
        int rank = 0;
        MPI_Comm_rank(MPI_COMM_WORLD, &rank);
        int buf = 0;
        int rq = 0;
        int sq = 0;
        if (rank < 2) {
          MPI_Irecv(1 - rank, MPI_ANY, MPI_COMM_WORLD, &rq);
          MPI_Isend(rank + 40, 1 - rank, 3, MPI_COMM_WORLD, &sq);
          MPI_Wait(&rq -> &buf);
          MPI_Wait(&sq);
          assert(buf == 41 - rank);
        }
      }
      |}
  in
  let info = Branchinfo.instrument (Check.check_exn p) in
  let r =
    Mpisim.Scheduler.run ~nprocs:2 (fun ~rank:_ ~mpi ->
        Interp.run (Interp.plain_hooks ~mpi ()) info.Branchinfo.program)
  in
  Array.iter
    (fun outcome ->
      match outcome with
      | Ok () -> ()
      | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f))
    r.Mpisim.Scheduler.outcomes

let test_parse_rejects_garbage () =
  List.iter
    (fun src ->
      match Parse.program src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject %S" src)
    [
      "int main( {}";
      "int main() { int x = ; }";
      "int main() { if (1) }";
      "int main() { MPI_Reduce(1, &x, MPI_BOGUS, 0, MPI_COMM_WORLD); }";
      "int main() { x = 1 }";
      "no_type main() {}";
    ]

let test_parse_error_has_line () =
  match Parse.program "int main() {\n  int x = ;\n}" with
  | Error e -> Alcotest.(check int) "line 2" 2 e.Parse.line
  | Ok _ -> Alcotest.fail "should fail"

(* ------------------------------------------------------------------ *)
(* Round trip: pretty -> parse preserves structure and behaviour        *)
(* ------------------------------------------------------------------ *)

let census (p : Ast.program) =
  List.map
    (fun (fn : Ast.func) -> (fn.Ast.fname, Ast.conditionals_in_func fn))
    p.Ast.funcs

let fixed_inputs (p : Ast.program) =
  List.map (fun (d : Ast.input_decl) -> (d.Ast.iname, max 1 (abs d.Ast.default))) (Ast.inputs_of_program p)

let behaviour info ~inputs ~nprocs =
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs;
      inputs;
      step_limit = 20_000_000;
    }
  in
  match Compi.Runner.run config with
  | Ok res ->
    ( List.sort compare (Concolic.Coverage.branch_list res.Compi.Runner.coverage),
      Array.to_list res.Compi.Runner.outcomes
      |> List.map (function Ok () -> "ok" | Error f -> Fault.kind_name f) )
  | Error (`Platform_limit _) -> Alcotest.fail "platform limit"

let test_roundtrip_all_targets () =
  List.iter
    (fun (t : Targets.Registry.t) ->
      let original = t.Targets.Registry.program in
      let reparsed = parse_ok (Pretty.program_to_string original) in
      Alcotest.(check (list (pair string int)))
        (t.Targets.Registry.name ^ ": conditional census")
        (census original) (census reparsed);
      Alcotest.(check (list string))
        (t.Targets.Registry.name ^ ": reparsed validates")
        [] (Check.check reparsed))
    (Targets.Catalog.all ())

let test_roundtrip_behaviour () =
  (* concrete behaviour identical on a fixed run for the MPI targets *)
  List.iter
    (fun name ->
      let t = Targets.Catalog.find_exn name in
      let original = t.Targets.Registry.program in
      let reparsed = parse_ok (Pretty.program_to_string original) in
      let inputs = fixed_inputs original in
      let a = behaviour (Branchinfo.instrument original) ~inputs ~nprocs:4 in
      let b = behaviour (Branchinfo.instrument reparsed) ~inputs ~nprocs:4 in
      Alcotest.(check (pair (list int) (list string)))
        (name ^ ": identical behaviour")
        a b)
    [ "toy-fig2"; "heat2d"; "imb-mpi1" ]

(* ------------------------------------------------------------------ *)
(* The .mc corpus shipped under examples/programs                       *)
(* ------------------------------------------------------------------ *)

let corpus_dir =
  (* dune runs tests from the build sandbox; walk up to the source root *)
  let rec find dir =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  find (Sys.getcwd ())

let campaign_on src ~iterations =
  let program = parse_ok src in
  let info = Branchinfo.instrument (Check.check_exn program) in
  let settings =
    {
      Compi.Driver.default_settings with
      Compi.Driver.iterations;
      dfs_phase_iters = 20;
      initial_nprocs = 4;
      seed = 9;
    }
  in
  let settings = { Compi.Campaign.default_settings with Compi.Campaign.base = settings } in
  (Compi.Campaign.run ~settings info).Compi.Campaign.summary

let test_corpus () =
  match corpus_dir with
  | None -> Alcotest.skip ()
  | Some dir ->
    let read name = In_channel.with_open_text (Filename.concat dir name) In_channel.input_all in
    (* token_ring: out-of-bounds owner table *)
    let tr = campaign_on (read "token_ring.mc") ~iterations:300 in
    Alcotest.(check bool) "token_ring: segfault found" true
      (List.exists
         (fun (b : Compi.Driver.bug) ->
           match b.Compi.Driver.bug_fault with Fault.Segfault _ -> true | _ -> false)
         tr.Compi.Driver.bugs);
    (* pi_reduce: conservation assertion *)
    let pi = campaign_on (read "pi_reduce.mc") ~iterations:200 in
    Alcotest.(check bool) "pi_reduce: assertion found" true
      (List.exists
         (fun (b : Compi.Driver.bug) ->
           match b.Compi.Driver.bug_fault with Fault.Assert_fail _ -> true | _ -> false)
         pi.Compi.Driver.bugs);
    (* prefix_sum: stride bug deadlocks *)
    let ps = campaign_on (read "prefix_sum.mc") ~iterations:200 in
    Alcotest.(check bool) "prefix_sum: deadlock found" true
      (List.exists
         (fun (b : Compi.Driver.bug) ->
           match b.Compi.Driver.bug_fault with Fault.Mpi_error _ -> true | _ -> false)
         ps.Compi.Driver.bugs);
    (* halo_average: clean *)
    let ha = campaign_on (read "halo_average.mc") ~iterations:200 in
    Alcotest.(check int) "halo_average: no defects" 0
      (List.length (Compi.Driver.distinct_bugs ha));
    (* oddeven_sort: wrong-direction comparator violates sortedness *)
    let oe = campaign_on (read "oddeven_sort.mc") ~iterations:200 in
    Alcotest.(check bool) "oddeven_sort: assertion found" true
      (List.exists
         (fun (b : Compi.Driver.bug) ->
           match b.Compi.Driver.bug_fault with Fault.Assert_fail _ -> true | _ -> false)
         oe.Compi.Driver.bugs)

let unit_tests =
  [
    ("expr precedence", `Quick, test_expr_precedence);
    ("expr errors", `Quick, test_expr_errors);
    ("simple program", `Quick, test_parse_simple_program);
    ("mpi program", `Quick, test_parse_mpi_program);
    ("nonblocking program", `Quick, test_parse_nonblocking);
    ("rejects garbage", `Quick, test_parse_rejects_garbage);
    ("error carries line", `Quick, test_parse_error_has_line);
    ("roundtrip all targets", `Quick, test_roundtrip_all_targets);
    ("roundtrip behaviour", `Quick, test_roundtrip_behaviour);
    ("mc corpus", `Quick, test_corpus);
  ]

let suite = [ ("parse:unit", unit_tests) ]
