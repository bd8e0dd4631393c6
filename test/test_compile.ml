(* Differential tests for the closure-compiled executor (Minic.Compile):
   it must be observationally identical to the tree-walking interpreter
   on every program — same verdict, same hook event stream (inputs,
   branches with their symbolic constraints, function entries), in both
   heavy and light modes — and identical through the full Runner stack
   (coverage, path logs, MPI traces) and a live parallel campaign. *)

open Minic
open Builder

let instrument p = Branchinfo.instrument (Check.check_exn p)

(* Every observable an executor produces through the hook surface,
   rendered to strings so Alcotest diffs read well. The first element
   is the verdict; the rest is the chronological event stream. *)
let observe ?step_limit ?log exec mode (info : Branchinfo.t) ~inputs =
  let gen = Smt.Varid.make_gen () in
  let trace = ref [] in
  let push s = trace := s :: !trace in
  let hooks = Interp.plain_hooks ?step_limit () in
  let hooks =
    {
      hooks with
      Interp.mode;
      input_value =
        (fun d ->
          match List.assoc_opt d.Ast.iname inputs with
          | Some value -> value
          | None -> d.Ast.default);
      on_input =
        (fun d concrete ->
          push (Printf.sprintf "input %s=%d" d.Ast.iname concrete);
          if mode = Interp.Heavy then Some (Smt.Linexp.var (Smt.Varid.fresh gen))
          else None);
      on_branch =
        (fun ~id ~taken ~constr ->
          Option.iter (fun log -> Concolic.Pathlog.record log ~cond_id:id ~taken ~constr) log;
          push
            (Printf.sprintf "branch %d %c %s" id
               (if taken then 'T' else 'F')
               (match constr with
               | None -> "concrete"
               | Some c -> Format.asprintf "%a" Smt.Constr.pp c)));
      keeps =
        (match log with
        | Some log -> fun ~id ~taken -> Concolic.Pathlog.keeps log ~cond_id:id ~taken
        | None -> hooks.Interp.keeps);
      on_func_enter = (fun fn -> push ("enter " ^ fn));
    }
  in
  let verdict =
    match exec hooks info.Branchinfo.program with
    | Ok () -> "ok"
    | Error f -> Fault.to_string f
  in
  verdict :: List.rev !trace

let interp_exec hooks program = Interp.run hooks program
let compiled_exec cp hooks _program = Compile.run cp hooks

let mode_name = function Interp.Heavy -> "heavy" | Interp.Light -> "light"

let differential ?step_limit ?(inputs = []) ?(check = true) name p =
  let info = if check then instrument p else Branchinfo.instrument p in
  let cp = Compile.compile info.Branchinfo.program in
  List.iter
    (fun mode ->
      let want = observe ?step_limit interp_exec mode info ~inputs in
      let got = observe ?step_limit (compiled_exec cp) mode info ~inputs in
      Alcotest.(check (list string))
        (Printf.sprintf "%s (%s)" name (mode_name mode))
        want got)
    [ Interp.Heavy; Interp.Light ]

(* Both executors in heavy mode under the same reducing [keeps]: each
   gets a fresh reducing path log that its branches are recorded into,
   so a constraint the log would drop is reported as concrete. Returns
   the shared stream. *)
let differential_reducing ?(inputs = []) name p =
  let info = instrument p in
  let cp = Compile.compile info.Branchinfo.program in
  let reduced exec =
    let log = Concolic.Pathlog.create ~reduce:true in
    let stream = observe ~log exec Interp.Heavy info ~inputs in
    Concolic.Pathlog.release log;
    stream
  in
  let want = reduced interp_exec in
  Alcotest.(check (list string)) (name ^ " (heavy, reducing keeps)") want
    (reduced (compiled_exec cp));
  want

let symbolic_branches stream =
  List.length
    (List.filter
       (fun line ->
         String.starts_with ~prefix:"branch " line
         && not (String.ends_with ~suffix:" concrete" line))
       stream)

(* ------------------------------------------------------------------ *)
(* Hand-picked programs covering the tricky equivalence corners        *)
(* ------------------------------------------------------------------ *)

let test_arith_and_branches () =
  differential ~inputs:[ ("n", 7) ] "arith"
    (program
       [
         func "main" []
           [
             input "n" ~default:3;
             decl "x" ((v "n" *: i 2) +: i 1);
             if_ (v "x" >: i 10) [ assign "x" (v "x" -: v "n") ] [ assign "x" (i 0) ];
             decl "q" (v "x" /: i 2);
             decl "r" (v "x" %: i 3);
             if_ (v "q" =: v "r") [] [ assign "x" (v "q" +: v "r") ];
           ];
       ])

let test_fault_fpe () =
  differential ~inputs:[ ("n", 0) ] "fpe"
    (program
       [ func "main" [] [ input "n" ~default:0; decl "x" (i 1 /: v "n") ] ])

let test_fault_segv () =
  differential ~inputs:[ ("n", 9) ] "segv"
    (program
       [
         func "main" []
           [
             input "n" ~default:9;
             decl_arr "a" (i 4);
             aset "a" (v "n") (i 1);
           ];
       ])

let test_fault_assert_and_exit () =
  differential ~inputs:[ ("n", 1) ] "assert"
    (program
       [ func "main" [] [ input "n" ~default:1; assert_ (v "n" =: i 0) "boom" ] ]);
  differential "exit"
    (program
       [ func "main" [] [ decl "x" (i 1); exit_ (i 0); assign "x" (i 2) ] ])

let test_arrays_and_len () =
  differential ~inputs:[ ("n", 2) ] "arrays"
    (program
       [
         func "fill" [ ("a", Ast.Tint); ("k", Ast.Tint) ]
           [ aset "a" (v "k") (v "k" *: i 10) ];
         func "main" []
           [
             input "n" ~default:2;
             decl_arr "a" (i 5);
             call "fill" [ v "a"; v "n" ];
             decl "x" (idx "a" (v "n"));
             decl "l" (len "a");
             if_ (v "x" =: v "n" *: i 10) [] [ assert_ (i 0) "by ref" ];
             if_ (v "l" =: i 5) [] [ assert_ (i 0) "len" ];
           ];
       ])

let test_recursion_and_shadow_through_call () =
  differential ~inputs:[ ("n", 5) ] "recursion"
    (program
       [
         func "fact" [ ("n", Ast.Tint) ]
           [
             if_ (v "n" <=: i 1) [ ret (i 1) ] [];
             decl "r" (i 0);
             call_assign "r" "fact" [ v "n" -: i 1 ];
             ret (v "n" *: v "r");
           ];
         func "id" [ ("x", Ast.Tint) ] [ ret (v "x") ];
         func "main" []
           [
             input "n" ~default:5;
             decl "r" (i 0);
             call_assign "r" "fact" [ i 6 ];
             decl "y" (i 0);
             call_assign "y" "id" [ v "n" +: i 1 ];
             (* shadow must flow through id: this branch is symbolic *)
             if_ (v "y" >: i 3) [] [];
             if_ (v "r" =: i 720) [] [ assert_ (i 0) "6!" ];
           ];
       ])

let test_floats_and_bitwise () =
  differential "floats"
    (program
       [
         func "main" []
           [
             declf "x" (f 1.5 +: f 2.5);
             declf "y" (v "x" /: f 0.0);
             if_ (v "y" >: f 1000.0) [] [];
             decl "a" (i 6);
             decl "b"
               (Ast.Binop
                  ( Ast.Bitor,
                    Ast.Binop (Ast.Bitand, v "a", i 3),
                    Ast.Binop
                      ( Ast.Add,
                        Ast.Binop (Ast.Bitxor, v "a", i 1),
                        Ast.Binop (Ast.Shl, v "a", i 2) ) ));
             decl "c" (Ast.Binop (Ast.Shr, v "b", i 1));
             if_ (v "c" >=: i 0) [] [];
           ];
       ])

let test_while_and_nonlinear () =
  differential ~inputs:[ ("n", 4) ] "while"
    (program
       [
         func "main" []
           [
             input "n" ~default:4;
             decl "x" (v "n");
             while_ (v "x" >: i 0) [ assign "x" (v "x" -: i 1) ];
             (* nonlinear: shadow concretizes, branch goes concrete *)
             decl "sq" (v "n" *: v "n");
             if_ (v "sq" >: i 10) [] [];
             if_ (lognot (v "x")) [] [];
           ];
       ])

(* The heavy executor carries a constant shadow as a bare constructor,
   but it must keep the interpreter's distinction from no shadow at all:
   a product whose left operand has a shadow (even a constant one, from
   concrete arithmetic) scales it by the right operand's value and goes
   concrete, while a literal or loaded left operand scales the symbolic
   right side. *)
let test_constant_shadow_product () =
  let p =
    program
      [
        func "main" []
          [
            input "n" ~default:3;
            decl "a" (i 1);
            decl "c" (v "a" +: i 1);
            if_ ((v "c" *: v "n") =: i 6) [] [];
            if_ ((i 2 *: v "n") =: i 6) [] [];
            if_ ((neg (v "c") *: v "n") <: i 0) [] [];
            if_ (((v "n" -: v "n") *: v "n") =: i 0) [] [];
            if_ ((v "n" *: v "c") >: i 1) [] [];
            if_ ((v "a" -: v "n") <: i 0) [] [];
          ];
      ]
  in
  differential ~inputs:[ ("n", 3) ] "constant shadow product" p;
  let info = instrument p in
  let branches =
    List.filter
      (fun s -> String.length s > 7 && String.sub s 0 7 = "branch ")
      (observe interp_exec Interp.Heavy info ~inputs:[ ("n", 3) ])
  in
  Alcotest.(check (list bool))
    "symbolic branches (interpreter)"
    [ false; true; false; false; true; true ]
    (List.map
       (fun s -> not (String.ends_with ~suffix:"concrete" s))
       branches)

let test_step_limit () =
  differential ~step_limit:100 "step limit"
    (program [ func "main" [] [ decl "x" (i 1); while_ (v "x") [] ] ])

(* A compiled program is immutable: two runs from the same compile must
   produce identical observations (no cross-run state leak). *)
let test_compiled_reuse () =
  let p =
    program
      [
        func "main" []
          [
            input "n" ~default:3;
            decl_arr "a" (i 4);
            aset "a" (i 0) (v "n");
            if_ (idx "a" (i 0) >: i 1) [ aset "a" (i 1) (i 7) ] [];
          ];
      ]
  in
  let info = instrument p in
  let cp = Compile.compile info.Branchinfo.program in
  let run () = observe (compiled_exec cp) Interp.Heavy info ~inputs:[ ("n", 3) ] in
  Alcotest.(check (list string)) "second run identical" (run ()) (run ())

let test_compile_metadata () =
  let p =
    program
      [
        func "helper" [ ("x", Ast.Tint) ] [ ret (v "x") ];
        func "main" [] [ decl "a" (i 1); if_ (v "a") [] [] ];
      ]
  in
  let info = instrument p in
  let cp = Compile.compile info.Branchinfo.program in
  Alcotest.(check int) "funcs" 2 (Compile.funcs cp);
  Alcotest.(check int) "conds" 1 (Compile.conds cp);
  Alcotest.(check bool) "slots counted" true (Compile.slots cp >= 2);
  Alcotest.(check bool) "program kept" true
    (Compile.program cp == info.Branchinfo.program)

(* ------------------------------------------------------------------ *)
(* Fused heavy operands: every operand shape on either side            *)
(* ------------------------------------------------------------------ *)

(* Two representatives per operand shape, one with a symbolic shadow and
   one without: the input [n] and the concrete local [c], a literal of
   each sign, and code over each ([c - 1] carries a constant shadow). *)
let operand_shapes =
  [
    ("var", [ v "n"; v "c" ]);
    ("const", [ i 3; i (-2) ]);
    ("code", [ v "n" +: i 1; v "c" -: i 1 ]);
  ]

let linear_ops = [ ( +: ); ( -: ); ( *: ) ]
let relations = [ ( =: ); ( <>: ); ( <: ); ( <=: ); ( >: ); ( >=: ) ]

(* For each of the nine (left, right) shape pairs: every linear op, its
   result seen through a stored variable and straight in a condition,
   and every relation. *)
let test_fused_operand_pairs () =
  List.iter
    (fun (left_shape, lefts) ->
      List.iter
        (fun (right_shape, rights) ->
          let pair a b =
            List.concat_map
              (fun op ->
                [ assign "r" (op a b); if_ (v "r" >: i 0) [] []; if_ (op a b <=: i 4) [] [] ])
              linear_ops
            @ List.map (fun rel -> if_ (rel a b) [] []) relations
          in
          let body =
            List.concat_map (fun a -> List.concat_map (fun b -> pair a b) rights) lefts
          in
          let p =
            program
              [
                func "main" []
                  ([ input "n" ~default:3; decl "c" (i 2); decl "r" (i 0) ] @ body);
              ]
          in
          List.iter
            (fun n ->
              differential ~inputs:[ ("n", n) ]
                (Printf.sprintf "%s op %s, n=%d" left_shape right_shape n)
                p)
            [ 3; 0; -2 ])
        operand_shapes)
    operand_shapes

(* [differential] on an unchecked program that must end in [fault]. *)
let faulting_differential ~fault name p =
  differential ~check:false ~inputs:[ ("n", 3) ] name p;
  Alcotest.(check string) (name ^ ": fault") fault
    (List.hd (observe interp_exec Interp.Heavy (Branchinfo.instrument p) ~inputs:[ ("n", 3) ]))

(* An unbound variable on either side of a fused heavy node faults with
   its own name, and a left operand that faults first wins. *)
let test_fused_undefined_operand () =
  let undefined = "type error in main: undefined variable u" in
  List.iter
    (fun (name, stmt, fault) ->
      faulting_differential ~fault ("undefined: " ^ name)
        (program
           [
             func "main" []
               [ input "n" ~default:3; decl "z" (i 0); decl "r" (i 0); stmt ];
           ]))
    [
      ("left +", assign "r" (v "u" +: v "n"), undefined);
      ("right +", assign "r" (v "n" +: v "u"), undefined);
      ("left * code", assign "r" (v "u" *: (v "n" +: i 1)), undefined);
      ("code - right", assign "r" ((v "n" +: i 1) -: v "u"), undefined);
      ("both sides", assign "r" (v "u" -: v "w"), undefined);
      ( "faulting left first",
        assign "r" ((i 1 /: v "z") +: v "u"),
        "floating point exception (division by zero) in main" );
      ("left <", if_ (v "u" <: v "n") [] [], undefined);
      ("right >=", if_ (i 1 >=: v "u") [] [], undefined);
      ("both sides ==", if_ (v "u" =: v "w") [] [], undefined);
    ]

(* Int/float mixes go concrete; an array on either side is a type
   error. *)
let test_fused_mixed_and_array_operands () =
  differential ~inputs:[ ("n", 3) ] "int/float mixes"
    (program
       [
         func "main" []
           [
             input "n" ~default:3;
             declf "y" (v "n" +: f 1.5);
             if_ (v "y" >: f 4.0) [] [];
             declf "p" (f 2.0 *: v "n");
             declf "q" ((v "n" -: i 1) -: v "y");
             if_ (v "n" <: f 3.5) [] [];
             if_ (f 0.5 <=: (v "n" -: i 1)) [] [];
             if_ (v "p" =: v "n" *: i 2) [] [];
             if_ (v "q" <>: f 0.0) [] [];
           ];
       ]);
  List.iter
    (fun (name, stmt) ->
      faulting_differential ~fault:"type error in main: arithmetic on array value"
        ("array operand: " ^ name)
        (program
           [
             func "main" []
               [
                 input "n" ~default:3;
                 decl_arr "a" (i 3);
                 decl_arrf "af" (i 2);
                 decl "r" (i 0);
                 stmt;
               ];
           ]))
    [
      ("left +", assign "r" (v "a" +: i 1));
      ("right -", assign "r" (v "n" -: v "a"));
      ("both *", assign "r" (v "a" *: v "a"));
      ("code + array", assign "r" ((v "n" +: i 1) +: v "af"));
      ("left <", if_ (v "a" <: i 1) [] []);
      ("right ==", if_ (v "n" =: v "af") [] []);
      ("float array >", if_ (v "af" >: f 1.0) [] []);
    ]

(* [Konst * symbolic] in every fused shape: a left operand with a
   constant shadow, variable or code, makes the product concrete; a
   literal or unshadowed variable on the left keeps it symbolic. *)
let test_fused_constant_shadow_product () =
  let p =
    program
      [
        func "main" []
          [
            input "n" ~default:3;
            decl "a" (i 1);
            decl "c" (v "a" +: i 1);
            decl "d" (i 2);
            if_ ((v "c" *: v "n") =: i 6) [] [];
            if_ ((v "d" *: v "n") =: i 6) [] [];
            if_ (((v "a" +: i 1) *: v "n") =: i 6) [] [];
            if_ ((v "c" *: (v "n" +: i 1)) =: i 8) [] [];
            if_ ((i 2 *: (v "n" +: i 1)) =: i 8) [] [];
            if_ (((v "n" +: i 1) *: v "c") =: i 8) [] [];
          ];
      ]
  in
  differential ~inputs:[ ("n", 3) ] "fused constant shadow product" p;
  let info = instrument p in
  let branches =
    List.filter
      (fun s -> String.length s > 7 && String.sub s 0 7 = "branch ")
      (observe interp_exec Interp.Heavy info ~inputs:[ ("n", 3) ])
  in
  Alcotest.(check (list bool))
    "symbolic branches (interpreter)"
    [ false; true; false; false; true; true ]
    (List.map (fun s -> not (String.ends_with ~suffix:"concrete" s)) branches)

(* ------------------------------------------------------------------ *)
(* Full Runner stack: targets and the .mc corpus under N processes     *)
(* ------------------------------------------------------------------ *)

(* Every field of one scheduler trace event. *)
let render_trace_event (ev : Mpisim.Trace.event) =
  let ints xs = String.concat "," (List.map string_of_int xs) in
  match ev with
  | Send { from_rank; to_local; comm; tag } ->
    Printf.sprintf "send %d %d %d %d" from_rank to_local comm tag
  | Recv_matched { rank; src_local; tag; comm } ->
    Printf.sprintf "recv %d %d %d %d" rank src_local tag comm
  | Matched { src; dst; comm; tag } -> Printf.sprintf "match %d %d %d %d" src dst comm tag
  | Collective { comm; signature; ranks } ->
    Printf.sprintf "collective %d %S [%s]" comm signature (ints ranks)
  | Blocked { rank; comm; kind; peer } ->
    Printf.sprintf "blocked %d %d %S %d" rank comm kind peer
  | Finished { rank; ok } -> Printf.sprintf "finished %d %b" rank ok
  | Deadlock { ranks } -> Printf.sprintf "deadlock [%s]" (ints ranks)
  | Witness { rank; comm; kind; peer } ->
    Printf.sprintf "witness %d %d %S %d" rank comm kind peer
  | Schedule_choice { rank; comm; tag; chosen; alts; point } ->
    Printf.sprintf "choice %d %d %d %d [%s] %d" rank comm tag chosen (ints alts) point

(* Everything a Runner result exposes, as strings: per-rank verdicts,
   coverage, the focus path log, deadlocks, leaks and the full MPI
   communication trace. *)
let runner_observe exec_mode (info : Branchinfo.t) ~step_limit ~nprocs =
  let tracer = Mpisim.Trace.create () in
  let config =
    {
      (Compi.Runner.default_config ~info) with
      Compi.Runner.nprocs;
      step_limit;
      compiled = Compi.Runner.prepare exec_mode info;
      on_event = Mpisim.Trace.collector tracer;
    }
  in
  match Compi.Runner.run config with
  | Error (`Platform_limit n) -> [ Printf.sprintf "platform limit %d" n ]
  | Ok r ->
    let outcome = function Ok () -> "ok" | Error f -> Fault.to_string f in
    [
      String.concat ";" (Array.to_list (Array.map outcome r.Compi.Runner.outcomes));
      String.concat ","
        (List.map string_of_int
           (Concolic.Coverage.branch_list r.Compi.Runner.coverage));
      String.concat ","
        (Array.to_list
           (Array.map
              (fun (br, c) -> Printf.sprintf "%d:%s" br (Format.asprintf "%a" Smt.Constr.pp c))
              r.Compi.Runner.execution.Concolic.Execution.constraints));
      String.concat ","
        (List.map
           (fun (c, t) -> Printf.sprintf "%d%c" c (if t then 'T' else 'F'))
           r.Compi.Runner.focus_tail);
      string_of_int r.Compi.Runner.constraint_set_size;
      String.concat "," (List.map string_of_int r.Compi.Runner.deadlocked);
      string_of_int r.Compi.Runner.leaked_messages;
      String.concat "\n" (List.map render_trace_event (Mpisim.Trace.events tracer));
    ]

let runner_differential name info ~step_limit ~nprocs =
  Alcotest.(check (list string))
    name
    (runner_observe Compi.Runner.Exec_interp info ~step_limit ~nprocs)
    (runner_observe Compi.Runner.Exec_compiled info ~step_limit ~nprocs)

let test_targets_differential () =
  List.iter
    (fun (t : Targets.Registry.t) ->
      let info = Targets.Registry.instrument t in
      runner_differential t.Targets.Registry.name info
        ~step_limit:t.Targets.Registry.tuning.Targets.Registry.step_limit ~nprocs:4)
    (Targets.Catalog.all ())

(* dune runs tests from the build sandbox; walk up to the source root *)
let corpus_dir () =
  let rec find dir =
    let candidate = Filename.concat dir "examples/programs" in
    if Sys.file_exists candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else find parent
  in
  find (Sys.getcwd ())

let example_programs () =
  match corpus_dir () with
  | None -> []
  | Some dir -> (
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".mc")
    |> List.sort String.compare
    |> List.filter_map (fun n ->
           let src =
             In_channel.with_open_text (Filename.concat dir n) In_channel.input_all
           in
           match Parse.program src with
           | Error _ -> None
           | Ok program -> (
             match Check.check program with
             | _ :: _ -> None
             | [] -> Some (n, Branchinfo.instrument (Opt.simplify_program program)))))

let test_corpus_differential () =
  let programs = example_programs () in
  Alcotest.(check bool) "corpus present" true (List.length programs >= 3);
  List.iter
    (fun (name, info) ->
      runner_differential name info ~step_limit:2_000_000 ~nprocs:4)
    programs

(* A live parallel campaign must be byte-identical across exec modes
   (and the report is already jobs-invariant, so jobs=2 covers the
   shared-compiled-program-across-domains path). *)
let campaign ?(two_way = true) ?(iterations = 40) ?(initial_nprocs = 2) exec_mode ~jobs info
    =
  let settings =
    {
      Compi.Campaign.default_settings with
      Compi.Campaign.base =
        {
          Compi.Driver.default_settings with
          Compi.Driver.iterations;
          dfs_phase_iters = 12;
          initial_nprocs;
          seed = 11;
          exec_mode;
          two_way;
        };
      jobs;
    }
  in
  Compi.Campaign.run ~settings info

let test_campaign_modes_identical () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "toy-fig1") in
  List.iter
    (fun jobs ->
      let ri = campaign Compi.Runner.Exec_interp ~jobs info in
      let rc = campaign Compi.Runner.Exec_compiled ~jobs info in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d report identical across exec modes" jobs)
        (Compi.Campaign.coverage_report ri)
        (Compi.Campaign.coverage_report rc);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d same execution count" jobs)
        ri.Compi.Campaign.executed rc.Compi.Campaign.executed)
    [ 1; 2 ]

(* One-way instrumentation runs every rank heavy, so several path logs
   are live in one run and their buffers are released together. *)
let test_one_way_campaign_modes_identical () =
  let info = Targets.Registry.instrument (Targets.Catalog.find_exn "npb-cg") in
  let run mode = campaign ~two_way:false ~iterations:30 ~initial_nprocs:4 mode ~jobs:1 info in
  Alcotest.(check string)
    "one-way report identical across exec modes"
    (Compi.Campaign.coverage_report (run Compi.Runner.Exec_interp))
    (Compi.Campaign.coverage_report (run Compi.Runner.Exec_compiled))

(* ------------------------------------------------------------------ *)
(* Property: random programs agree under both executors                *)
(* ------------------------------------------------------------------ *)

let prop_compile_matches_interp =
  QCheck.Test.make ~name:"compile: differential vs interp on random programs"
    ~count:150
    QCheck.(
      make
        Gen.(
          let* d = int_range (-10) 10 in
          let* steps =
            list_size (int_range 1 8)
              (triple (int_range 0 6) (int_range (-9) 9) (int_range (-9) 9))
          in
          return (d, steps)))
    (fun (d, steps) ->
      let step k (op, a, b) =
        match op with
        | 0 -> [ assign "x" (v "x" +: (v "n" *: i a)) ]
        | 1 -> [ assign "x" (v "x" -: i b) ]
        | 2 ->
          [
            if_ (v "x" <: i a)
              [ assign "x" (v "x" +: i 1) ]
              [ assign "x" (v "x" -: i 1) ];
          ]
        | 3 ->
          let kv = Printf.sprintf "k%d" k in
          for_ kv (i 0) (i (abs a mod 4)) [ assign "x" (v "x" +: v kv) ]
        | 4 -> [ assign "x" (v "x" /: i b) ] (* faults when b = 0 *)
        | 5 -> [ aset "arr" (v "x" %: i 5) (v "x") ] (* may segfault *)
        | _ -> [ assign "x" (v "x" *: v "x") ] (* nonlinear: concretizes *)
      in
      let stmts = List.concat (List.mapi step steps) in
      let p =
        program
          [
            func "main" []
              ([ input "n" ~default:d; decl "x" (v "n"); decl_arr "arr" (i 5) ]
              @ stmts
              @ [ if_ (v "x" >: i 0) [] [] ]);
          ]
      in
      let info = instrument p in
      let cp = Compile.compile info.Branchinfo.program in
      List.for_all
        (fun mode ->
          observe interp_exec mode info ~inputs:[ ("n", d) ]
          = observe (compiled_exec cp) mode info ~inputs:[ ("n", d) ])
        [ Interp.Heavy; Interp.Light ])

(* Loop conditions whose outcome repeats, under [!] (relational and
   [if (e)] shapes), so reduction drops most of their constraints. *)
let test_reducing_keeps () =
  let p =
    program
      [
        func "main" []
          [
            input "n" ~default:6;
            decl "x" (v "n");
            decl "y" (i 0);
            while_ (v "x" >: i 0)
              [
                assign "x" (v "x" -: i 1);
                if_ (lognot (v "x" <: i 3)) [ assign "y" (v "y" +: v "x") ] [];
                if_ (lognot (v "x" -: i 2)) [ assign "y" (v "y" -: i 1) ] [];
                if_ (lognot (lognot (v "n" >=: v "x"))) [] [];
                if_ (v "y" *: i 2) [] [];
                if_ (i 1) [] [];
              ];
            if_ (v "y" >: v "n") [] [];
          ];
      ]
  in
  let inputs = [ ("n", 6) ] in
  let reduced = differential_reducing ~inputs "reducing keeps" p in
  let info = instrument p in
  let full = observe interp_exec Interp.Heavy info ~inputs in
  Alcotest.(check int) "same branch events" (List.length full) (List.length reduced);
  Alcotest.(check bool) "reduction drops constraints" true
    (symbolic_branches reduced < symbolic_branches full && symbolic_branches reduced > 0)

(* Random loops of [!]-wrapped conditions over a symbolic input, under
   the same reducing [keeps] in both executors. *)
let prop_compile_matches_interp_reducing =
  QCheck.Test.make ~name:"compile: differential vs interp under reduction" ~count:150
    QCheck.(
      make
        Gen.(
          let* d = int_range (-6) 6 in
          let* conds =
            list_size (int_range 1 5)
              (triple (int_range 0 3) (int_range (-4) 4) bool)
          in
          return (d, conds)))
    (fun (d, conds) ->
      let cond (shape, a, negated) =
        let e =
          match shape with
          | 0 -> v "x" +: v "n" <: i a
          | 1 -> v "x" +: (v "n" *: i a)
          | 2 -> v "n" -: v "x" >=: i a
          | _ -> v "x" %: i 3
        in
        if_ (if negated then lognot e else e) [ assign "y" (v "y" +: i 1) ] []
      in
      let p =
        program
          [
            func "main" []
              ([ input "n" ~default:d; decl "y" (i 0) ]
              @ for_ "x" (i (-3)) (i 4) (List.map cond conds));
          ]
      in
      ignore (differential_reducing ~inputs:[ ("n", d) ] "random reducing" p);
      true)

let unit_tests =
  [
    ("arith and branches", `Quick, test_arith_and_branches);
    ("fpe fault", `Quick, test_fault_fpe);
    ("segfault", `Quick, test_fault_segv);
    ("assert and exit", `Quick, test_fault_assert_and_exit);
    ("arrays by reference and len", `Quick, test_arrays_and_len);
    ("recursion and shadow through call", `Quick, test_recursion_and_shadow_through_call);
    ("floats and bitwise", `Quick, test_floats_and_bitwise);
    ("while and nonlinear", `Quick, test_while_and_nonlinear);
    ("constant shadow product", `Quick, test_constant_shadow_product);
    ("step limit", `Quick, test_step_limit);
    ("compiled reuse", `Quick, test_compiled_reuse);
    ("compile metadata", `Quick, test_compile_metadata);
    ("all targets under runner", `Quick, test_targets_differential);
    ("mc corpus under runner", `Quick, test_corpus_differential);
    ("campaign identical across modes", `Quick, test_campaign_modes_identical);
    ("fused operand pairs", `Quick, test_fused_operand_pairs);
    ("fused undefined operand", `Quick, test_fused_undefined_operand);
    ("fused mixed and array operands", `Quick, test_fused_mixed_and_array_operands);
    ("fused constant shadow product", `Quick, test_fused_constant_shadow_product);
    ("one-way campaign identical across modes", `Quick,
      test_one_way_campaign_modes_identical);
    ("reducing keeps", `Quick, test_reducing_keeps);
  ]

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compile_matches_interp; prop_compile_matches_interp_reducing ]

let suite = [ ("compile:unit", unit_tests); ("compile:property", property_tests) ]
