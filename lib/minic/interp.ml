type mode = Heavy | Light

type sem_kind =
  | Rank_world
  | Rank_comm of Mpi_iface.comm
  | Size_world
  | Size_comm of Mpi_iface.comm

type hooks = {
  mode : mode;
  input_value : Ast.input_decl -> int;
  on_input : Ast.input_decl -> int -> Smt.Linexp.t option;
  on_mpi_sem : sem_kind -> int -> Smt.Linexp.t option;
  on_branch : id:int -> taken:bool -> constr:Smt.Constr.t option -> unit;
  keeps : id:int -> taken:bool -> bool;
  on_func_enter : string -> unit;
  mpi : Mpi_iface.handler;
  step_limit : int;
}

let null_mpi : Mpi_iface.handler = function
  | Mpi_iface.Rank _ -> Mpi_iface.Rint 0
  | Mpi_iface.Size _ -> Mpi_iface.Rint 1
  | Mpi_iface.Split _ -> Mpi_iface.Rint 1
  | Mpi_iface.Barrier _ -> Mpi_iface.Runit
  | Mpi_iface.Send _ | Mpi_iface.Recv _ | Mpi_iface.Isend _ | Mpi_iface.Irecv _
  | Mpi_iface.Wait _ ->
    raise
      (Fault.Fault
         (Fault.Mpi_error
            { message = "point-to-point not available on 1 process"; func = "<mpi>" }))
  | Mpi_iface.Bcast { data = Some v; _ } -> Mpi_iface.Rvalue v
  | Mpi_iface.Bcast { data = None; _ } ->
    raise
      (Fault.Fault
         (Fault.Mpi_error { message = "bcast without root data"; func = "<mpi>" }))
  | Mpi_iface.Reduce { data; _ } -> Mpi_iface.Rvalue data
  | Mpi_iface.Allreduce { data; _ } -> Mpi_iface.Rvalue data
  | Mpi_iface.Gather { data = Value.Vint n; _ } -> Mpi_iface.Rvalue (Value.Varr_int [| n |])
  | Mpi_iface.Gather { data = Value.Vfloat x; _ } ->
    Mpi_iface.Rvalue (Value.Varr_float [| x |])
  | Mpi_iface.Gather _ ->
    raise (Fault.Fault (Fault.Mpi_error { message = "gather of array"; func = "<mpi>" }))
  | Mpi_iface.Scatter { data = Some (Value.Varr_int a); _ } when Array.length a >= 1 ->
    Mpi_iface.Rvalue (Value.Vint a.(0))
  | Mpi_iface.Scatter { data = Some (Value.Varr_float a); _ } when Array.length a >= 1 ->
    Mpi_iface.Rvalue (Value.Vfloat a.(0))
  | Mpi_iface.Scatter _ ->
    raise (Fault.Fault (Fault.Mpi_error { message = "bad scatter"; func = "<mpi>" }))
  | Mpi_iface.Allgather { data = Value.Vint n; _ } ->
    Mpi_iface.Rvalue (Value.Varr_int [| n |])
  | Mpi_iface.Allgather { data = Value.Vfloat x; _ } ->
    Mpi_iface.Rvalue (Value.Varr_float [| x |])
  | Mpi_iface.Allgather _ ->
    raise (Fault.Fault (Fault.Mpi_error { message = "allgather of array"; func = "<mpi>" }))
  | Mpi_iface.Alltoall { data = Value.Varr_int a; _ } when Array.length a >= 1 ->
    Mpi_iface.Rvalue (Value.Varr_int [| a.(0) |])
  | Mpi_iface.Alltoall { data = Value.Varr_float a; _ } when Array.length a >= 1 ->
    Mpi_iface.Rvalue (Value.Varr_float [| a.(0) |])
  | Mpi_iface.Alltoall _ ->
    raise (Fault.Fault (Fault.Mpi_error { message = "bad alltoall"; func = "<mpi>" }))

let plain_hooks ?(step_limit = 5_000_000) ?(mpi = null_mpi) () =
  {
    mode = Light;
    input_value = (fun d -> d.Ast.default);
    on_input = (fun _ _ -> None);
    on_mpi_sem = (fun _ _ -> None);
    on_branch = (fun ~id:_ ~taken:_ ~constr:_ -> ());
    keeps = (fun ~id:_ ~taken:_ -> true);
    on_func_enter = (fun _ -> ());
    mpi;
    step_limit;
  }

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                   *)
(* ------------------------------------------------------------------ *)

type binding = { mutable value : Value.t; mutable shadow : Smt.Linexp.t option }

type state = {
  hooks : hooks;
  program : Ast.program;
  mutable steps : int;
  mutable func : string;  (* current function, for fault reports *)
}

exception Return_exn of (Value.t * Smt.Linexp.t option) option
exception Exit_exn of int

let fault f = raise (Fault.Fault f)

let type_error st message =
  fault (Fault.Runtime_type_error { message; func = st.func })

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.hooks.step_limit then
    fault (Fault.Step_limit_exceeded { steps = st.steps })

let lookup st frame name =
  match Hashtbl.find_opt frame name with
  | Some b -> b
  | None -> type_error st (Printf.sprintf "undefined variable %s" name)

let as_int st = function
  | Value.Vint n -> n
  | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _ ->
    (type_error st "expected an int" : int)

let as_float st = function
  | Value.Vfloat x -> x
  | Value.Vint n -> float_of_int n
  | Value.Varr_int _ | Value.Varr_float _ -> (type_error st "expected a float" : float)

let heavy st = st.hooks.mode = Heavy

(* Shadow of a possibly-concrete operand: concrete ints lift to constant
   linear expressions when the other side is symbolic. *)
let shadow_or_const value shadow =
  match shadow with
  | Some e -> e
  | None -> Smt.Linexp.const value

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let bool_to_value b = Value.Vint (if b then 1 else 0)

let rec eval st frame (e : Ast.expr) : Value.t * Smt.Linexp.t option =
  match e with
  | Ast.Int n -> (Value.Vint n, None)
  | Ast.Float x -> (Value.Vfloat x, None)
  | Ast.Var name ->
    let b = lookup st frame name in
    (b.value, if heavy st then b.shadow else None)
  | Ast.Len name -> (
    let b = lookup st frame name in
    match b.value with
    | Value.Varr_int a -> (Value.Vint (Array.length a), None)
    | Value.Varr_float a -> (Value.Vint (Array.length a), None)
    | Value.Vint _ | Value.Vfloat _ -> type_error st "len of a scalar")
  | Ast.Idx (name, ie) -> (
    let b = lookup st frame name in
    let index = as_int st (fst (eval st frame ie)) in
    let check len =
      if index < 0 || index >= len then
        fault (Fault.Segfault { array = name; index; length = len; func = st.func })
    in
    match b.value with
    | Value.Varr_int a ->
      check (Array.length a);
      (Value.Vint a.(index), None)
    | Value.Varr_float a ->
      check (Array.length a);
      (Value.Vfloat a.(index), None)
    | Value.Vint _ | Value.Vfloat _ -> type_error st (name ^ " is not an array"))
  | Ast.Unop (op, e1) -> eval_unop st frame op e1
  | Ast.Binop (op, a, b) -> eval_binop st frame op a b

and eval_unop st frame op e1 =
  let v, s = eval st frame e1 in
  match op with
  | Ast.Neg -> (
    match v with
    | Value.Vint n -> (Value.Vint (-n), if heavy st then Option.map Smt.Linexp.neg s else None)
    | Value.Vfloat x -> (Value.Vfloat (-.x), None)
    | Value.Varr_int _ | Value.Varr_float _ -> type_error st "negation of array")
  | Ast.Lognot -> (
    match v with
    | Value.Vint n -> (bool_to_value (n = 0), None)
    | Value.Vfloat x -> (bool_to_value (x = 0.0), None)
    | Value.Varr_int _ | Value.Varr_float _ -> type_error st "lognot of array")

and eval_binop st frame op ea eb =
  let va, sa = eval st frame ea in
  let vb, sb = eval st frame eb in
  match (va, vb) with
  | Value.Vint x, Value.Vint y -> eval_int_binop st op x y sa sb
  | (Value.Vfloat _ | Value.Vint _), (Value.Vfloat _ | Value.Vint _) ->
    (eval_float_binop st op (as_float st va) (as_float st vb), None)
  | (Value.Varr_int _ | Value.Varr_float _), _ | _, (Value.Varr_int _ | Value.Varr_float _)
    ->
    type_error st "arithmetic on array value"

and eval_int_binop st op x y sa sb =
  (* Heavy instrumentation pays for the symbolic shadow on EVERY integer
     expression, exactly like CREST's per-expression instrumentation —
     concrete operands are carried as constant linear expressions. This
     cost difference is what two-way instrumentation saves on non-focus
     processes (paper Table IV). *)
  let symbolic = heavy st in
  let lin f = if symbolic then Some (f (shadow_or_const x sa) (shadow_or_const y sb)) else None in
  match op with
  | Ast.Add -> (Value.Vint (x + y), lin Smt.Linexp.add)
  | Ast.Sub -> (Value.Vint (x - y), lin Smt.Linexp.sub)
  | Ast.Mul ->
    (* CREST-style: keep linearity by multiplying the symbolic side by
       the other side's concrete value; two symbolic sides concretize
       the right one. *)
    let shadow =
      if not symbolic then None
      else
        match (sa, sb) with
        | Some ea, (Some _ | None) -> Some (Smt.Linexp.scale y ea)
        | None, Some eb -> Some (Smt.Linexp.scale x eb)
        | None, None -> Some (Smt.Linexp.const (x * y))
    in
    (Value.Vint (x * y), shadow)
  | Ast.Div ->
    if y = 0 then fault (Fault.Fpe { func = st.func });
    (Value.Vint (x / y), None)
  | Ast.Mod ->
    if y = 0 then fault (Fault.Fpe { func = st.func });
    (Value.Vint (x mod y), None)
  | Ast.Eq -> (bool_to_value (x = y), None)
  | Ast.Ne -> (bool_to_value (x <> y), None)
  | Ast.Lt -> (bool_to_value (x < y), None)
  | Ast.Le -> (bool_to_value (x <= y), None)
  | Ast.Gt -> (bool_to_value (x > y), None)
  | Ast.Ge -> (bool_to_value (x >= y), None)
  | Ast.Logand -> (bool_to_value (x <> 0 && y <> 0), None)
  | Ast.Logor -> (bool_to_value (x <> 0 || y <> 0), None)
  | Ast.Bitand -> (Value.Vint (x land y), None)
  | Ast.Bitor -> (Value.Vint (x lor y), None)
  | Ast.Bitxor -> (Value.Vint (x lxor y), None)
  | Ast.Shl -> (Value.Vint (x lsl (y land 62)), None)
  | Ast.Shr -> (Value.Vint (x asr (y land 62)), None)

and eval_float_binop st op x y =
  match op with
  | Ast.Add -> Value.Vfloat (x +. y)
  | Ast.Sub -> Value.Vfloat (x -. y)
  | Ast.Mul -> Value.Vfloat (x *. y)
  | Ast.Div -> Value.Vfloat (x /. y)  (* IEEE semantics: no FPE on floats *)
  | Ast.Mod -> Value.Vfloat (Float.rem x y)
  | Ast.Eq -> bool_to_value (Float.equal x y)
  | Ast.Ne -> bool_to_value (not (Float.equal x y))
  | Ast.Lt -> bool_to_value (x < y)
  | Ast.Le -> bool_to_value (x <= y)
  | Ast.Gt -> bool_to_value (x > y)
  | Ast.Ge -> bool_to_value (x >= y)
  | Ast.Logand -> bool_to_value (x <> 0.0 && y <> 0.0)
  | Ast.Logor -> bool_to_value (x <> 0.0 || y <> 0.0)
  | Ast.Bitand | Ast.Bitor | Ast.Bitxor | Ast.Shl | Ast.Shr ->
    type_error st "bitwise operation on floats"

(* Condition evaluation: returns the concrete boolean plus, in heavy
   mode, a linear constraint that holds for the *taken* direction. *)
let rel_of_binop = function
  | Ast.Eq -> Some Smt.Constr.Eq
  | Ast.Ne -> Some Smt.Constr.Ne
  | Ast.Lt -> Some Smt.Constr.Lt
  | Ast.Le -> Some Smt.Constr.Le
  | Ast.Gt -> Some Smt.Constr.Gt
  | Ast.Ge -> Some Smt.Constr.Ge
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Logand | Ast.Logor
  | Ast.Bitand | Ast.Bitor | Ast.Bitxor | Ast.Shl | Ast.Shr ->
    None

(* Whether to build the constraint of a symbolic condition: only in
   heavy mode, only for a branch statement's condition ([branch] is its
   id; an assert reports no constraint), and only when the path log
   keeps it for the statement's outcome — the condition's own outcome
   [taken], flipped by every enclosing [!] when [flip] is set. *)
let wants st branch ~flip taken =
  match branch with
  | Some id -> heavy st && st.hooks.keeps ~id ~taken:(taken <> flip)
  | None -> false

let rec eval_cond st frame branch ~flip (e : Ast.expr) : bool * Smt.Constr.t option =
  match e with
  | Ast.Binop (op, ea, eb) when rel_of_binop op <> None -> (
    let rel = Option.get (rel_of_binop op) in
    let va, sa = eval st frame ea in
    let vb, sb = eval st frame eb in
    match (va, vb) with
    | Value.Vint x, Value.Vint y ->
      let taken = as_int st (fst (eval_int_binop st op x y None None)) <> 0 in
      let constr =
        if (Option.is_some sa || Option.is_some sb) && wants st branch ~flip taken then
          let c = Smt.Constr.cmp (shadow_or_const x sa) rel (shadow_or_const y sb) in
          (* constants on both sides: a concrete branch, no constraint *)
          if Smt.Varid.Set.is_empty (Smt.Constr.vars c) then None
          else Some (if taken then c else Smt.Constr.negate c)
        else None
      in
      (taken, constr)
    | (Value.Vint _ | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _), _ ->
      (* float comparisons: concrete only (COMPI does not handle floats
         symbolically) *)
      let v, _ = eval st frame e in
      (as_int st v <> 0, None))
  | Ast.Unop (Ast.Lognot, inner) ->
    (* the inner constraint already holds for the values that were
       observed; negation flips only the boolean outcome *)
    let taken, constr = eval_cond st frame branch ~flip:(not flip) inner in
    (not taken, constr)
  | Ast.Int _ | Ast.Float _ | Ast.Var _ | Ast.Idx _ | Ast.Len _ | Ast.Unop (Ast.Neg, _)
  | Ast.Binop _ -> (
    (* C semantics: if (e) means e != 0 *)
    let v, s = eval st frame e in
    match v with
    | Value.Vint n ->
      let taken = n <> 0 in
      let constr =
        match s with
        | Some exp
          when (not (Smt.Varid.Set.is_empty (Smt.Linexp.vars exp)))
               && wants st branch ~flip taken ->
          let c = Smt.Constr.make exp Smt.Constr.Ne in
          Some (if taken then c else Smt.Constr.negate c)
        | Some _ | None -> None
      in
      (taken, constr)
    | Value.Vfloat x -> (x <> 0.0, None)
    | Value.Varr_int _ | Value.Varr_float _ -> type_error st "array used as condition")

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let zero_value ctype n =
  match ctype with
  | Ast.Tint -> Value.Varr_int (Array.make n 0)
  | Ast.Tfloat -> Value.Varr_float (Array.make n 0.0)

let coerce st ctype value =
  match (ctype, value) with
  | Ast.Tint, Value.Vint _ -> value
  | Ast.Tint, Value.Vfloat x -> Value.Vint (int_of_float x)
  | Ast.Tfloat, Value.Vfloat _ -> value
  | Ast.Tfloat, Value.Vint n -> Value.Vfloat (float_of_int n)
  | (Ast.Tint | Ast.Tfloat), (Value.Varr_int _ | Value.Varr_float _) ->
    type_error st "cannot store array into scalar"

let rec exec_block st frame block = List.iter (exec_stmt st frame) block

and exec_stmt st frame (stmt : Ast.stmt) =
  tick st;
  match stmt with
  | Ast.Nop -> ()
  | Ast.Decl (name, ctype, e) ->
    let v, s = eval st frame e in
    let value = coerce st ctype v in
    let shadow = match ctype with Ast.Tint -> s | Ast.Tfloat -> None in
    Hashtbl.replace frame name { value; shadow }
  | Ast.Decl_arr (name, ctype, size_e) ->
    let n = as_int st (fst (eval st frame size_e)) in
    if n < 0 then fault (Fault.Segfault { array = name; index = n; length = 0; func = st.func });
    Hashtbl.replace frame name { value = zero_value ctype n; shadow = None }
  | Ast.Assign (Ast.Lvar name, e) ->
    let v, s = eval st frame e in
    let b = lookup st frame name in
    let value =
      match b.value with
      | Value.Vint _ -> coerce st Ast.Tint v
      | Value.Vfloat _ -> coerce st Ast.Tfloat v
      | Value.Varr_int _ | Value.Varr_float _ -> (
        (* whole-array assignment: only from another array *)
        match v with
        | Value.Varr_int _ | Value.Varr_float _ -> v
        | Value.Vint _ | Value.Vfloat _ -> type_error st "scalar into array variable")
    in
    b.value <- value;
    b.shadow <- (match value with Value.Vint _ -> s | _ -> None)
  | Ast.Assign (Ast.Lidx (name, ie), e) -> (
    let index = as_int st (fst (eval st frame ie)) in
    let v, _ = eval st frame e in
    let b = lookup st frame name in
    let check len =
      if index < 0 || index >= len then
        fault (Fault.Segfault { array = name; index; length = len; func = st.func })
    in
    match b.value with
    | Value.Varr_int a ->
      check (Array.length a);
      a.(index) <- as_int st v
    | Value.Varr_float a ->
      check (Array.length a);
      a.(index) <- as_float st v
    | Value.Vint _ | Value.Vfloat _ -> type_error st (name ^ " is not an array"))
  | Ast.If { id; cond; then_; else_ } ->
    let taken, constr = eval_cond st frame (Some id) ~flip:false cond in
    st.hooks.on_branch ~id ~taken ~constr;
    exec_block st frame (if taken then then_ else else_)
  | Ast.While { id; cond; body } ->
    let rec loop () =
      tick st;
      let taken, constr = eval_cond st frame (Some id) ~flip:false cond in
      st.hooks.on_branch ~id ~taken ~constr;
      if taken then begin
        exec_block st frame body;
        loop ()
      end
    in
    loop ()
  | Ast.Call (name, args) ->
    let _ = call_function st frame name args in
    ()
  | Ast.Call_assign (dst, name, args) -> (
    match call_function st frame name args with
    | Some (v, s) ->
      let b = lookup st frame dst in
      b.value <-
        (match b.value with
        | Value.Vint _ -> coerce st Ast.Tint v
        | Value.Vfloat _ -> coerce st Ast.Tfloat v
        | Value.Varr_int _ | Value.Varr_float _ -> v);
      b.shadow <- (match b.value with Value.Vint _ -> s | _ -> None)
    | None -> type_error st (name ^ " returned no value"))
  | Ast.Return e_opt ->
    let result = Option.map (eval st frame) e_opt in
    raise (Return_exn result)
  | Ast.Assert (cond, message) ->
    let taken, _ = eval_cond st frame None ~flip:false cond in
    if not taken then fault (Fault.Assert_fail { message; func = st.func })
  | Ast.Abort message -> fault (Fault.Abort_called { message; func = st.func })
  | Ast.Exit code -> raise (Exit_exn (as_int st (fst (eval st frame code))))
  | Ast.Input decl ->
    let concrete = st.hooks.input_value decl in
    let shadow = if heavy st then st.hooks.on_input decl concrete else None in
    Hashtbl.replace frame decl.Ast.iname { value = Value.Vint concrete; shadow }
  | Ast.Mpi m -> exec_mpi st frame m

and call_function st frame name args =
  match Ast.find_func st.program name with
  | None -> type_error st (Printf.sprintf "undefined function %s" name)
  | Some fn ->
    if List.length fn.Ast.params <> List.length args then
      type_error st (Printf.sprintf "arity mismatch calling %s" name);
    let callee_frame = Hashtbl.create 16 in
    List.iter2
      (fun (pname, ctype) arg ->
        let v, s = eval st frame arg in
        let value =
          match v with
          | Value.Vint _ | Value.Vfloat _ -> coerce st ctype v
          | Value.Varr_int _ | Value.Varr_float _ -> v  (* arrays pass by reference *)
        in
        let shadow = match value with Value.Vint _ -> s | _ -> None in
        Hashtbl.replace callee_frame pname { value; shadow })
      fn.Ast.params args;
    let saved = st.func in
    st.func <- name;
    st.hooks.on_func_enter name;
    let result =
      match exec_block st callee_frame fn.Ast.body with
      | () -> None
      | exception Return_exn r -> r
    in
    st.func <- saved;
    result

(* ------------------------------------------------------------------ *)
(* MPI statements                                                      *)
(* ------------------------------------------------------------------ *)

and comm_handle st frame = function
  | Ast.World -> Mpi_iface.world
  | Ast.Comm_var name -> as_int st (lookup st frame name).value

and expect_int st = function
  | Mpi_iface.Rint n -> n
  | Mpi_iface.Runit | Mpi_iface.Rvalue _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
    type_error st "MPI reply: expected an int"

and expect_value st = function
  | Mpi_iface.Rvalue v -> v
  | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
    type_error st "MPI reply: expected a value"

and store_lval st frame lv value =
  match lv with
  | Ast.Lvar name ->
    (match Hashtbl.find_opt frame name with
    | Some b ->
      b.value <-
        (match (b.value, value) with
        | Value.Vint _, _ -> coerce st Ast.Tint value
        | Value.Vfloat _, _ -> coerce st Ast.Tfloat value
        | (Value.Varr_int _ | Value.Varr_float _), _ -> value);
      b.shadow <- None
    | None -> Hashtbl.replace frame name { value; shadow = None })
  | Ast.Lidx (name, ie) ->
    exec_stmt st frame
      (Ast.Assign
         ( Ast.Lidx (name, ie),
           match value with
           | Value.Vint n -> Ast.Int n
           | Value.Vfloat x -> Ast.Float x
           | Value.Varr_int _ | Value.Varr_float _ ->
             type_error st "cannot store array into array cell" ))

and exec_mpi st frame (m : Ast.mpi) =
  let handle = comm_handle st frame in
  let int_of e = as_int st (fst (eval st frame e)) in
  match m with
  | Ast.Comm_rank (cref, var) ->
    let comm = handle cref in
    let rank = expect_int st (st.hooks.mpi (Mpi_iface.Rank comm)) in
    let kind = if cref = Ast.World then Rank_world else Rank_comm comm in
    let shadow = if heavy st then st.hooks.on_mpi_sem kind rank else None in
    Hashtbl.replace frame var { value = Value.Vint rank; shadow }
  | Ast.Comm_size (cref, var) ->
    let comm = handle cref in
    let size = expect_int st (st.hooks.mpi (Mpi_iface.Size comm)) in
    let kind = if cref = Ast.World then Size_world else Size_comm comm in
    let shadow = if heavy st then st.hooks.on_mpi_sem kind size else None in
    Hashtbl.replace frame var { value = Value.Vint size; shadow }
  | Ast.Comm_split { comm; color; key; into } ->
    let reply =
      st.hooks.mpi
        (Mpi_iface.Split { comm = handle comm; color = int_of color; key = int_of key })
    in
    Hashtbl.replace frame into { value = Value.Vint (expect_int st reply); shadow = None }
  | Ast.Barrier comm ->
    let _ = st.hooks.mpi (Mpi_iface.Barrier (handle comm)) in
    ()
  | Ast.Send { comm; dest; tag; data } ->
    let v, _ = eval st frame data in
    let _ =
      st.hooks.mpi
        (Mpi_iface.Send
           { comm = handle comm; dest = int_of dest; tag = int_of tag; data = Value.copy v })
    in
    ()
  | Ast.Recv { comm; src; tag; into } ->
    let reply =
      st.hooks.mpi
        (Mpi_iface.Recv
           {
             comm = handle comm;
             src = Option.map int_of src;
             tag = Option.map int_of tag;
           })
    in
    store_lval st frame into (expect_value st reply)
  | Ast.Isend { comm; dest; tag; data; req } ->
    let v, _ = eval st frame data in
    let reply =
      st.hooks.mpi
        (Mpi_iface.Isend
           { comm = handle comm; dest = int_of dest; tag = int_of tag; data = Value.copy v })
    in
    Hashtbl.replace frame req { value = Value.Vint (expect_int st reply); shadow = None }
  | Ast.Irecv { comm; src; tag; req } ->
    let reply =
      st.hooks.mpi
        (Mpi_iface.Irecv
           {
             comm = handle comm;
             src = Option.map int_of src;
             tag = Option.map int_of tag;
           })
    in
    Hashtbl.replace frame req { value = Value.Vint (expect_int st reply); shadow = None }
  | Ast.Wait { req; into } -> (
    let reply = st.hooks.mpi (Mpi_iface.Wait (int_of req)) in
    match (reply, into) with
    | Mpi_iface.Runit, _ -> ()  (* completed isend *)
    | Mpi_iface.Rvalue v, Some lv -> store_lval st frame lv v
    | Mpi_iface.Rvalue _, None -> ()
    | (Mpi_iface.Rint _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone), _ ->
      type_error st "MPI reply: bad wait reply")
  | Ast.Bcast { comm; root; data } ->
    let comm_h = handle comm in
    let root_v = int_of root in
    let my_rank = expect_int st (st.hooks.mpi (Mpi_iface.Rank comm_h)) in
    let payload =
      if my_rank = root_v then
        Some (Value.copy (fst (eval st frame (expr_of_lval st data))))
      else None
    in
    let reply = st.hooks.mpi (Mpi_iface.Bcast { comm = comm_h; root = root_v; data = payload }) in
    store_lval st frame data (expect_value st reply)
  | Ast.Reduce { comm; op; root; data; into } -> (
    let v, _ = eval st frame data in
    let reply =
      st.hooks.mpi
        (Mpi_iface.Reduce
           {
             comm = handle comm;
             op = Mpi_iface.reduce_op_of_ast op;
             root = int_of root;
             data = Value.copy v;
           })
    in
    match reply with
    | Mpi_iface.Rnone -> ()  (* non-root *)
    | Mpi_iface.Rvalue result -> store_lval st frame into result
    | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ ->
      type_error st "MPI reply: bad reduce reply")
  | Ast.Allreduce { comm; op; data; into } ->
    let v, _ = eval st frame data in
    let reply =
      st.hooks.mpi
        (Mpi_iface.Allreduce
           { comm = handle comm; op = Mpi_iface.reduce_op_of_ast op; data = Value.copy v })
    in
    store_lval st frame into (expect_value st reply)
  | Ast.Gather { comm; root; data; into } -> (
    let v, _ = eval st frame data in
    let reply =
      st.hooks.mpi
        (Mpi_iface.Gather { comm = handle comm; root = int_of root; data = Value.copy v })
    in
    match reply with
    | Mpi_iface.Rnone -> ()
    | Mpi_iface.Rvalue arr ->
      Hashtbl.replace frame into { value = arr; shadow = None }
    | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ ->
      type_error st "MPI reply: bad gather reply")
  | Ast.Scatter { comm; root; data; into } ->
    let comm_h = handle comm in
    let root_v = int_of root in
    let my_rank = expect_int st (st.hooks.mpi (Mpi_iface.Rank comm_h)) in
    let payload =
      if my_rank = root_v then Some (Value.copy (lookup st frame data).value) else None
    in
    let reply =
      st.hooks.mpi (Mpi_iface.Scatter { comm = comm_h; root = root_v; data = payload })
    in
    store_lval st frame into (expect_value st reply)
  | Ast.Allgather { comm; data; into } ->
    let v, _ = eval st frame data in
    let reply = st.hooks.mpi (Mpi_iface.Allgather { comm = handle comm; data = Value.copy v }) in
    Hashtbl.replace frame into { value = expect_value st reply; shadow = None }
  | Ast.Alltoall { comm; data; into } ->
    let v = Value.copy (lookup st frame data).value in
    let reply = st.hooks.mpi (Mpi_iface.Alltoall { comm = handle comm; data = v }) in
    Hashtbl.replace frame into { value = expect_value st reply; shadow = None }

and expr_of_lval _st = function
  | Ast.Lvar name -> Ast.Var name
  | Ast.Lidx (name, e) -> Ast.Idx (name, e)

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run hooks (program : Ast.program) =
  (* Timed as one "interp" span per simulated process. The interpreter
     runs inside a scheduler fiber, so the interval covers the process
     lifetime including suspensions at MPI calls; spans of concurrently
     scheduled ranks overlap on the same domain, which the profile's
     interval-union accounting handles. *)
  let tk0 = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
  let st = { hooks; program; steps = 0; func = program.Ast.entry } in
  let result =
    match
      match Ast.find_func program program.Ast.entry with
      | None -> type_error st (Printf.sprintf "no entry function %s" program.Ast.entry)
      | Some fn ->
        if fn.Ast.params <> [] then type_error st "entry function takes no parameters";
        st.hooks.on_func_enter fn.Ast.fname;
        (try exec_block st (Hashtbl.create 16) fn.Ast.body with
        | Return_exn _ -> ()
        | Exit_exn _ -> ())
    with
    | () -> Ok ()
    | exception Fault.Fault f -> Error f
  in
  if Obs.Timeline.on () then
    Obs.Timeline.record ~kind:"interp" ~t0:tk0 ~t1:(Obs.Timeline.tick ());
  result
