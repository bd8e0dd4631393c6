(* Closure compiler for Mini-C: the once-per-campaign counterpart of the
   tree-walking interpreter.

   [compile] turns the checked, instrumented AST into two closure trees
   (one per instrumentation mode) ahead of time: variable names resolve
   to dense frame slots, function names and arities to [cfunc] records,
   branch ids and per-operator arithmetic dispatch to captured values.
   Statements compile in CPS — each statement closure ends by invoking
   the closure for the rest of its block — so straight-line code runs
   with no per-statement dispatch at all.

   The symbolic shadow is resolved at compile time where possible:

   - the light tree carries no shadow code whatsoever (not even the
     [None] writes the interpreter's shared code paths pay for);
   - in the heavy tree, subexpressions whose shadows the interpreter
     provably discards (array indices, [Lognot] operands, operands of
     non-linear binops, array sizes, float-decl right-hand sides,
     assert conditions, exit codes, every MPI operand) compile through
     the light expression compiler.

   Heavy expression closures return the concrete [Value.t] and leave the
   shadow in the register [ctx.sh] / [ctx.sh_exp] as their final action —
   a shadow register instead of a tuple allocation per node. Both trees
   fuse variable and constant operands into the operator node
   ([operand]), one closure per (left, right) shape, where a variable's
   shadow is read from the frame and a constant's is [unshadowed], so a
   leaf operand costs no closure call; the heavy shapes call their
   operator ([apply2_heavy], [rel_apply_heavy], [apply2]) directly.
   Concrete int arithmetic in the heavy tree builds no linear
   expression: a constant shadow always equals the concrete value, so it
   is a tag ([konst], see [shadow]) rather than a [Linexp.const].

   A branch constraint is built only when the path log keeps it
   ([Interp.hooks.keeps]), so the constraints that reduction drops cost
   no symbolic work.

   Every observable — fault constructor and message, operand evaluation
   order (including the right-to-left record-field order the interpreter
   inherits from OCaml), step counting, hook invocations, MPI requests —
   is byte-identical to [Interp]; test/test_compile.ml holds the
   differential proof. *)

(* The heavy tree's symbolic shadow of an int value, as an immediate tag
   beside a linear-expression slot. The interpreter's shadow is a
   [Linexp.t option]; here its [Some] case is split so that concrete
   arithmetic never builds a linear expression:
   - [unshadowed] is the interpreter's [None] (literals, loads, results
     of non-linear operators, concretized values);
   - [konst] is a constant shadow [Some (Linexp.const v)]. It always
     equals the concrete value [v], so it needs no expression and can
     never yield a constraint;
   - [sym] is [Some e], with [e] in the slot beside the tag.
   The slot is read only under [sym], so a concrete store writes the tag
   alone: an int, which pays no write barrier, where a boxed shadow
   paid [caml_modify] at every node. [unshadowed] and [konst] behave
   alike everywhere but in one place: a product whose left operand has a
   shadow, even a constant one, scales that shadow by the right
   operand's value (CREST's linearisation), so [konst * symbolic] is
   concrete while [unshadowed * symbolic] stays symbolic. *)
type shadow = int

let unshadowed : shadow = 0
let konst : shadow = 1
let sym : shadow = 2

(* The filler of expression slots whose tag is not [sym]. *)
let no_exp = Smt.Linexp.const 0
let no_constr = Smt.Constr.make no_exp Smt.Constr.Eq

type frame = {
  vals : Value.t array;
  shs : shadow array;  (* heavy frames only; [||] in light *)
  exps : Smt.Linexp.t array;  (* each slot's [sym] expression; heavy only *)
  bnd : bool array;  (* slot currently bound? (interp: name in hashtable) *)
}

type ctx = {
  hooks : Interp.hooks;
  mutable steps : int;
  mutable func : string;  (* current function, for fault reports *)
  mutable sh : shadow;  (* heavy shadow register *)
  mutable sh_exp : Smt.Linexp.t;  (* its expression when [sh = sym] *)
  mutable has_cs : bool;
  mutable cs : Smt.Constr.t;
      (* heavy branch-constraint register: a heavy condition closure that
         builds a constraint stores it here and sets [has_cs]; If/While
         read and clear it right after, so a concrete branch stores
         nothing and the light build's hot path allocates nothing per
         branch *)
  mutable ret : Value.t option;
  mutable returning : bool;
      (* return register: a [return] statement stores its value and
         sets the flag instead of raising (in the heavy tree the value's
         shadow stays in [sh]/[sh_exp], which nothing writes before the
         call site reads it). Every statement closure invokes its
         continuation in tail position, so simply {e not} invoking it
         unwinds the whole closure chain back to the call site, which
         consumes the flag — same control flow the old Return_exn
         bought, minus the exception raise (and its allocation) on the
         hot path *)
  pools : frame list array;
      (* per-function free lists of recycled frames, indexed by
         [cf_index]. Per-run state: the compiled program is shared
         read-only across domains, so frames must never hang off a
         [cfunc] *)
}

type ecode = ctx -> frame -> Value.t
type ccode = ctx -> frame -> bool
type scode = ctx -> frame -> unit

exception Exit_exn of int

type cfunc = {
  cf_index : int;  (* position in the variant's function table, keys [pools] *)
  cf_name : string;
      (* the definition's name: every call passes this one string to
         [on_func_enter], so a hook can tell functions apart by
         physical equality *)
  cf_params : (int * Ast.ctype) list;  (* slot of each parameter, in order *)
  cf_nslots : int;
  cf_slots : (string, int) Hashtbl.t;
  mutable cf_body : scode;  (* patched after all functions register *)
}

type env = {
  heavy : bool;
  slots : (string, int) Hashtbl.t;  (* current function's name -> slot *)
  funcs : (string, cfunc) Hashtbl.t;
}

let light env = if env.heavy then { env with heavy = false } else env

(* ------------------------------------------------------------------ *)
(* Runtime helpers (identical observable behaviour to Interp's)        *)
(* ------------------------------------------------------------------ *)

let fault f = raise (Fault.Fault f)

let type_error c message =
  fault (Fault.Runtime_type_error { message; func = c.func })

let tick c =
  c.steps <- c.steps + 1;
  if c.steps > c.hooks.Interp.step_limit then
    fault (Fault.Step_limit_exceeded { steps = c.steps })

let as_int c = function
  | Value.Vint n -> n
  | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _ ->
    (type_error c "expected an int" : int)

let as_float c = function
  | Value.Vfloat x -> x
  | Value.Vint n -> float_of_int n
  | Value.Varr_int _ | Value.Varr_float _ -> (type_error c "expected a float" : float)

(* Vint is immutable, so boolean results share two preallocated cells
   instead of boxing a fresh int on every comparison. *)
let vtrue = Value.Vint 1
let vfalse = Value.Vint 0
let bool_to_value b = if b then vtrue else vfalse

let zero_value ctype n =
  match ctype with
  | Ast.Tint -> Value.Varr_int (Array.make n 0)
  | Ast.Tfloat -> Value.Varr_float (Array.make n 0.0)

let coerce c ctype value =
  match (ctype, value) with
  | Ast.Tint, Value.Vint _ -> value
  | Ast.Tint, Value.Vfloat x -> Value.Vint (int_of_float x)
  | Ast.Tfloat, Value.Vfloat _ -> value
  | Ast.Tfloat, Value.Vint n -> Value.Vfloat (float_of_int n)
  | (Ast.Tint | Ast.Tfloat), (Value.Varr_int _ | Value.Varr_float _) ->
    type_error c "cannot store array into scalar"

let no_shadows : shadow array = [||]
let no_exps : Smt.Linexp.t array = [||]

let make_frame heavy n =
  {
    vals = Array.make n (Value.Vint 0);
    shs = (if heavy then Array.make n unshadowed else no_shadows);
    exps = (if heavy then Array.make n no_exp else no_exps);
    bnd = Array.make n false;
  }

(* Heavy shadow moves: register to slot, slot to register, and a hook's
   [Linexp.t option] to a slot. Only a [sym] shadow writes its
   expression. *)
let[@inline] store_shadow c f i =
  let t = c.sh in
  f.shs.(i) <- t;
  if t = sym then f.exps.(i) <- c.sh_exp

let[@inline] load_shadow c f i =
  let t = f.shs.(i) in
  c.sh <- t;
  if t = sym then c.sh_exp <- f.exps.(i)

let store_option f i = function
  | Some e ->
    f.shs.(i) <- sym;
    f.exps.(i) <- e
  | None -> f.shs.(i) <- unshadowed

let slot env name =
  match Hashtbl.find_opt env.slots name with
  | Some i -> i
  | None -> invalid_arg ("Compile: no slot for variable " ^ name)

(* ------------------------------------------------------------------ *)
(* Slot assignment: every name a function's code can touch             *)
(* ------------------------------------------------------------------ *)

let collect_slots (fn : Ast.func) =
  let tbl = Hashtbl.create 32 in
  let next = ref 0 in
  let add name =
    if not (Hashtbl.mem tbl name) then begin
      Hashtbl.add tbl name !next;
      incr next
    end
  in
  List.iter (fun (p, _) -> add p) fn.Ast.params;
  let rec expr = function
    | Ast.Int _ | Ast.Float _ -> ()
    | Ast.Var n | Ast.Len n -> add n
    | Ast.Idx (n, e) ->
      add n;
      expr e
    | Ast.Unop (_, e) -> expr e
    | Ast.Binop (_, a, b) ->
      expr a;
      expr b
  in
  let eopt = Option.iter expr in
  let lval = function
    | Ast.Lvar n -> add n
    | Ast.Lidx (n, e) ->
      add n;
      expr e
  in
  let comm = function Ast.World -> () | Ast.Comm_var n -> add n in
  let mpi = function
    | Ast.Comm_rank (c, v) | Ast.Comm_size (c, v) ->
      comm c;
      add v
    | Ast.Comm_split { comm = c; color; key; into } ->
      comm c;
      expr color;
      expr key;
      add into
    | Ast.Barrier c -> comm c
    | Ast.Send { comm = c; dest; tag; data } ->
      comm c;
      expr dest;
      expr tag;
      expr data
    | Ast.Recv { comm = c; src; tag; into } ->
      comm c;
      eopt src;
      eopt tag;
      lval into
    | Ast.Isend { comm = c; dest; tag; data; req } ->
      comm c;
      expr dest;
      expr tag;
      expr data;
      add req
    | Ast.Irecv { comm = c; src; tag; req } ->
      comm c;
      eopt src;
      eopt tag;
      add req
    | Ast.Wait { req; into } ->
      expr req;
      Option.iter lval into
    | Ast.Bcast { comm = c; root; data } ->
      comm c;
      expr root;
      lval data
    | Ast.Reduce { comm = c; op = _; root; data; into } ->
      comm c;
      expr root;
      expr data;
      lval into
    | Ast.Allreduce { comm = c; op = _; data; into } ->
      comm c;
      expr data;
      lval into
    | Ast.Gather { comm = c; root; data; into } ->
      comm c;
      expr root;
      expr data;
      add into
    | Ast.Scatter { comm = c; root; data; into } ->
      comm c;
      expr root;
      add data;
      lval into
    | Ast.Allgather { comm = c; data; into } ->
      comm c;
      expr data;
      add into
    | Ast.Alltoall { comm = c; data; into } ->
      comm c;
      add data;
      add into
  in
  let rec stmt = function
    | Ast.Nop | Ast.Abort _ -> ()
    | Ast.Decl (n, _, e) | Ast.Decl_arr (n, _, e) ->
      add n;
      expr e
    | Ast.Assign (lv, e) ->
      lval lv;
      expr e
    | Ast.If { cond; then_; else_; _ } ->
      expr cond;
      List.iter stmt then_;
      List.iter stmt else_
    | Ast.While { cond; body; _ } ->
      expr cond;
      List.iter stmt body
    | Ast.Call (_, args) -> List.iter expr args
    | Ast.Call_assign (dst, _, args) ->
      add dst;
      List.iter expr args
    | Ast.Return e -> eopt e
    | Ast.Assert (e, _) -> expr e
    | Ast.Exit e -> expr e
    | Ast.Input d -> add d.Ast.iname
    | Ast.Mpi m -> mpi m
  in
  List.iter stmt fn.Ast.body;
  (tbl, !next)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Shadow builders for the linear ops (the only ones whose result
   shadow depends on operand shadows), leaving the result in the
   register. Under the [shadow] correspondence each case is the
   interpreter's [Some (Linexp.add (shadow_or_const x sa) (shadow_or_const
   y sb))] (resp. [sub], the CREST product): concrete operands give
   [konst], and a concrete side folds into the symbolic side's constant
   term. An operand's expression [ea] / [eb] is read only when its tag
   is [sym]. *)
let[@inline] set_sym c e =
  c.sh_exp <- e;
  c.sh <- sym

let shadow_add c x ta ea y tb eb =
  if ta = sym then
    set_sym c (if tb = sym then Smt.Linexp.add ea eb else Smt.Linexp.plus_const ea y)
  else if tb = sym then set_sym c (Smt.Linexp.plus_const eb x)
  else c.sh <- konst

(* [x - y] as an expression, for operands at least one of which is
   [sym]: the difference's shadow, and the left side of a relational
   condition's constraint ([Constr.cmp a rel b] is [make (sub a b) rel]). *)
let sym_sub x ta ea y tb eb =
  if ta = sym then
    if tb = sym then Smt.Linexp.sub ea eb else Smt.Linexp.plus_const ea (-y)
  else Smt.Linexp.const_minus x eb

let shadow_sub c x ta ea y tb eb =
  if ta = sym || tb = sym then set_sym c (sym_sub x ta ea y tb eb) else c.sh <- konst

(* CREST-style linearization: scale the symbolic side by the other
   side's concrete value; two symbolic sides concretize the right one.
   A shadowed left side is scaled even when it is constant, which leaves
   a constant. *)
let shadow_mul c x ta ea y tb eb =
  if ta = sym then set_sym c (Smt.Linexp.scale y ea)
  else if ta = unshadowed && tb = sym then set_sym c (Smt.Linexp.scale x eb)
  else c.sh <- konst

(* Operand shapes.  Constants and variables fuse straight into the
   consuming operator closure — no per-leaf closure, no indirect call;
   anything else falls back to a compiled [ecode]. *)
type operand =
  | Oconst of Value.t
  | Oslot of int * string  (* slot, "undefined variable" message *)
  | Ocode of ecode

let[@inline] slot_value c f i msg = if f.bnd.(i) then f.vals.(i) else type_error c msg

(* Fused-node arithmetic: [op] is a compile-time constant in every
   caller, so both inner matches compile to jump tables — no closure
   call per node.  Case-for-case Interp.eval_int_binop /
   eval_float_binop. *)
let apply2 (op : Ast.binop) c va vb =
  match (va, vb) with
  | Value.Vint x, Value.Vint y -> (
    match op with
    | Ast.Add -> Value.Vint (x + y)
    | Ast.Sub -> Value.Vint (x - y)
    | Ast.Mul -> Value.Vint (x * y)
    | Ast.Div ->
      if y = 0 then fault (Fault.Fpe { func = c.func });
      Value.Vint (x / y)
    | Ast.Mod ->
      if y = 0 then fault (Fault.Fpe { func = c.func });
      Value.Vint (x mod y)
    | Ast.Eq -> bool_to_value (x = y)
    | Ast.Ne -> bool_to_value (x <> y)
    | Ast.Lt -> bool_to_value (x < y)
    | Ast.Le -> bool_to_value (x <= y)
    | Ast.Gt -> bool_to_value (x > y)
    | Ast.Ge -> bool_to_value (x >= y)
    | Ast.Logand -> bool_to_value (x <> 0 && y <> 0)
    | Ast.Logor -> bool_to_value (x <> 0 || y <> 0)
    | Ast.Bitand -> Value.Vint (x land y)
    | Ast.Bitor -> Value.Vint (x lor y)
    | Ast.Bitxor -> Value.Vint (x lxor y)
    | Ast.Shl -> Value.Vint (x lsl (y land 62))
    | Ast.Shr -> Value.Vint (x asr (y land 62)))
  | (Value.Vfloat _ | Value.Vint _), (Value.Vfloat _ | Value.Vint _) -> (
    let x = as_float c va and y = as_float c vb in
    match op with
    | Ast.Add -> Value.Vfloat (x +. y)
    | Ast.Sub -> Value.Vfloat (x -. y)
    | Ast.Mul -> Value.Vfloat (x *. y)
    | Ast.Div -> Value.Vfloat (x /. y)  (* IEEE: no FPE on floats *)
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
      type_error c "bitwise operation on floats")
  | (Value.Varr_int _ | Value.Varr_float _), _
  | _, (Value.Varr_int _ | Value.Varr_float _) ->
    type_error c "arithmetic on array value"

(* [apply2] for the heavy tree's linear ops ([Add], [Sub], [Mul]), with
   the result shadow left in the register: the [shadow_*] builders on
   ints, [unshadowed] on floats. *)
let apply2_heavy (op : Ast.binop) c va ta ea vb tb eb =
  match (va, vb) with
  | Value.Vint x, Value.Vint y -> (
    match op with
    | Ast.Add ->
      shadow_add c x ta ea y tb eb;
      Value.Vint (x + y)
    | Ast.Sub ->
      shadow_sub c x ta ea y tb eb;
      Value.Vint (x - y)
    | Ast.Mul ->
      shadow_mul c x ta ea y tb eb;
      Value.Vint (x * y)
    | _ -> invalid_arg "Compile.apply2_heavy")
  | _ ->
    let r = apply2 op c va vb in
    c.sh <- unshadowed;
    r

(* [apply2] for a heavy non-linear node, whose result is unshadowed. *)
let[@inline] apply2_unshadowed (op : Ast.binop) c va vb =
  let r = apply2 op c va vb in
  c.sh <- unshadowed;
  r

(* The nine (left, right) operand shapes of a heavy linear node, one
   closure each, like the light tree's, each calling [apply2_heavy]
   directly. A variable's shadow is read from its slot (expressions
   write no variable, so after the right operand is as good as before)
   and a constant's is [unshadowed]; code leaves its own in the
   register, so the left one is read before the right operand runs.
   Values are fetched left first (an unbound variable faults at its
   fetch), the interpreter's order. *)
let heavy_linear op (oa : operand) (ob : operand) : ecode =
  match (oa, ob) with
  | Oconst va, Oconst vb ->
    fun c _f -> apply2_heavy op c va unshadowed no_exp vb unshadowed no_exp
  | Oconst va, Oslot (ib, mb) ->
    fun c f ->
      let vb = slot_value c f ib mb in
      apply2_heavy op c va unshadowed no_exp vb f.shs.(ib) f.exps.(ib)
  | Oconst va, Ocode cb ->
    fun c f ->
      let vb = cb c f in
      apply2_heavy op c va unshadowed no_exp vb c.sh c.sh_exp
  | Oslot (ia, ma), Oconst vb ->
    fun c f ->
      let va = slot_value c f ia ma in
      apply2_heavy op c va f.shs.(ia) f.exps.(ia) vb unshadowed no_exp
  | Oslot (ia, ma), Oslot (ib, mb) ->
    fun c f ->
      let va = slot_value c f ia ma in
      let vb = slot_value c f ib mb in
      apply2_heavy op c va f.shs.(ia) f.exps.(ia) vb f.shs.(ib) f.exps.(ib)
  | Oslot (ia, ma), Ocode cb ->
    fun c f ->
      let va = slot_value c f ia ma in
      let vb = cb c f in
      apply2_heavy op c va f.shs.(ia) f.exps.(ia) vb c.sh c.sh_exp
  | Ocode ca, Oconst vb ->
    fun c f ->
      let va = ca c f in
      apply2_heavy op c va c.sh c.sh_exp vb unshadowed no_exp
  | Ocode ca, Oslot (ib, mb) ->
    fun c f ->
      let va = ca c f in
      let ta = c.sh and ea = c.sh_exp in
      let vb = slot_value c f ib mb in
      apply2_heavy op c va ta ea vb f.shs.(ib) f.exps.(ib)
  | Ocode ca, Ocode cb ->
    fun c f ->
      let va = ca c f in
      let ta = c.sh and ea = c.sh_exp in
      let vb = cb c f in
      apply2_heavy op c va ta ea vb c.sh c.sh_exp

(* A non-linear binop's result shadow is always the interpreter's None:
   its operands compile light, and its nine shapes fuse simple operands
   as the light tree's do (left operand evaluated first, so fault order
   matches the interpreter's), with the heavy ones storing [unshadowed]
   as their last act. *)
let fuse_apply2 ~heavy op (oa : operand) (ob : operand) : ecode =
  match (oa, ob) with
  | Ocode ca, Ocode cb ->
    if heavy then fun c f ->
      let va = ca c f in
      let vb = cb c f in
      apply2_unshadowed op c va vb
    else fun c f ->
      let va = ca c f in
      let vb = cb c f in
      apply2 op c va vb
  | Ocode ca, Oconst vb ->
    if heavy then fun c f -> apply2_unshadowed op c (ca c f) vb
    else fun c f -> apply2 op c (ca c f) vb
  | Ocode ca, Oslot (ib, mb) ->
    if heavy then fun c f ->
      let va = ca c f in
      let vb = slot_value c f ib mb in
      apply2_unshadowed op c va vb
    else fun c f ->
      let va = ca c f in
      let vb = slot_value c f ib mb in
      apply2 op c va vb
  | Oconst va, Ocode cb ->
    if heavy then fun c f ->
      let vb = cb c f in
      apply2_unshadowed op c va vb
    else fun c f ->
      let vb = cb c f in
      apply2 op c va vb
  | Oconst va, Oconst vb ->
    if heavy then fun c _f -> apply2_unshadowed op c va vb
    else fun c _f -> apply2 op c va vb
  | Oconst va, Oslot (ib, mb) ->
    if heavy then fun c f -> apply2_unshadowed op c va (slot_value c f ib mb)
    else fun c f -> apply2 op c va (slot_value c f ib mb)
  | Oslot (ia, ma), Ocode cb ->
    if heavy then fun c f ->
      let va = slot_value c f ia ma in
      let vb = cb c f in
      apply2_unshadowed op c va vb
    else fun c f ->
      let va = slot_value c f ia ma in
      let vb = cb c f in
      apply2 op c va vb
  | Oslot (ia, ma), Oconst vb ->
    if heavy then fun c f -> apply2_unshadowed op c (slot_value c f ia ma) vb
    else fun c f -> apply2 op c (slot_value c f ia ma) vb
  | Oslot (ia, ma), Oslot (ib, mb) ->
    if heavy then fun c f ->
      let va = slot_value c f ia ma in
      let vb = slot_value c f ib mb in
      apply2_unshadowed op c va vb
    else fun c f ->
      let va = slot_value c f ia ma in
      let vb = slot_value c f ib mb in
      apply2 op c va vb

let[@inline] len_value c v =
  match v with
  | Value.Varr_int a -> Value.Vint (Array.length a)
  | Value.Varr_float a -> Value.Vint (Array.length a)
  | Value.Vint _ | Value.Vfloat _ -> type_error c "len of a scalar"

let[@inline] idx_value c name not_arr v index =
  match v with
  | Value.Varr_int a ->
    if index < 0 || index >= Array.length a then
      fault (Fault.Segfault { array = name; index; length = Array.length a; func = c.func });
    Value.Vint a.(index)
  | Value.Varr_float a ->
    if index < 0 || index >= Array.length a then
      fault (Fault.Segfault { array = name; index; length = Array.length a; func = c.func });
    Value.Vfloat a.(index)
  | Value.Vint _ | Value.Vfloat _ -> type_error c not_arr

let[@inline] lognot_value c v =
  match v with
  | Value.Vint n -> bool_to_value (n = 0)
  | Value.Vfloat x -> bool_to_value (x = 0.0)
  | Value.Varr_int _ | Value.Varr_float _ -> type_error c "lognot of array"

let rec compile_expr env (e : Ast.expr) : ecode =
  match e with
  | Ast.Int n ->
    let v = Value.Vint n in
    if env.heavy then fun c _f ->
      c.sh <- unshadowed;
      v
    else fun _c _f -> v
  | Ast.Float x ->
    let v = Value.Vfloat x in
    if env.heavy then fun c _f ->
      c.sh <- unshadowed;
      v
    else fun _c _f -> v
  | Ast.Var name ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    if env.heavy then fun c f ->
      if f.bnd.(i) then begin
        load_shadow c f i;
        f.vals.(i)
      end
      else type_error c msg
    else fun c f -> slot_value c f i msg
  | Ast.Len name ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    if env.heavy then fun c f ->
      let v = len_value c (slot_value c f i msg) in
      c.sh <- unshadowed;
      v
    else fun c f -> len_value c (slot_value c f i msg)
  | Ast.Idx (name, ie) ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    let not_arr = name ^ " is not an array" in
    (* index shadow is discarded; simple index shapes fuse like binop
       operands (the array lookup still happens first: Interp's order) *)
    let fetch_index : ctx -> frame -> int =
      match operand (light env) ie with
      | Oconst v ->
        fun c _f -> as_int c v
      | Oslot (ii, mi) -> fun c f -> as_int c (slot_value c f ii mi)
      | Ocode ci -> fun c f -> as_int c (ci c f)
    in
    if env.heavy then fun c f ->
      (* lookup first, index second: Interp.eval's order *)
      let v = slot_value c f i msg in
      let r = idx_value c name not_arr v (fetch_index c f) in
      c.sh <- unshadowed;
      r
    else fun c f ->
      let v = slot_value c f i msg in
      idx_value c name not_arr v (fetch_index c f)
  | Ast.Unop (Ast.Neg, e1) ->
    let ce = compile_expr env e1 in
    if env.heavy then fun c f ->
      match ce c f with
      | Value.Vint n ->
        if c.sh = sym then c.sh_exp <- Smt.Linexp.neg c.sh_exp;
        Value.Vint (-n)
      | Value.Vfloat x ->
        c.sh <- unshadowed;
        Value.Vfloat (-.x)
      | Value.Varr_int _ | Value.Varr_float _ -> type_error c "negation of array"
    else fun c f ->
      (match ce c f with
      | Value.Vint n -> Value.Vint (-n)
      | Value.Vfloat x -> Value.Vfloat (-.x)
      | Value.Varr_int _ | Value.Varr_float _ -> type_error c "negation of array")
  | Ast.Unop (Ast.Lognot, e1) ->
    let ce = compile_expr (light env) e1 in  (* operand shadow is discarded *)
    if env.heavy then fun c f ->
      let v = lognot_value c (ce c f) in
      c.sh <- unshadowed;
      v
    else fun c f -> lognot_value c (ce c f)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul) as op), ea, eb) when env.heavy ->
    (* linear: the only binops whose result shadow depends on their
       operands'; left operand first, as in the interpreter *)
    heavy_linear op (operand env ea) (operand env eb)
  | Ast.Binop (op, ea, eb) ->
    let le = light env in
    fuse_apply2 ~heavy:env.heavy op (operand le ea) (operand le eb)

and operand env (e : Ast.expr) : operand =
  match e with
  | Ast.Int n -> Oconst (Value.Vint n)
  | Ast.Float x -> Oconst (Value.Vfloat x)
  | Ast.Var name -> Oslot (slot env name, "undefined variable " ^ name)
  | Ast.Len _ | Ast.Idx _ | Ast.Unop _ | Ast.Binop _ -> Ocode (compile_expr env e)

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

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

(* Fused-condition comparison: like [apply2], [op] is a compile-time
   constant at every caller (always relational, guarded by
   [rel_of_binop]), so the matches compile to jump tables.  Truth
   values are [apply2]'s. *)
let rel_apply (op : Ast.binop) c va vb =
  match (va, vb) with
  | Value.Vint x, Value.Vint y -> (
    match op with
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> invalid_arg "Compile.rel_apply")
  | (Value.Vfloat _ | Value.Vint _), (Value.Vfloat _ | Value.Vint _) -> (
    let x = as_float c va and y = as_float c vb in
    match op with
    | Ast.Eq -> Float.equal x y
    | Ast.Ne -> not (Float.equal x y)
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | _ -> invalid_arg "Compile.rel_apply")
  | (Value.Varr_int _ | Value.Varr_float _), _
  | _, (Value.Varr_int _ | Value.Varr_float _) ->
    type_error c "arithmetic on array value"

(* A heavy relational condition's compile-time facts: its operator and
   relation, the branch statement's id, and whether an odd number of
   [!]s encloses it, so the statement's outcome is its own negated. *)
type site = { s_op : Ast.binop; s_rel : Smt.Constr.rel; s_id : int; s_flip : bool }

let[@inline] set_constr c cns taken =
  c.cs <- (if taken then cns else Smt.Constr.negate cns);
  c.has_cs <- true

(* [rel_apply] for the heavy tree, leaving a branch constraint in the
   register. With no symbolic side there is no constraint and no
   expression is built; a symbolic one is built only when the path log
   keeps it ([hooks.keeps]) for the statement's outcome, and vanishes if
   its variables cancel (a concrete branch). Float comparisons are
   concrete only (Interp re-evaluates the whole pure expression there;
   the values are identical). *)
let rel_apply_heavy s c va ta ea vb tb eb =
  let taken = rel_apply s.s_op c va vb in
  (match (va, vb) with
  | Value.Vint x, Value.Vint y ->
    if (ta = sym || tb = sym) && c.hooks.Interp.keeps ~id:s.s_id ~taken:(taken <> s.s_flip)
    then begin
      let exp = sym_sub x ta ea y tb eb in
      if Smt.Linexp.is_const exp = None then set_constr c (Smt.Constr.make exp s.s_rel) taken
    end
  | _ -> ());
  taken

(* The nine operand shapes of a heavy relational condition, as
   [heavy_linear]'s. *)
let heavy_rel s (oa : operand) (ob : operand) : ccode =
  match (oa, ob) with
  | Oconst va, Oconst vb ->
    fun c _f -> rel_apply_heavy s c va unshadowed no_exp vb unshadowed no_exp
  | Oconst va, Oslot (ib, mb) ->
    fun c f ->
      let vb = slot_value c f ib mb in
      rel_apply_heavy s c va unshadowed no_exp vb f.shs.(ib) f.exps.(ib)
  | Oconst va, Ocode cb ->
    fun c f ->
      let vb = cb c f in
      rel_apply_heavy s c va unshadowed no_exp vb c.sh c.sh_exp
  | Oslot (ia, ma), Oconst vb ->
    fun c f ->
      let va = slot_value c f ia ma in
      rel_apply_heavy s c va f.shs.(ia) f.exps.(ia) vb unshadowed no_exp
  | Oslot (ia, ma), Oslot (ib, mb) ->
    fun c f ->
      let va = slot_value c f ia ma in
      let vb = slot_value c f ib mb in
      rel_apply_heavy s c va f.shs.(ia) f.exps.(ia) vb f.shs.(ib) f.exps.(ib)
  | Oslot (ia, ma), Ocode cb ->
    fun c f ->
      let va = slot_value c f ia ma in
      let vb = cb c f in
      rel_apply_heavy s c va f.shs.(ia) f.exps.(ia) vb c.sh c.sh_exp
  | Ocode ca, Oconst vb ->
    fun c f ->
      let va = ca c f in
      rel_apply_heavy s c va c.sh c.sh_exp vb unshadowed no_exp
  | Ocode ca, Oslot (ib, mb) ->
    fun c f ->
      let va = ca c f in
      let ta = c.sh and ea = c.sh_exp in
      let vb = slot_value c f ib mb in
      rel_apply_heavy s c va ta ea vb f.shs.(ib) f.exps.(ib)
  | Ocode ca, Ocode cb ->
    fun c f ->
      let va = ca c f in
      let ta = c.sh and ea = c.sh_exp in
      let vb = cb c f in
      rel_apply_heavy s c va ta ea vb c.sh c.sh_exp

(* A heavy condition closure that builds a constraint leaves it in the
   register ([set_constr]); light ones never touch it (the statement
   layer passes [None]). [id] is the branch statement's and [flip] tells
   whether an odd number of [!]s encloses [e]. *)
let rec compile_cond env id ~flip (e : Ast.expr) : ccode =
  match e with
  | Ast.Binop (op, ea, eb) when rel_of_binop op <> None ->
    let rel = Option.get (rel_of_binop op) in
    if env.heavy then
      heavy_rel { s_op = op; s_rel = rel; s_id = id; s_flip = flip } (operand env ea)
        (operand env eb)
    else begin
      (* light conditions fuse simple operands exactly like light
         binops (left fetched first for interp fault order) *)
      let le = light env in
      match (operand le ea, operand le eb) with
      | Ocode ca, Ocode cb ->
        fun c f ->
          let va = ca c f in
          let vb = cb c f in
          rel_apply op c va vb
      | Ocode ca, Oconst vb -> fun c f -> rel_apply op c (ca c f) vb
      | Ocode ca, Oslot (ib, mb) ->
        fun c f ->
          let va = ca c f in
          let vb = if f.bnd.(ib) then f.vals.(ib) else type_error c mb in
          rel_apply op c va vb
      | Oconst va, Ocode cb ->
        fun c f ->
          let vb = cb c f in
          rel_apply op c va vb
      | Oconst va, Oconst vb -> fun c _f -> rel_apply op c va vb
      | Oconst va, Oslot (ib, mb) ->
        fun c f ->
          let vb = if f.bnd.(ib) then f.vals.(ib) else type_error c mb in
          rel_apply op c va vb
      | Oslot (ia, ma), Ocode cb ->
        fun c f ->
          let va = if f.bnd.(ia) then f.vals.(ia) else type_error c ma in
          let vb = cb c f in
          rel_apply op c va vb
      | Oslot (ia, ma), Oconst vb ->
        fun c f ->
          let va = if f.bnd.(ia) then f.vals.(ia) else type_error c ma in
          rel_apply op c va vb
      | Oslot (ia, ma), Oslot (ib, mb) ->
        fun c f ->
          let va = if f.bnd.(ia) then f.vals.(ia) else type_error c ma in
          let vb = if f.bnd.(ib) then f.vals.(ib) else type_error c mb in
          rel_apply op c va vb
    end
  | Ast.Unop (Ast.Lognot, inner) ->
    (* the inner constraint already holds for the values that were
       observed; negation flips only the boolean outcome *)
    let cc = compile_cond env id ~flip:(not flip) inner in
    fun c f -> not (cc c f)
  | Ast.Int _ | Ast.Float _ | Ast.Var _ | Ast.Idx _ | Ast.Len _
  | Ast.Unop (Ast.Neg, _) | Ast.Binop _ ->
    (* C semantics: if (e) means e != 0 *)
    let ce = compile_expr env e in
    if env.heavy then fun c f ->
      match ce c f with
      | Value.Vint n ->
        let taken = n <> 0 in
        if c.sh = sym
           && Smt.Linexp.is_const c.sh_exp = None
           && c.hooks.Interp.keeps ~id ~taken:(taken <> flip)
        then set_constr c (Smt.Constr.make c.sh_exp Smt.Constr.Ne) taken;
        taken
      | Value.Vfloat x -> x <> 0.0
      | Value.Varr_int _ | Value.Varr_float _ -> type_error c "array used as condition"
    else fun c f ->
      (match ce c f with
      | Value.Vint n -> n <> 0
      | Value.Vfloat x -> x <> 0.0
      | Value.Varr_int _ | Value.Varr_float _ -> type_error c "array used as condition")

(* ------------------------------------------------------------------ *)
(* MPI plumbing                                                        *)
(* ------------------------------------------------------------------ *)

let expect_int c = function
  | Mpi_iface.Rint n -> n
  | Mpi_iface.Runit | Mpi_iface.Rvalue _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
    type_error c "MPI reply: expected an int"

let expect_value c = function
  | Mpi_iface.Rvalue v -> v
  | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
    type_error c "MPI reply: expected a value"

let compile_comm env = function
  | Ast.World -> fun _c _f -> Mpi_iface.world
  | Ast.Comm_var name ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    fun c f -> as_int c (if f.bnd.(i) then f.vals.(i) else type_error c msg)

(* MPI operand shadows are always discarded by the interpreter, so every
   operand compiles through the light expression compiler. *)
let cint env e =
  let ce = compile_expr (light env) e in
  fun c f -> as_int c (ce c f)

let cint_opt env = function
  | None -> fun _c _f -> None
  | Some e ->
    let ci = cint env e in
    fun c f -> Some (ci c f)

let expr_of_lval = function
  | Ast.Lvar name -> Ast.Var name
  | Ast.Lidx (name, e) -> Ast.Idx (name, e)

(* Store a scalar-or-array MPI payload into an lval: Interp.store_lval.
   The Lidx case mirrors the interpreter's synthetic [Assign (Lidx _)]:
   the array-payload error fires before the synthetic statement's tick,
   and the tick precedes the index evaluation. *)
let compile_store env (lv : Ast.lval) : ctx -> frame -> Value.t -> unit =
  match lv with
  | Ast.Lvar name ->
    let i = slot env name in
    if env.heavy then fun c f value ->
      if f.bnd.(i) then begin
        f.vals.(i) <-
          (match f.vals.(i) with
          | Value.Vint _ -> coerce c Ast.Tint value
          | Value.Vfloat _ -> coerce c Ast.Tfloat value
          | Value.Varr_int _ | Value.Varr_float _ -> value);
        f.shs.(i) <- unshadowed
      end
      else begin
        f.vals.(i) <- value;
        f.shs.(i) <- unshadowed;
        f.bnd.(i) <- true
      end
    else fun c f value ->
      if f.bnd.(i) then
        f.vals.(i) <-
          (match f.vals.(i) with
          | Value.Vint _ -> coerce c Ast.Tint value
          | Value.Vfloat _ -> coerce c Ast.Tfloat value
          | Value.Varr_int _ | Value.Varr_float _ -> value)
      else begin
        f.vals.(i) <- value;
        f.bnd.(i) <- true
      end
  | Ast.Lidx (name, ie) ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    let not_arr = name ^ " is not an array" in
    let ci = compile_expr (light env) ie in
    fun c f value ->
      (match value with
      | Value.Varr_int _ | Value.Varr_float _ ->
        type_error c "cannot store array into array cell"
      | Value.Vint _ | Value.Vfloat _ -> ());
      tick c;  (* the synthetic Assign statement's tick *)
      let index = as_int c (ci c f) in
      if not f.bnd.(i) then type_error c msg;
      let check len =
        if index < 0 || index >= len then
          fault (Fault.Segfault { array = name; index; length = len; func = c.func })
      in
      match f.vals.(i) with
      | Value.Varr_int a ->
        check (Array.length a);
        a.(index) <- as_int c value
      | Value.Varr_float a ->
        check (Array.length a);
        a.(index) <- as_float c value
      | Value.Vint _ | Value.Vfloat _ -> type_error c not_arr

(* Bind a fresh slot the way Hashtbl.replace binds a fresh name, to an
   unshadowed value. *)
let set_slot env i =
  if env.heavy then fun f value ->
    f.vals.(i) <- value;
    f.shs.(i) <- unshadowed;
    f.bnd.(i) <- true
  else fun f value ->
    f.vals.(i) <- value;
    f.bnd.(i) <- true

(* [set_slot] in the heavy tree, with a hook's shadow. *)
let bind_shadowed f i value shadow =
  f.vals.(i) <- value;
  store_option f i shadow;
  f.bnd.(i) <- true

(* Operand evaluation order below follows the interpreter exactly — and
   the interpreter builds Mpi_iface request records inline, so it
   inherits OCaml's right-to-left record-field evaluation. Each compiled
   case spells that order out with explicit lets. *)
let compile_mpi env (m : Ast.mpi) : scode =
  match m with
  | Ast.Comm_rank (cref, var) ->
    let ch = compile_comm env cref in
    let i = slot env var in
    let set = set_slot env i in
    let is_world = cref = Ast.World in
    if env.heavy then fun c f ->
      let comm = ch c f in
      let rank = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Rank comm)) in
      let kind = if is_world then Interp.Rank_world else Interp.Rank_comm comm in
      let shadow = c.hooks.Interp.on_mpi_sem kind rank in
      bind_shadowed f i (Value.Vint rank) shadow
    else fun c f ->
      let comm = ch c f in
      let rank = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Rank comm)) in
      set f (Value.Vint rank)
  | Ast.Comm_size (cref, var) ->
    let ch = compile_comm env cref in
    let i = slot env var in
    let set = set_slot env i in
    let is_world = cref = Ast.World in
    if env.heavy then fun c f ->
      let comm = ch c f in
      let size = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Size comm)) in
      let kind = if is_world then Interp.Size_world else Interp.Size_comm comm in
      let shadow = c.hooks.Interp.on_mpi_sem kind size in
      bind_shadowed f i (Value.Vint size) shadow
    else fun c f ->
      let comm = ch c f in
      let size = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Size comm)) in
      set f (Value.Vint size)
  | Ast.Comm_split { comm; color; key; into } ->
    let ch = compile_comm env comm in
    let ccolor = cint env color in
    let ckey = cint env key in
    let set = set_slot env (slot env into) in
    fun c f ->
      let key = ckey c f in
      let color = ccolor c f in
      let comm = ch c f in
      let reply = c.hooks.Interp.mpi (Mpi_iface.Split { comm; color; key }) in
      set f (Value.Vint (expect_int c reply))
  | Ast.Barrier comm ->
    let ch = compile_comm env comm in
    fun c f ->
      let _ = c.hooks.Interp.mpi (Mpi_iface.Barrier (ch c f)) in
      ()
  | Ast.Send { comm; dest; tag; data } ->
    let cd = compile_expr (light env) data in
    let ctag = cint env tag in
    let cdest = cint env dest in
    let ch = compile_comm env comm in
    fun c f ->
      let v = cd c f in
      let tag = ctag c f in
      let dest = cdest c f in
      let comm = ch c f in
      let _ =
        c.hooks.Interp.mpi (Mpi_iface.Send { comm; dest; tag; data = Value.copy v })
      in
      ()
  | Ast.Recv { comm; src; tag; into } ->
    let ctag = cint_opt env tag in
    let csrc = cint_opt env src in
    let ch = compile_comm env comm in
    let store = compile_store env into in
    fun c f ->
      let tag = ctag c f in
      let src = csrc c f in
      let comm = ch c f in
      let reply = c.hooks.Interp.mpi (Mpi_iface.Recv { comm; src; tag }) in
      store c f (expect_value c reply)
  | Ast.Isend { comm; dest; tag; data; req } ->
    let cd = compile_expr (light env) data in
    let ctag = cint env tag in
    let cdest = cint env dest in
    let ch = compile_comm env comm in
    let set = set_slot env (slot env req) in
    fun c f ->
      let v = cd c f in
      let tag = ctag c f in
      let dest = cdest c f in
      let comm = ch c f in
      let reply =
        c.hooks.Interp.mpi (Mpi_iface.Isend { comm; dest; tag; data = Value.copy v })
      in
      set f (Value.Vint (expect_int c reply))
  | Ast.Irecv { comm; src; tag; req } ->
    let ctag = cint_opt env tag in
    let csrc = cint_opt env src in
    let ch = compile_comm env comm in
    let set = set_slot env (slot env req) in
    fun c f ->
      let tag = ctag c f in
      let src = csrc c f in
      let comm = ch c f in
      let reply = c.hooks.Interp.mpi (Mpi_iface.Irecv { comm; src; tag }) in
      set f (Value.Vint (expect_int c reply))
  | Ast.Wait { req; into } -> (
    let creq = cint env req in
    match into with
    | Some lv ->
      let store = compile_store env lv in
      fun c f -> (
        match c.hooks.Interp.mpi (Mpi_iface.Wait (creq c f)) with
        | Mpi_iface.Runit -> ()  (* completed isend *)
        | Mpi_iface.Rvalue v -> store c f v
        | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
          type_error c "MPI reply: bad wait reply")
    | None ->
      fun c f -> (
        match c.hooks.Interp.mpi (Mpi_iface.Wait (creq c f)) with
        | Mpi_iface.Runit | Mpi_iface.Rvalue _ -> ()
        | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ | Mpi_iface.Rnone ->
          type_error c "MPI reply: bad wait reply"))
  | Ast.Bcast { comm; root; data } ->
    let ch = compile_comm env comm in
    let croot = cint env root in
    let cpayload = compile_expr (light env) (expr_of_lval data) in
    let store = compile_store env data in
    fun c f ->
      let comm_h = ch c f in
      let root_v = croot c f in
      let my_rank = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Rank comm_h)) in
      let payload =
        if my_rank = root_v then Some (Value.copy (cpayload c f)) else None
      in
      let reply =
        c.hooks.Interp.mpi
          (Mpi_iface.Bcast { comm = comm_h; root = root_v; data = payload })
      in
      store c f (expect_value c reply)
  | Ast.Reduce { comm; op; root; data; into } ->
    let cd = compile_expr (light env) data in
    let croot = cint env root in
    let ch = compile_comm env comm in
    let mop = Mpi_iface.reduce_op_of_ast op in
    let store = compile_store env into in
    fun c f -> (
      let v = cd c f in
      let root = croot c f in
      let comm = ch c f in
      let reply =
        c.hooks.Interp.mpi
          (Mpi_iface.Reduce { comm; op = mop; root; data = Value.copy v })
      in
      match reply with
      | Mpi_iface.Rnone -> ()  (* non-root *)
      | Mpi_iface.Rvalue result -> store c f result
      | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ ->
        type_error c "MPI reply: bad reduce reply")
  | Ast.Allreduce { comm; op; data; into } ->
    let cd = compile_expr (light env) data in
    let ch = compile_comm env comm in
    let mop = Mpi_iface.reduce_op_of_ast op in
    let store = compile_store env into in
    fun c f ->
      let v = cd c f in
      let comm = ch c f in
      let reply =
        c.hooks.Interp.mpi (Mpi_iface.Allreduce { comm; op = mop; data = Value.copy v })
      in
      store c f (expect_value c reply)
  | Ast.Gather { comm; root; data; into } ->
    let cd = compile_expr (light env) data in
    let croot = cint env root in
    let ch = compile_comm env comm in
    let set = set_slot env (slot env into) in
    fun c f -> (
      let v = cd c f in
      let root = croot c f in
      let comm = ch c f in
      let reply =
        c.hooks.Interp.mpi (Mpi_iface.Gather { comm; root; data = Value.copy v })
      in
      match reply with
      | Mpi_iface.Rnone -> ()
      | Mpi_iface.Rvalue arr -> set f arr
      | Mpi_iface.Runit | Mpi_iface.Rint _ | Mpi_iface.Rvalues _ ->
        type_error c "MPI reply: bad gather reply")
  | Ast.Scatter { comm; root; data; into } ->
    let ch = compile_comm env comm in
    let croot = cint env root in
    let i_data = slot env data in
    let data_msg = "undefined variable " ^ data in
    let store = compile_store env into in
    fun c f ->
      let comm_h = ch c f in
      let root_v = croot c f in
      let my_rank = expect_int c (c.hooks.Interp.mpi (Mpi_iface.Rank comm_h)) in
      let payload =
        if my_rank = root_v then
          Some
            (Value.copy
               (if f.bnd.(i_data) then f.vals.(i_data) else type_error c data_msg))
        else None
      in
      let reply =
        c.hooks.Interp.mpi
          (Mpi_iface.Scatter { comm = comm_h; root = root_v; data = payload })
      in
      store c f (expect_value c reply)
  | Ast.Allgather { comm; data; into } ->
    let cd = compile_expr (light env) data in
    let ch = compile_comm env comm in
    let set = set_slot env (slot env into) in
    fun c f ->
      let v = cd c f in
      let comm = ch c f in
      let reply =
        c.hooks.Interp.mpi (Mpi_iface.Allgather { comm; data = Value.copy v })
      in
      set f (expect_value c reply)
  | Ast.Alltoall { comm; data; into } ->
    let i_data = slot env data in
    let data_msg = "undefined variable " ^ data in
    let ch = compile_comm env comm in
    let set = set_slot env (slot env into) in
    fun c f ->
      let v =
        Value.copy (if f.bnd.(i_data) then f.vals.(i_data) else type_error c data_msg)
      in
      let comm = ch c f in
      let reply = c.hooks.Interp.mpi (Mpi_iface.Alltoall { comm; data = v }) in
      set f (expect_value c reply)

(* ------------------------------------------------------------------ *)
(* Statements (CPS: each closure ends by running the rest of the block) *)
(* ------------------------------------------------------------------ *)

(* A heavy branch statement's [on_branch], with the constraint its
   condition left in the register, which it clears. *)
let report_branch c id taken =
  if c.has_cs then begin
    c.has_cs <- false;
    c.hooks.Interp.on_branch ~id ~taken ~constr:(Some c.cs)
  end
  else c.hooks.Interp.on_branch ~id ~taken ~constr:None

let rec compile_block env block (k : scode) : scode =
  List.fold_right (compile_stmt env) block k

and compile_stmt env (stmt : Ast.stmt) (k : scode) : scode =
  match stmt with
  | Ast.Nop ->
    fun c f ->
      tick c;
      k c f
  | Ast.Decl (name, Ast.Tint, e) ->
    let i = slot env name in
    let ce = compile_expr env e in
    if env.heavy then fun c f ->
      tick c;
      f.vals.(i) <- coerce c Ast.Tint (ce c f);
      store_shadow c f i;
      f.bnd.(i) <- true;
      k c f
    else fun c f ->
      tick c;
      f.vals.(i) <- coerce c Ast.Tint (ce c f);
      f.bnd.(i) <- true;
      k c f
  | Ast.Decl (name, Ast.Tfloat, e) ->
    (* a float's shadow is always None: the rhs compiles light *)
    let i = slot env name in
    let ce = compile_expr (light env) e in
    if env.heavy then fun c f ->
      tick c;
      f.vals.(i) <- coerce c Ast.Tfloat (ce c f);
      f.shs.(i) <- unshadowed;
      f.bnd.(i) <- true;
      k c f
    else fun c f ->
      tick c;
      f.vals.(i) <- coerce c Ast.Tfloat (ce c f);
      f.bnd.(i) <- true;
      k c f
  | Ast.Decl_arr (name, ctype, size_e) ->
    let i = slot env name in
    let cs = compile_expr (light env) size_e in
    let set = set_slot env i in
    fun c f ->
      tick c;
      let n = as_int c (cs c f) in
      if n < 0 then
        fault (Fault.Segfault { array = name; index = n; length = 0; func = c.func });
      set f (zero_value ctype n);
      k c f
  | Ast.Assign (Ast.Lvar name, e) ->
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    let ce = compile_expr env e in
    if env.heavy then fun c f ->
      tick c;
      let v = ce c f in
      (* the rhs's shadow stays in the register: nothing below evaluates *)
      if not f.bnd.(i) then type_error c msg;  (* lookup after rhs eval *)
      let value =
        match f.vals.(i) with
        | Value.Vint _ -> coerce c Ast.Tint v
        | Value.Vfloat _ -> coerce c Ast.Tfloat v
        | Value.Varr_int _ | Value.Varr_float _ -> (
          (* whole-array assignment: only from another array *)
          match v with
          | Value.Varr_int _ | Value.Varr_float _ -> v
          | Value.Vint _ | Value.Vfloat _ -> type_error c "scalar into array variable")
      in
      f.vals.(i) <- value;
      (match value with Value.Vint _ -> store_shadow c f i | _ -> f.shs.(i) <- unshadowed);
      k c f
    else fun c f ->
      tick c;
      let v = ce c f in
      if not f.bnd.(i) then type_error c msg;
      f.vals.(i) <-
        (match f.vals.(i) with
        | Value.Vint _ -> coerce c Ast.Tint v
        | Value.Vfloat _ -> coerce c Ast.Tfloat v
        | Value.Varr_int _ | Value.Varr_float _ -> (
          match v with
          | Value.Varr_int _ | Value.Varr_float _ -> v
          | Value.Vint _ | Value.Vfloat _ -> type_error c "scalar into array variable"));
      k c f
  | Ast.Assign (Ast.Lidx (name, ie), e) ->
    (* index and rhs shadows are both discarded: compile light *)
    let i = slot env name in
    let msg = "undefined variable " ^ name in
    let not_arr = name ^ " is not an array" in
    let le = light env in
    let ci = compile_expr le ie in
    let ce = compile_expr le e in
    fun c f ->
      tick c;
      let index = as_int c (ci c f) in
      let v = ce c f in
      if not f.bnd.(i) then type_error c msg;
      let check len =
        if index < 0 || index >= len then
          fault (Fault.Segfault { array = name; index; length = len; func = c.func })
      in
      (match f.vals.(i) with
      | Value.Varr_int a ->
        check (Array.length a);
        a.(index) <- as_int c v
      | Value.Varr_float a ->
        check (Array.length a);
        a.(index) <- as_float c v
      | Value.Vint _ | Value.Vfloat _ -> type_error c not_arr);
      k c f
  | Ast.If { id; cond; then_; else_ } ->
    let cc = compile_cond env id ~flip:false cond in
    let ct = compile_block env then_ k in
    let ce = compile_block env else_ k in
    if env.heavy then fun c f ->
      tick c;
      let taken = cc c f in
      report_branch c id taken;
      if taken then ct c f else ce c f
    else fun c f ->
      tick c;
      let taken = cc c f in
      c.hooks.Interp.on_branch ~id ~taken ~constr:None;
      if taken then ct c f else ce c f
  | Ast.While { id; cond; body } ->
    let cc = compile_cond env id ~flip:false cond in
    let body_ref = ref (fun _c _f -> ()) in
    let loop =
      if env.heavy then fun c f ->
        tick c;
        let taken = cc c f in
        report_branch c id taken;
        if taken then !body_ref c f else k c f
      else fun c f ->
        tick c;
        let taken = cc c f in
        c.hooks.Interp.on_branch ~id ~taken ~constr:None;
        if taken then !body_ref c f else k c f
    in
    body_ref := compile_block env body loop;
    fun c f ->
      tick c;  (* the While statement's own tick; loop ticks per iteration *)
      loop c f
  | Ast.Call (name, args) ->
    let call = compile_call env name args in
    fun c f ->
      tick c;
      let _ = call c f in
      k c f
  | Ast.Call_assign (dst, name, args) ->
    let call = compile_call env name args in
    let i = slot env dst in
    let msg = "undefined variable " ^ dst in
    let none_msg = name ^ " returned no value" in
    if env.heavy then fun c f ->
      tick c;
      (match call c f with
      | Some v -> (
        (* the returned value's shadow is in the register *)
        if not f.bnd.(i) then type_error c msg;
        f.vals.(i) <-
          (match f.vals.(i) with
          | Value.Vint _ -> coerce c Ast.Tint v
          | Value.Vfloat _ -> coerce c Ast.Tfloat v
          | Value.Varr_int _ | Value.Varr_float _ -> v);
        match f.vals.(i) with
        | Value.Vint _ -> store_shadow c f i
        | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _ -> f.shs.(i) <- unshadowed)
      | None -> type_error c none_msg);
      k c f
    else fun c f ->
      tick c;
      (match call c f with
      | Some v ->
        if not f.bnd.(i) then type_error c msg;
        f.vals.(i) <-
          (match f.vals.(i) with
          | Value.Vint _ -> coerce c Ast.Tint v
          | Value.Vfloat _ -> coerce c Ast.Tfloat v
          | Value.Varr_int _ | Value.Varr_float _ -> v)
      | None -> type_error c none_msg);
      k c f
  | Ast.Return None ->
    (* set the return register and fall off the closure chain (no [k]):
       every enclosing statement's continuation call is in tail
       position, so control lands back at the call site *)
    fun c _f ->
      tick c;
      c.ret <- None;
      c.returning <- true
  | Ast.Return (Some e) ->
    let ce = compile_expr env e in
    fun c f ->
      tick c;
      (* a heavy [ce] leaves the value's shadow in the register *)
      c.ret <- Some (ce c f);
      c.returning <- true
  | Ast.Assert (cond, message) ->
    (* the constraint is discarded, so even the heavy tree uses the
       light condition compiler (shadow computation is pure) *)
    let cc = compile_cond (light env) 0 ~flip:false cond in
    fun c f ->
      tick c;
      if not (cc c f) then fault (Fault.Assert_fail { message; func = c.func });
      k c f
  | Ast.Abort message ->
    fun c _f ->
      tick c;
      fault (Fault.Abort_called { message; func = c.func })
  | Ast.Exit code ->
    let ce = compile_expr (light env) code in
    fun c f ->
      tick c;
      raise (Exit_exn (as_int c (ce c f)))
  | Ast.Input decl ->
    let i = slot env decl.Ast.iname in
    let set = set_slot env i in
    if env.heavy then fun c f ->
      tick c;
      let concrete = c.hooks.Interp.input_value decl in
      let shadow = c.hooks.Interp.on_input decl concrete in
      bind_shadowed f i (Value.Vint concrete) shadow;
      k c f
    else fun c f ->
      tick c;
      set f (Value.Vint (c.hooks.Interp.input_value decl));
      k c f
  | Ast.Mpi m ->
    let cm = compile_mpi env m in
    fun c f ->
      tick c;
      cm c f;
      k c f

and compile_call env name args : ctx -> frame -> Value.t option
    =
  match Hashtbl.find_opt env.funcs name with
  | None ->
    (* resolved at compile time; faults at run time like the interpreter,
       before any argument is evaluated *)
    let msg = Printf.sprintf "undefined function %s" name in
    fun c _f -> type_error c msg
  | Some cf ->
    if List.length cf.cf_params <> List.length args then begin
      let msg = Printf.sprintf "arity mismatch calling %s" name in
      fun c _f -> type_error c msg
    end
    else begin
      let binders =
        Array.of_list
          (List.map2
             (fun (pslot, ctype) arg ->
               let ca = compile_expr env arg in
               if env.heavy then fun c f nf ->
                 let v = ca c f in
                 let value =
                   match v with
                   | Value.Vint _ | Value.Vfloat _ -> coerce c ctype v
                   | Value.Varr_int _ | Value.Varr_float _ -> v
                   (* arrays pass by reference *)
                 in
                 nf.vals.(pslot) <- value;
                 (match value with
                 | Value.Vint _ -> store_shadow c nf pslot
                 | Value.Vfloat _ | Value.Varr_int _ | Value.Varr_float _ ->
                   nf.shs.(pslot) <- unshadowed);
                 nf.bnd.(pslot) <- true
               else fun c f nf ->
                 let v = ca c f in
                 nf.vals.(pslot) <-
                   (match v with
                   | Value.Vint _ | Value.Vfloat _ -> coerce c ctype v
                   | Value.Varr_int _ | Value.Varr_float _ -> v);
                 nf.bnd.(pslot) <- true)
             cf.cf_params args)
      in
      let heavy = env.heavy in
      let idx = cf.cf_index in
      let fname = cf.cf_name in
      let nslots = cf.cf_nslots in
      fun c f ->
        let nf =
          match c.pools.(idx) with
          | fr :: rest ->
            c.pools.(idx) <- rest;
            fr
          | [] -> make_frame heavy nslots
        in
        for i = 0 to Array.length binders - 1 do
          binders.(i) c f nf
        done;
        let saved = c.func in
        c.func <- fname;
        c.hooks.Interp.on_func_enter fname;
        cf.cf_body c nf;
        let result =
          if c.returning then begin
            c.returning <- false;
            let r = c.ret in
            c.ret <- None;
            r
          end
          else None
        in
        (* not restored on a fault, matching the interpreter's reports;
           a fault (or exit) also skips the frame recycle below — the
           execution is over, the frame is garbage *)
        c.func <- saved;
        (* recycle: clearing [bnd] is enough to make the frame fresh —
           every read is bnd-guarded and every bind rewrites val (and
           shadow, in heavy frames) before setting its bit *)
        Array.fill nf.bnd 0 nslots false;
        c.pools.(idx) <- nf :: c.pools.(idx);
        result
    end

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)
(* ------------------------------------------------------------------ *)

type entrycode = ctx -> unit

let compile_variant ~heavy (program : Ast.program) : entrycode * int * int =
  let funcs = Hashtbl.create 16 in
  (* pass 1: register every function (first definition wins, matching
     Ast.find_func) so calls resolve regardless of definition order *)
  let next_index = ref 0 in
  let uniq =
    List.filter_map
      (fun fn ->
        if Hashtbl.mem funcs fn.Ast.fname then None
        else begin
          let cf_slots, cf_nslots = collect_slots fn in
          let cf_params =
            List.map (fun (p, ty) -> (Hashtbl.find cf_slots p, ty)) fn.Ast.params
          in
          (* definition order is stable across the heavy and light
             passes, so [cf_index] means the same function in both
             variants and one per-run [pools] array serves either *)
          let cf_index = !next_index in
          incr next_index;
          let cf =
            {
              cf_index;
              cf_name = fn.Ast.fname;
              cf_params;
              cf_nslots;
              cf_slots;
              cf_body = (fun _c _f -> ());
            }
          in
          Hashtbl.add funcs fn.Ast.fname cf;
          Some (fn, cf)
        end)
      program.Ast.funcs
  in
  (* pass 2: compile bodies (recursion and forward references resolve
     through the mutable cf_body field) *)
  List.iter
    (fun (fn, cf) ->
      let env = { heavy; slots = cf.cf_slots; funcs } in
      cf.cf_body <- compile_block env fn.Ast.body (fun _c _f -> ()))
    uniq;
  let n_slots = List.fold_left (fun n (_, cf) -> n + cf.cf_nslots) 0 uniq in
  let entry =
    match Ast.find_func program program.Ast.entry with
    | None ->
      let msg = Printf.sprintf "no entry function %s" program.Ast.entry in
      fun c -> type_error c msg
    | Some fn ->
      if fn.Ast.params <> [] then fun c ->
        type_error c "entry function takes no parameters"
      else begin
        let cf = Hashtbl.find funcs fn.Ast.fname in
        let fname = fn.Ast.fname in
        fun c ->
          c.hooks.Interp.on_func_enter fname;
          let f = make_frame heavy cf.cf_nslots in
          (try cf.cf_body c f with Exit_exn _ -> ());
          (* a top-level [return] just ends the run *)
          c.returning <- false;
          c.ret <- None
      end
  in
  (entry, List.length uniq, n_slots)

type t = {
  t_program : Ast.program;
  heavy_entry : entrycode;
  light_entry : entrycode;
  t_funcs : int;
  t_conds : int;
  t_slots : int;
}

let compile (program : Ast.program) : t =
  let heavy_entry, n_funcs, n_slots = compile_variant ~heavy:true program in
  let light_entry, _, _ = compile_variant ~heavy:false program in
  {
    t_program = program;
    heavy_entry;
    light_entry;
    t_funcs = n_funcs;
    t_conds = Ast.conditionals_in_program program;
    t_slots = n_slots;
  }

let program t = t.t_program
let funcs t = t.t_funcs
let conds t = t.t_conds
let slots t = t.t_slots

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let m_steps = Obs.Metrics.histogram "compiled.steps_per_run"

let run t (hooks : Interp.hooks) =
  (* same span discipline as Interp.run: one "compiled" span per
     simulated process, covering suspensions at MPI calls *)
  let tk0 = if Obs.Timeline.on () then Obs.Timeline.tick () else 0 in
  let c =
    {
      hooks;
      steps = 0;
      func = t.t_program.Ast.entry;
      sh = unshadowed;
      sh_exp = no_exp;
      has_cs = false;
      cs = no_constr;
      ret = None;
      returning = false;
      pools = Array.make (max 1 t.t_funcs) [];
    }
  in
  let entry =
    match hooks.Interp.mode with
    | Interp.Heavy -> t.heavy_entry
    | Interp.Light -> t.light_entry
  in
  let result =
    match entry c with () -> Ok () | exception Fault.Fault f -> Error f
  in
  Obs.Metrics.observe_int m_steps c.steps;
  if Obs.Timeline.on () then
    Obs.Timeline.record ~kind:"compiled" ~t0:tk0 ~t1:(Obs.Timeline.tick ());
  result
