(** One-shot compiler from the checked, instrumented AST to OCaml
    closures.

    [compile program] is run once per campaign; the resulting {!t} is
    immutable and safe to share read-only across worker domains.  All
    per-execution state lives in a per-run frame allocated by {!run},
    so repeated runs against the same compiled program are independent.

    The compiled executor is observationally byte-identical to
    {!Interp.run}: same values, same faults (same messages, same
    ordering of operand evaluation), same step accounting against
    [step_limit], same [on_branch] / [on_input] / [on_func_enter] /
    [on_mpi_sem] hook invocations in the same order, and the same MPI
    calls issued through the same {!Interp.mpi_iface}.  The pure query
    [keeps] is not part of that stream: the heavy tree asks it only for
    a condition with a symbolic operand, so it may ask less often than
    the interpreter, with the same answers and the same [on_branch]
    events.  The qcheck differential suite in [test/test_compile.ml]
    enforces this.

    What is resolved at compile time: variable names to frame slots,
    function names and arities, entry-point lookup, per-operator
    arithmetic dispatch, branch ids, and — in the light variant — the
    entire symbolic shadow layer (light closures carry no shadow code
    at all; heavy closures drop shadow tracking for subexpressions
    whose shadows the interpreter provably discards). *)

type t
(** A compiled program: the two closure trees (heavy and light
    instrumentation variants) plus the source program and size
    statistics.  Immutable after construction. *)

val compile : Ast.program -> t
(** Compile every function of [program] in both heavy and light
    variants.  Raises [Invalid_argument] only on compiler bugs; all
    program-level errors (undefined functions, arity mismatches, bad
    entry point) are compiled into closures that fault exactly like the
    interpreter would at run time. *)

val run : t -> Interp.hooks -> (unit, Fault.t) result
(** Execute the compiled program under [hooks] — the same signature and
    semantics as {!Interp.run}.  Picks the heavy or light closure tree
    from [hooks.mode].  Emits a ["compiled"] timeline span and observes
    the run's step count in the [compiled.steps_per_run] histogram. *)

val program : t -> Ast.program
(** The source AST the program was compiled from. *)

val funcs : t -> int
(** Number of functions compiled. *)

val conds : t -> int
(** Number of conditional sites (branch ids pre-resolved). *)

val slots : t -> int
(** Total frame slots across all functions (compile-time name
    resolution replaces the interpreter's per-run hashtable frames). *)
