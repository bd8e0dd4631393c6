(** Campaign reports: coverage curves, uncovered-branch listings, and CSV
    export of the per-iteration statistics (the raw material of the
    paper's figures). *)

val coverage_curve : ?points:int -> Driver.result -> (int * int) list
(** [(iteration, covered_branches)] sampled at [points] positions
    (default 20), always including the final iteration. *)

val stats_csv : Driver.result -> string
(** One line per iteration:
    [iteration,nprocs,focus,cs_size,covered,reachable,faults,restarted,exec_s,solve_s]. *)

val bugs_csv : Driver.result -> string

val uncovered :
  Minic.Branchinfo.t -> Concolic.Coverage.t -> (int * bool * string) list
(** Branches of {e encountered} functions never taken:
    [(conditional id, direction, owning function)] — the targets left for
    the next campaign. *)

val annotate : Minic.Branchinfo.t -> Concolic.Coverage.t -> string
(** The pretty-printed program with each conditional's [/*id*/] marker
    replaced by its coverage status, e.g. [/*17 T+ F-*/]: the true side
    was covered, the false side never. *)
