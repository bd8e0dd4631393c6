(** Named campaign configurations — the paper's experiment arms.

    Each preset transforms a base {!Driver.settings} (usually derived
    from a target's tuning) into one of the configurations evaluated in
    section VI, so benchmarks and the CLI agree on what e.g. "NRBound"
    means. *)

type t =
  | Compi_default  (** R + two-way + framework + two-phase BoundedDFS *)
  | No_reduction_bounded of int  (** NRBound: reduction off, fixed bound *)
  | No_reduction_unlimited  (** NRUnl *)
  | One_way  (** one-way instrumentation (Table IV baseline) *)
  | No_framework  (** No_Fwk: fixed focus/process count, focus-only coverage *)
  | Strategy_of of Concolic.Strategy.kind  (** Figure 4 arms *)

val name : t -> string
val apply : t -> Driver.settings -> Driver.settings

val run :
  t -> settings:Driver.settings -> Minic.Branchinfo.t -> Driver.result
(** Run the configured campaign ({!Campaign.run} at its default engine
    settings) and return its summary; the [Random] baseline of Table VI
    is {!Random_testing.run} and needs no preset. *)
