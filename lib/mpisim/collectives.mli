(** Pure semantics of the MPI collective operations.

    Given the per-participant payloads (indexed by local rank), compute
    the per-participant results. All functions return [Error message] on
    type or shape mismatches, which the scheduler converts into
    [Fault.Mpi_error] for every participant. A result never shares an
    array with a payload. *)

open Minic

val reduce : Mpi_iface.reduce_op -> Value.t array -> (Value.t, string) result
(** Element-wise for arrays; all payloads must have the same shape. The
    error names the first payload, by local rank, whose shape differs
    from local rank 0's. *)

val gather : Value.t array -> (Value.t, string) result
(** Scalars in local-rank order to one array. *)

val scatter : Value.t -> int -> (Value.t array, string) result
(** [scatter src n] hands element [i] of [src] (an array of length at
    least [n]) to local rank [i]. *)

val alltoall : Value.t array -> (Value.t array, string) result
(** [alltoall sends] where [sends] has one whole array per sender of
    length at least [n = Array.length sends]; result element for local
    rank [j] is the array of [sends.(i).(j)] over senders [i]. *)
