(** Configuration 6: SciDB (native array DBMS).

    Data lives as chunked arrays with metadata in 1-D attribute arrays, so
    selections are dimension filters and there is no table→array recast
    and no export: "an array DBMS like SciDB is very competitive on this
    benchmark". Analytics run as custom native code over the arrays. *)

val engine : Engine.t

val run_with_clock :
  ?offload:
    (Gb_coproc.Device.t)
    ->
  Dataset.t ->
  Query.t ->
  params:Query.params ->
  timeout_s:float ->
  Engine.outcome
(** Shared implementation: with [offload] set, analytics kernels are
    dispatched through the coprocessor model (configuration of Section 5).
    The array store is built when the data set is applied, so
    [run_with_clock ?offload ds] is a session; each query then runs on
    its own simulated clock and deadline. *)
