(** Configuration 7: Hadoop — Hive for the data management, Mahout for the
    analytics. Runs only the queries Mahout can express (regression,
    covariance, SVD). Every step is MapReduce jobs over text records: job
    launch overhead plus no tuned linear algebra, hence "between one and
    two orders of magnitude worse performance than the best system". *)

val engine : Engine.t

val engine_multinode : ?fault:Gb_fault.Fault.plan -> nodes:int -> unit -> Engine.t
(** The same stack with maps/reduces spread over [nodes] (parallel
    efficiency < 1) and shuffle traffic charged to the interconnect.
    [?fault] arms a deterministic fault plan on the MapReduce runtime:
    [Task_fail] events cost Hadoop-style task re-attempts; jobs whose
    failures outlast the attempt budget surface as [Engine.Errored]. *)
