(** The paper's multi-node configurations (Figures 3 and 4, Table 1):
    one superstep program per query over a per-node storage back end.

    The program is shared: cluster set-up, fault plan and deadline,
    ["phase"] spans, the ScaLAPACK-style {!Gb_cluster.Par_linalg}
    analytics, the head-node steps, Q3's gather to the head, Q5's
    allreduce of per-node sums and Q6's shuffle-by-genomic-bin. A back
    end builds its node stores when [prepare] is applied to a data set,
    and runs each query's per-node data management in its own
    supersteps:

    - pbdR holds block-row [Mat] slices of the expression matrix;
    - SciDB holds the same blocks as chunked arrays, and going
      multi-node redistributes the array before block-row analytics —
      the data movement the paper suspects makes SciDB slower on two
      nodes than on one;
    - the column store holds each node's microarray rows plus the small
      tables, replicated and shared by every node, and runs the
      relational plans per node. Behind pbdR each node's matrix crosses
      the CSV export boundary; behind UDFs the biclustering UDF keeps
      its chatty marshalling.

    [?fault] arms a deterministic fault plan on the simulated cluster,
    with a checkpoint every 4 supersteps (64 KiB per node) so a crash
    restores rather than re-executes from the start; absorbed faults
    surface as [Engine.Degraded] outcomes. *)

val pbdr : ?fault:Gb_fault.Fault.plan -> nodes:int -> unit -> Engine.t
val scidb : ?fault:Gb_fault.Fault.plan -> nodes:int -> unit -> Engine.t

val scidb_phi : nodes:int -> Engine.t
(** SciDB with one Xeon Phi per node: each node's block crosses PCIe and
    superstep compute is scaled by the device's kernel-class speedup. *)

val colstore_pbdr : ?fault:Gb_fault.Fault.plan -> nodes:int -> unit -> Engine.t
val colstore_udf : ?fault:Gb_fault.Fault.plan -> nodes:int -> unit -> Engine.t
