(** Configuration 6: SciDB (native array DBMS), and Section 5's SciDB +
    Xeon Phi.

    Data lives as chunked arrays with metadata in 1-D attribute arrays, so
    selections are dimension filters and there is no table→array recast
    and no export: "an array DBMS like SciDB is very competitive on this
    benchmark". Analytics run as custom native code over the arrays. The
    array store is built when [prepare] is applied; each query runs on
    its own simulated clock. *)

val engine : Engine.t

val phi : Engine.t
(** SciDB for data management with the analytics offloaded to the
    (simulated) Intel Xeon Phi coprocessor: each query's inputs cross
    PCIe and its measured kernel time is divided by the device's speedup
    for the kernel class. *)
