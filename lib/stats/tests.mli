(** False-discovery-rate control for the many-GO-terms setting of
    Query 5, where one Wilcoxon test runs per term. *)

val benjamini_hochberg : (int * float) list -> (int * float) list
(** [benjamini_hochberg results] converts raw p-values to BH-adjusted
    q-values, preserving the ids; output sorted ascending by q. *)
