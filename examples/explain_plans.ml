(* Query planning: the logical plans the SQL engines execute for the
   benchmark's data-management phases, shown after the optimizer's
   predicate pushdown, column pruning into the (columnar) scans and
   hash-join build-side selection, then run with estimated vs actual
   row counts per operator.

   dune exec examples/explain_plans.exe *)

open Gb_relational

let () =
  let ds =
    Genbase.Dataset.generate (Gb_datagen.Spec.custom ~genes:150 ~patients:300)
  in
  let cat =
    Genbase.Relops.catalog
      (Genbase.Engine_sql.make_db Col_backend ds ~check:ignore)
  in
  List.iter
    (fun (title, plan) ->
      Printf.printf "=== %s ===\n%s" title (Plan.explain cat plan);
      Printf.printf "%s\n" (Plan.explain_analyze cat plan))
    (Genbase.Relops.plans Genbase.Query.default_params
       ~n_patients:(Array.length ds.Gb_datagen.Generate.patients))
