(** Configuration 2: Postgres + MADlib.

    Analytics stay inside the DBMS. Linear regression runs as a native
    streaming aggregate (MADlib's C++ UDF path) and is fast; covariance
    and SVD are "simulated in SQL and plpython" — joins and aggregates
    over triple-form relations — and are interpreted and slow, often not
    finishing inside the benchmark window, as the paper reports.
    Biclustering is not available in MADlib. Data management is
    Postgres + R's: the {!Relops} plans over the same row stores, with
    Q2's and Q4's rows taken as triples before the pivot. *)

val engine : Engine.t
