let () =
  Alcotest.run "genbase"
    [
      ("util", Test_util.suite);
      ("ranges", Test_ranges.suite);
      ("linalg", Test_linalg.suite);
      ("linalg-dense", Test_linalg2.suite);
      ("stats", Test_stats.suite);
      ("stats-tests", Test_stats2.suite);
      ("bicluster", Test_bicluster.suite);
      ("clustering", Test_clustering.suite);
      ("datagen", Test_datagen.suite);
      ("seqdata", Test_seqdata.suite);
      ("relational", Test_relational.suite);
      ("relational-access", Test_relational2.suite);
      ("storage", Test_storage.suite);
      ("dataframe", Test_dataframe.suite);
      ("arraydb", Test_arraydb.suite);
      ("mapreduce", Test_mapreduce.suite);
      ("cluster", Test_cluster.suite);
      ("fault", Test_fault.suite);
      ("coproc", Test_coproc.suite);
      ("relops", Test_relops.suite);
      ("core", Test_core.suite);
      ("par", Test_par.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("critpath", Test_critpath.suite);
      ("conformance", Test_conformance.suite);
      ("linalg-prop", Test_linalg_prop.suite);
      ("stream", Test_stream.suite);
      ("scaling", Test_scaling.suite);
    ]
