let engine =
  {
    Engine.name = "SciDB + Xeon Phi";
    kind = `Single_node;
    supports = (fun _ -> true);
    prepare =
      Engine_scidb.run_with_clock ~offload:Gb_coproc.Device.xeon_phi_5110p;
  }
