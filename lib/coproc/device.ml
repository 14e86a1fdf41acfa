module Sim = Gb_util.Clock.Sim

type kernel_class = Blas3 | Blas2 | Stat | Light

type t = {
  name : string;
  pcie_latency_s : float;
  pcie_bandwidth_bps : float;
  memory_bytes : int;
  speedup : kernel_class -> float;
}

(* Device memory is scaled by the same factor as the data sets (the paper's
   8 GB / the 625x cell scale-down, rounded so the large set still fits, as
   observed in the paper). *)
let xeon_phi_5110p =
  {
    name = "Intel Xeon Phi 5110P (simulated)";
    pcie_latency_s = 20e-6;
    pcie_bandwidth_bps = 6e9;
    memory_bytes = 16 * 1024 * 1024;
    speedup =
      (function Blas3 -> 2.8 | Blas2 -> 3.1 | Stat -> 1.45 | Light -> 1.2);
  }

let transfer_time t ~bytes =
  let base = t.pcie_latency_s +. (float_of_int bytes /. t.pcie_bandwidth_bps) in
  if bytes <= t.memory_bytes then base
  else begin
    (* Working set exceeds device memory: excess pages stream back and
       forth during the computation. *)
    let excess = bytes - t.memory_bytes in
    base +. (3. *. float_of_int excess /. t.pcie_bandwidth_bps)
  end

let c_pcie_bytes = Gb_obs.Telemetry.counter ~help:"byte" "device_pcie_bytes"

let offload t clock ~bytes_in ~bytes_out cls f =
  Gb_obs.Telemetry.add c_pcie_bytes (bytes_in + bytes_out);
  let t_in = Sim.now clock in
  Sim.advance clock (transfer_time t ~bytes:bytes_in);
  let t_kernel = Sim.now clock in
  let result = Sim.run_scaled clock ~speedup:(t.speedup cls) f in
  let t_out = Sim.now clock in
  Sim.advance clock (transfer_time t ~bytes:bytes_out);
  Gb_obs.Obs.Span.emit ~cat:"device" ~name:"pcie:in"
    ~attrs:[ ("bytes", Gb_obs.Obs.Int bytes_in) ]
    ~t0:t_in ~t1:t_kernel ();
  Gb_obs.Obs.Span.emit ~cat:"device" ~name:"device:kernel"
    ~attrs:[ ("speedup", Gb_obs.Obs.Float (t.speedup cls)) ]
    ~t0:t_kernel ~t1:t_out ();
  Gb_obs.Obs.Span.emit ~cat:"device" ~name:"pcie:out"
    ~attrs:[ ("bytes", Gb_obs.Obs.Int bytes_out) ]
    ~t0:t_out ~t1:(Sim.now clock) ();
  result

let host_time clock f = Sim.run_measured clock f
