open Gb_coproc
module Sim = Gb_util.Clock.Sim

let dev = Device.xeon_phi_5110p

let test_transfer_time_monotone () =
  Alcotest.(check bool) "more bytes, more time"
    (Device.transfer_time dev ~bytes:1_000_000
    < Device.transfer_time dev ~bytes:10_000_000)
    true

let test_transfer_spill_penalty () =
  let fits = Device.transfer_time dev ~bytes:dev.Device.memory_bytes in
  let spills = Device.transfer_time dev ~bytes:(2 * dev.Device.memory_bytes) in
  (* The spilling transfer must cost more than twice the fitting one
     (proportional cost would be exactly 2x minus latency). *)
  Alcotest.(check bool) "spill penalty" (spills > 2. *. fits) true

let test_speedups_ordered () =
  Alcotest.(check bool) "blas2 fastest"
    (dev.Device.speedup Device.Blas2 > dev.Device.speedup Device.Stat)
    true;
  Alcotest.(check bool) "light near 1"
    (dev.Device.speedup Device.Light < 1.5)
    true

let test_offload_beats_host_on_heavy_kernel () =
  let work () = Unix.sleepf 0.05 in
  let host = Sim.create () in
  Sim.run_measured host work;
  let phi = Sim.create () in
  Device.offload dev phi ~bytes_in:1_000_000 ~bytes_out:1_000 Device.Blas3 work;
  Alcotest.(check bool) "offload faster" (Sim.now phi < Sim.now host) true

let test_offload_loses_on_light_kernel_with_big_transfer () =
  let work () = Unix.sleepf 0.002 in
  let host = Sim.create () in
  Sim.run_measured host work;
  let phi = Sim.create () in
  Device.offload dev phi ~bytes_in:(8 * dev.Device.memory_bytes)
    ~bytes_out:1_000 Device.Light work;
  Alcotest.(check bool) "transfer dominates" (Sim.now phi > Sim.now host) true

let test_offload_returns_result () =
  let clock = Sim.create () in
  let v =
    Device.offload dev clock ~bytes_in:8 ~bytes_out:8 Device.Stat (fun () -> 42)
  in
  Alcotest.(check int) "result" 42 v

let suite =
  [
    ("transfer monotone", `Quick, test_transfer_time_monotone);
    ("transfer spill penalty", `Quick, test_transfer_spill_penalty);
    ("speedups ordered", `Quick, test_speedups_ordered);
    ("offload beats host (heavy)", `Quick, test_offload_beats_host_on_heavy_kernel);
    ("offload loses (light + transfer)", `Quick, test_offload_loses_on_light_kernel_with_big_transfer);
    ("offload returns result", `Quick, test_offload_returns_result);
  ]
