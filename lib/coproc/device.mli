(** Coprocessor offload model (the paper's Intel Xeon Phi 5110P study).

    The device is characterized by a PCIe link (latency + bandwidth), a
    memory capacity, and a per-kernel-class compute speedup relative to
    the host. [offload] charges transfer-in, runs the kernel for real on
    the host while dividing its measured time by the class speedup, then
    charges transfer-out — exactly the paper's trade: compute-heavy
    kernels win, light kernels (biclustering) don't, and data sets that
    exceed device memory pay extra movement. *)

type kernel_class =
  | Blas3 (** dense matrix-matrix: gemm, covariance, QR panels *)
  | Blas2 (** matrix-vector sweeps: Lanczos iterations *)
  | Stat (** ranking / rank-sum style scans *)
  | Light (** control-heavy, little arithmetic: biclustering *)

type t = {
  name : string;
  pcie_latency_s : float;
  pcie_bandwidth_bps : float;
  memory_bytes : int;
  speedup : kernel_class -> float;
}

val xeon_phi_5110p : t
(** 60 cores / 8 GB; speedups calibrated so the analytics speedups land in
    the paper's 1.2–2.9x band (memory capacity scaled down by the same
    factor as the data sets). *)

val transfer_time : t -> bytes:int -> float
(** Includes the spill penalty when [bytes] exceeds device memory. *)

val offload :
  t ->
  Gb_util.Clock.Sim.t ->
  bytes_in:int ->
  bytes_out:int ->
  kernel_class ->
  (unit -> 'a) ->
  'a
