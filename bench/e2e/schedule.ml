(* Seeded load shapes. One root generator per run is split, in a fixed
   order, into the dataset seeds, the request order and the arrival
   times, so a seed pins all three and nothing else does. *)

module Prng = Gb_util.Prng

type streams = { datasets : Prng.t; order : Prng.t; arrivals : Prng.t }

let streams seed =
  let root = Prng.create (Int64.of_int seed) in
  let datasets = Prng.split root in
  let order = Prng.split root in
  let arrivals = Prng.split root in
  { datasets; order; arrivals }

(* The first [n] dataset seeds; the stream is copied, so repeated set-ups
   regenerate the same datasets. *)
let dataset_seeds s n =
  let g = Prng.copy s.datasets in
  List.init n (fun _ -> Prng.next_int64 g)

(* Requests go out in rounds: every round is one shuffled copy of all
   request types, so any prefix of whole rounds holds each type equally
   often. *)
let round rng types =
  let a = Array.of_list types in
  Prng.shuffle rng a;
  Array.to_list a

let rounds rng types n = List.concat (List.init n (fun _ -> round rng types))

(* Poisson arrivals at [rate] per second over [seconds], conditioned on
   their count: given [n] arrivals in an interval, a Poisson process
   places them as sorted independent uniforms. Fixing [n] keeps the
   offered load identical across seeds, so throughput differences are
   the server's, not the schedule's. *)
let poisson rng ~rate ~seconds =
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let a = Array.init n (fun _ -> Prng.float rng seconds) in
  Array.sort Float.compare a;
  a

(* Open-loop latency runs from when a request was due, not from when the
   client got round to sending it: a stall in the client delays every
   later request and that wait belongs to the measurement. *)
let due_latency ~due ~sent ~served_s = sent -. due +. served_s
