(** The paper's single-node configurations (Figures 1, 2 and 5): one
    program per query (the deadline, the ["phase"] spans, the export
    boundary as its own ["boundary"] phase, the {!Qcommon} analytics with
    each query's kernel class and PCIe byte counts, Q2's metadata step and
    Q3's marshalling) over a back end that builds its store when
    [prepare] is applied and answers only each query's data management:
    {!Engine_r}'s frames, {!Engine_sql}'s relational plans and
    {!Engine_scidb}'s arrays. *)

type backend = {
  q1 : Query.params -> Gb_linalg.Mat.t * float array;
      (** design matrix (patients x selected genes), responses *)
  q2 : Query.params -> Gb_linalg.Mat.t * int array;
      (** the chosen disease's rows over every gene, with the gene ids *)
  q3 : Query.params -> Gb_linalg.Mat.t;  (** the age/gender cohort's rows *)
  q4 : Query.params -> Gb_linalg.Mat.t;  (** the selected genes' columns *)
  q5 : Query.params -> float array * (int * int) array;
      (** per-gene mean over the sample, and the (gene, GO term) pairs *)
  q6 : Query.params -> unit -> (int * int * int) list;
      (** the interval join: applied to the parameters it runs as data
          management and returns the join itself, which then runs as
          analytics *)
  metadata : (string * ((int * int * float) list -> unit)) option;
      (** Q2's step 4 — its phase name and body — when the store joins
          the thresholded pairs with the gene metadata *)
}

(** Wall time, or a simulated clock that charges measured host time and,
    with a device, the device's offloaded analytics. *)
type clock = Wall | Sim of Gb_coproc.Device.t option

val make :
  name:string ->
  ?clock:clock ->
  ?boundary:(Gb_linalg.Mat.t -> Gb_linalg.Mat.t) ->
  ?marshal:(Gb_linalg.Mat.t -> unit) ->
  (Dataset.t -> check:(unit -> unit) -> backend) ->
  Engine.t
(** [make ~name build] runs every query on [clock] (default [Wall])
    over the back end [build ds] prepares; the back end is applied to
    each query's timeout hook. [boundary] is what a matrix goes through
    between data management and analytics (a vector goes as one
    column); [marshal] is Q3's per-call cost inside analytics (default
    none). *)
