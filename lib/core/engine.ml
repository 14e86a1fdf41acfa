type payload =
  | Regression of { intercept : float; coefficients : float array; r2 : float }
  | Cov_pairs of { n_genes : int; top_pairs : (int * int * float) list }
  | Biclusters of { clusters : (int array * int array * float) list }
  | Singular_values of float array
  | Enrichment of (int * float) list
  | Overlaps of {
      n_variants : int;
      n_genes : int;
      pairs : (int * int * int) list;
    }

let payload_kind = function
  | Regression _ -> "regression"
  | Cov_pairs _ -> "cov_pairs"
  | Biclusters _ -> "biclusters"
  | Singular_values _ -> "singular_values"
  | Enrichment _ -> "enrichment"
  | Overlaps _ -> "overlaps"

type timing = { dm : float; analytics : float }

let total t = t.dm +. t.analytics

type recovery = {
  retries : int;
  recovered_nodes : int;
  speculative : int;
  wasted_s : float;
}

let no_recovery =
  { retries = 0; recovered_nodes = 0; speculative = 0; wasted_s = 0. }

type outcome =
  | Completed of timing * payload
  | Degraded of timing * recovery * payload
  | Timed_out
  | Out_of_memory
  | Errored of string
  | Unsupported

let completed t ?(recovery = no_recovery) p =
  if recovery = no_recovery then Completed (t, p) else Degraded (t, recovery, p)

let timing_of = function
  | Completed (t, _) | Degraded (t, _, _) -> Some t
  | Timed_out | Out_of_memory | Errored _ | Unsupported -> None

let payload_of = function
  | Completed (_, p) | Degraded (_, _, p) -> Some p
  | Timed_out | Out_of_memory | Errored _ | Unsupported -> None

let recovery_of = function Degraded (_, r, _) -> Some r | _ -> None

type session = Query.t -> params:Query.params -> timeout_s:float -> outcome

type t = {
  name : string;
  kind : [ `Single_node | `Multi_node of int ];
  supports : Query.t -> bool;
  prepare : Dataset.t -> session;
}

exception Memory_exceeded

let phase ?clock ~check name f =
  match clock with
  | None ->
    Gb_obs.Profile.with_ ~cat:"phase" ~name
      ~dur_of:(fun (_, t) -> Some t)
      (fun () ->
        let r, t = Gb_util.Clock.Stopwatch.time f in
        check ();
        (r, t))
  | Some now ->
    let t0 = now () in
    let gc = Gb_obs.Profile.start () in
    let r = f () in
    check ();
    let t1 = now () in
    Gb_obs.Obs.Span.emit ~cat:"phase"
      ~attrs:(Gb_obs.Profile.delta_attrs gc)
      ~name ~t0 ~t1 ();
    (r, t1 -. t0)

let run e ds q ?(params = Query.default_params) ~timeout_s () =
  if not (e.supports q) then Unsupported
  else
    try
      (* Arm the cooperative-cancellation deadline for this domain: the
         kernels checkpoint once per outer iteration, so a wall-clock
         engine stops mid-factorization instead of overrunning its
         window until the next phase boundary. Simulated engines finish
         in far less wall time than their simulated budget, so the
         ambient deadline never fires before their own Sim deadline. *)
      Gb_util.Deadline.Ambient.with_deadline
        (Gb_util.Deadline.start ~seconds:timeout_s)
        (fun () -> e.prepare ds q ~params ~timeout_s)
    with
    | Gb_util.Deadline.Timeout -> Timed_out
    | Memory_exceeded | Out_of_memory | Gb_fault.Fault.Injected_oom _ ->
      Out_of_memory
    | Stack_overflow -> Out_of_memory
    | Invalid_argument msg | Failure msg -> Errored msg
    | exn ->
      (* Catch-all: one bad kernel must never abort a whole harness grid;
         anything that is not a timeout or a memory failure is an error
         result for this cell only. *)
      Errored (Printexc.to_string exn)

(* Keyed on physical identity: no code mutates a data set in place (a
   stream snapshot is a fresh value), and a content fingerprint would
   cost a full pass over the data on every call. *)
let memo e =
  let last = ref None in
  let prepare ds =
    match !last with
    | Some (ds', session) when ds' == ds -> session
    | _ ->
      let session =
        Gb_obs.Profile.with_ ~cat:"phase" ~name:"load" (fun () -> e.prepare ds)
      in
      last := Some (ds, session);
      session
  in
  { e with prepare }

let pp_outcome fmt = function
  | Completed (t, _) ->
    Format.fprintf fmt "ok dm=%.3fs analytics=%.3fs" t.dm t.analytics
  | Degraded (t, r, _) ->
    Format.fprintf fmt
      "degraded dm=%.3fs analytics=%.3fs (retries=%d recovered=%d spec=%d \
       wasted=%.3fs)"
      t.dm t.analytics r.retries r.recovered_nodes r.speculative r.wasted_s
  | Timed_out -> Format.pp_print_string fmt "timeout"
  | Out_of_memory -> Format.pp_print_string fmt "out-of-memory"
  | Errored msg -> Format.fprintf fmt "error: %s" msg
  | Unsupported -> Format.pp_print_string fmt "unsupported"
