(* The process's one metric registry. Labeled families: counters,
   gauges and histograms keyed by label sets, with explicit bucket
   boundaries and within-bucket linear interpolation for quantiles, plus
   a sliding-window aggregator (a ring of bucketed sub-windows advanced
   by whichever clock the caller supplies — sim seconds in the simulated
   server, wall seconds in the live one) so tail latency is queryable
   mid-run. Label-less counters (flops, rows scanned, shuffle bytes, …)
   are counter families whose one cell is bound to a handle at
   registration.

   The subsystem hangs off its own flag, independent of {!Obs}'s span
   flag: every mutation hook reduces to a load-and-branch when disabled,
   so the hot paths keep the one-branch overhead contract even with
   telemetry compiled in. Registration (done once at module top level)
   is never gated — a family handle is just a name bound to a registry
   slot.

   Name discipline follows the Prometheus exposition rules so the
   {!Expo} renderer never has to escape metric or label *names*: metric
   names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names the same without
   the colon. Label *values* are arbitrary strings (escaped by the
   renderer). Labels are canonicalized (sorted by name, duplicates
   rejected) at the observation site, so ["a=1;b=2"] and ["b=2;a=1"]
   address the same cell. *)

type labels = (string * string) list

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- name discipline --- *)

let name_ok ~allow_colon s =
  let ok_first c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_'
    || (allow_colon && c = ':')
  in
  let ok_rest c = ok_first c || (c >= '0' && c <= '9') in
  String.length s > 0
  && ok_first s.[0]
  && (let all = ref true in
      String.iter (fun c -> if not (ok_rest c) then all := false) s;
      !all)

let check_metric_name what s =
  if not (name_ok ~allow_colon:true s) then
    invalid_arg (Printf.sprintf "Telemetry.%s: invalid metric name %S" what s)

let canon (labels : labels) : labels =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then
        invalid_arg
          (Printf.sprintf "Telemetry: duplicate label name %S in label set" a);
      check rest
    | _ -> ()
  in
  List.iter
    (fun (k, _) ->
      if not (name_ok ~allow_colon:false k) then
        invalid_arg (Printf.sprintf "Telemetry: invalid label name %S" k))
    sorted;
  check sorted;
  sorted

(* --- buckets --- *)

(* Latency ladder in seconds: roughly 1-2.5-5 per decade from 0.5 ms to
   250 s. Sim-clock service times and wall-clock engine runs both land
   comfortably inside it. *)
let default_buckets =
  [|
    0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0;
    2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0;
  |]

let check_buckets what (b : float array) =
  if Array.length b = 0 then
    invalid_arg (Printf.sprintf "Telemetry.%s: empty bucket array" what);
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Telemetry.%s: non-finite bucket" what);
      if i > 0 && x <= b.(i - 1) then
        invalid_arg
          (Printf.sprintf "Telemetry.%s: buckets must strictly increase" what))
    b

(* Index of the bucket an observation falls in: first upper bound >= v,
   or the overflow slot (length b) past the last finite bound. *)
let bucket_index (b : float array) v =
  let n = Array.length b in
  let rec go i = if i >= n then n else if v <= b.(i) then i else go (i + 1) in
  go 0

(* Interpolated quantile over per-bucket counts (length = finite buckets
   + 1 overflow slot). Prometheus histogram_quantile semantics: find the
   bucket where the cumulative count crosses [q * total], interpolate
   linearly between the bucket's bounds by position within it. The
   overflow bucket has no upper bound, so a quantile landing there
   reports the largest finite bound. *)
let quantile_of_counts ~(buckets : float array) ~(counts : int array) q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = Float.max (q *. float_of_int total) 1e-12 in
    let nb = Array.length buckets in
    let rec go i cum =
      if i > nb then Some buckets.(nb - 1)
      else
        let n = counts.(i) in
        let cum' = cum +. float_of_int n in
        if n > 0 && cum' >= target then
          if i = nb then Some buckets.(nb - 1)
          else begin
            let lower = if i = 0 then 0. else buckets.(i - 1) in
            let upper = buckets.(i) in
            let frac = (target -. cum) /. float_of_int n in
            Some (lower +. (frac *. (upper -. lower)))
          end
        else go (i + 1) cum'
    in
    go 0 0.
  end

(* Width of the bucket containing [v] — the resolution of any quantile
   reported from that bucket, and therefore the agreement tolerance
   between interpolated and exact percentiles. *)
let bucket_width_for (b : float array) v =
  let i = bucket_index b v in
  if i >= Array.length b then infinity
  else if i = 0 then b.(0)
  else b.(i) -. b.(i - 1)

(* --- cells and families --- *)

type hist_cell = {
  hc_counts : int array;  (** finite buckets + overflow slot *)
  mutable hc_sum : float;
  mutable hc_count : int;
}

type cell = Cnt of float Atomic.t | Gge of float Atomic.t | Hst of hist_cell

type kind = Counter | Gauge | Histogram

let kind_label = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_buckets : float array;
  f_lock : Mutex.t;  (** guards [f_cells] and every histogram cell *)
  f_cells : (labels, cell) Hashtbl.t;
}

type counter_family = family
type gauge_family = family
type hist_family = family

let registry_m = Mutex.create ()
let registry : (string, family) Hashtbl.t = Hashtbl.create 16

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Find-or-register. Re-registration under the same name must agree on
   kind and (for histograms) bucket grid — a silent winner would skew
   every later observation. [help] is not identity: the first non-empty
   help wins. *)
let family ~kind ?(help = "") ?buckets name =
  check_metric_name (kind_label kind) name;
  (match buckets with
  | Some b -> check_buckets (kind_label kind) b
  | None -> ());
  locked registry_m (fun () ->
      match Hashtbl.find_opt registry name with
      | Some f ->
        if f.f_kind <> kind then
          invalid_arg
            (Printf.sprintf
               "Telemetry: %s already registered as a %s (wanted %s)" name
               (kind_label f.f_kind) (kind_label kind));
        (match buckets with
        | Some b when b <> f.f_buckets ->
          invalid_arg
            (Printf.sprintf
               "Telemetry: histogram %s already registered with a different \
                bucket grid"
               name)
        | _ -> ());
        f
      | None ->
        let f =
          {
            f_name = name;
            f_help = help;
            f_kind = kind;
            f_buckets =
              (match buckets with
              | Some b -> Array.copy b
              | None -> default_buckets);
            f_lock = Mutex.create ();
            f_cells = Hashtbl.create 8;
          }
        in
        Hashtbl.add registry name f;
        f)

let counter_family ?help name = family ~kind:Counter ?help name
let gauge_family ?help name = family ~kind:Gauge ?help name
let hist_family ?help ?buckets name = family ~kind:Histogram ?help ?buckets name

let cell f labels =
  let labels = canon labels in
  locked f.f_lock (fun () ->
      match Hashtbl.find_opt f.f_cells labels with
      | Some c -> c
      | None ->
        let c =
          match f.f_kind with
          | Counter -> Cnt (Atomic.make 0.)
          | Gauge -> Gge (Atomic.make 0.)
          | Histogram ->
            Hst
              {
                hc_counts = Array.make (Array.length f.f_buckets + 1) 0;
                hc_sum = 0.;
                hc_count = 0;
              }
        in
        Hashtbl.add f.f_cells labels c;
        c)

let rec atomic_addf cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_addf cell x

let incr f ?(by = 1.) labels =
  if Atomic.get enabled_flag then begin
    if by < 0. then invalid_arg "Telemetry.incr: counters only go up";
    match cell f labels with
    | Cnt a -> atomic_addf a by
    | Gge _ | Hst _ -> assert false
  end

let set f labels v =
  if Atomic.get enabled_flag then
    match cell f labels with
    | Gge a -> Atomic.set a v
    | Cnt _ | Hst _ -> assert false

let observe f labels v =
  if Atomic.get enabled_flag then
    match cell f labels with
    | Hst h ->
      locked f.f_lock (fun () ->
          let i = bucket_index f.f_buckets v in
          h.hc_counts.(i) <- h.hc_counts.(i) + 1;
          h.hc_sum <- h.hc_sum +. v;
          h.hc_count <- h.hc_count + 1)
    | Cnt _ | Gge _ -> assert false

let value f labels =
  match cell f labels with
  | Cnt a | Gge a -> Atomic.get a
  | Hst _ -> invalid_arg "Telemetry.value: histogram cell"

let gauge_value = value

let quantile f labels q =
  match cell f labels with
  | Hst h ->
    locked f.f_lock (fun () ->
        quantile_of_counts ~buckets:f.f_buckets ~counts:h.hc_counts q)
  | Cnt _ | Gge _ -> invalid_arg "Telemetry.quantile: not a histogram"

(* Aggregate quantile across every cell of the family — all cells share
   one grid, so merging is a per-bucket sum. *)
let quantile_agg f q =
  if f.f_kind <> Histogram then
    invalid_arg "Telemetry.quantile_agg: not a histogram";
  locked f.f_lock (fun () ->
      let merged = Array.make (Array.length f.f_buckets + 1) 0 in
      Hashtbl.iter
        (fun _ c ->
          match c with
          | Hst h ->
            Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) h.hc_counts
          | Cnt _ | Gge _ -> ())
        f.f_cells;
      quantile_of_counts ~buckets:f.f_buckets ~counts:merged q)

let bucket_width f v =
  if f.f_kind <> Histogram then
    invalid_arg "Telemetry.bucket_width: not a histogram";
  bucket_width_for f.f_buckets v

(* --- label-less counters ---

   The handle is the cell itself, resolved once at registration, so an
   add is the flag load plus the CAS: no label canonicalization, no
   family lock. {!reset} zeroes these cells in place rather than
   dropping them, which keeps module-level handles counting. *)

type counter = float Atomic.t

let counter ?help name =
  match cell (family ~kind:Counter ?help name) [] with
  | Cnt a -> a
  | Gge _ | Hst _ -> assert false

let add c n = if Atomic.get enabled_flag then atomic_addf c (float_of_int n)
let addf c x = if Atomic.get enabled_flag then atomic_addf c x
let counter_value = Atomic.get

(* --- snapshots (the Expo renderer's input) --- *)

type value_snap =
  | Sample of float
  | Hist_sample of { le : (float * int) list; hsum : float; hcount : int }

type family_snap = {
  fam : string;
  help : string;
  kind : kind;
  rows : (labels * value_snap) list;
}

let snap_cell f = function
  | Cnt a | Gge a -> Sample (Atomic.get a)
  | Hst h ->
    (* Cumulative counts per upper bound, +Inf last — exactly the
       exposition's _bucket series. *)
    let cum = ref 0 in
    let le =
      Array.to_list
        (Array.mapi
           (fun i upper ->
             cum := !cum + h.hc_counts.(i);
             (upper, !cum))
           f.f_buckets)
      @ [ (infinity, h.hc_count) ]
    in
    Hist_sample { le; hsum = h.hc_sum; hcount = h.hc_count }

let snapshot () =
  let fams =
    locked registry_m (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) registry [])
  in
  List.map
    (fun f ->
      let rows =
        locked f.f_lock (fun () ->
            Hashtbl.fold
              (fun labels c acc -> (labels, snap_cell f c) :: acc)
              f.f_cells [])
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      { fam = f.f_name; help = f.f_help; kind = f.f_kind; rows })
    fams
  |> List.sort (fun a b -> compare a.fam b.fam)

let counter_snapshot () =
  List.filter_map
    (fun s ->
      match (s.kind, List.assoc_opt [] s.rows) with
      | Counter, Some (Sample v) -> Some (s.fam, v)
      | _ -> None)
    (snapshot ())

let counter_delta before =
  List.filter_map
    (fun (n, v) ->
      let d = v -. Option.value (List.assoc_opt n before) ~default:0. in
      if d <> 0. then Some (n, d) else None)
    (counter_snapshot ())

let reset () =
  let fams =
    locked registry_m (fun () ->
        Hashtbl.fold (fun _ f acc -> f :: acc) registry [])
  in
  List.iter
    (fun f ->
      locked f.f_lock (fun () ->
          Hashtbl.filter_map_inplace
            (fun labels c ->
              (match c with
              | Cnt a | Gge a -> Atomic.set a 0.
              | Hst h ->
                Array.fill h.hc_counts 0 (Array.length h.hc_counts) 0;
                h.hc_sum <- 0.;
                h.hc_count <- 0);
              if labels = [] then Some c else None)
            f.f_cells))
    fams

(* --- sliding windows --- *)

module Window = struct
  (* A ring of [n] bucketed sub-windows of [width] seconds each. The
     ring is advanced lazily by the caller's clock: observing or
     querying at time [t] zeroes every sub-window the clock skipped, so
     idle periods cost nothing and the structure works identically on
     the simulated and the wall clock. Observations older than the ring
     (more than [n] sub-windows behind the newest) are dropped — they
     could only land in a slot that has been recycled. *)
  type t = {
    width : float;
    n : int;
    w_buckets : float array;
    rings : int array array;  (** [n] x (finite buckets + overflow) *)
    w_sums : float array;
    w_counts : int array;
    mutable cur : int;  (** absolute index of the newest sub-window *)
    mutable advanced : int;  (** sub-window slots recycled so far *)
    mutable dropped : int;  (** observations older than the ring *)
    w_lock : Mutex.t;
  }

  let create ?(width_s = 1.0) ?(windows = 60) ?(buckets = default_buckets) ()
      =
    if not (Float.is_finite width_s) || width_s <= 0. then
      invalid_arg "Telemetry.Window.create: width_s";
    if windows < 1 then invalid_arg "Telemetry.Window.create: windows";
    check_buckets "Window.create" buckets;
    {
      width = width_s;
      n = windows;
      w_buckets = Array.copy buckets;
      rings = Array.init windows (fun _ -> Array.make (Array.length buckets + 1) 0);
      w_sums = Array.make windows 0.;
      w_counts = Array.make windows 0;
      cur = 0;
      advanced = 0;
      dropped = 0;
      w_lock = Mutex.create ();
    }

  let horizon_s t = t.width *. float_of_int t.n

  let abs_index t now = int_of_float (Float.floor (Float.max 0. now /. t.width))

  let slot t abs = ((abs mod t.n) + t.n) mod t.n

  let advance_locked t abs =
    if abs > t.cur then begin
      let steps = min t.n (abs - t.cur) in
      for k = 1 to steps do
        let s = slot t (t.cur + k + (abs - t.cur - steps)) in
        (* zero the slots being recycled; when the jump exceeds the ring
           every slot is cleared exactly once *)
        Array.fill t.rings.(s) 0 (Array.length t.rings.(s)) 0;
        t.w_sums.(s) <- 0.;
        t.w_counts.(s) <- 0
      done;
      t.advanced <- t.advanced + steps;
      t.cur <- abs
    end

  let observe t ~now v =
    locked t.w_lock (fun () ->
        let abs = abs_index t now in
        advance_locked t abs;
        if abs > t.cur - t.n then begin
          let s = slot t abs in
          let i = bucket_index t.w_buckets v in
          t.rings.(s).(i) <- t.rings.(s).(i) + 1;
          t.w_sums.(s) <- t.w_sums.(s) +. v;
          t.w_counts.(s) <- t.w_counts.(s) + 1
        end
        else t.dropped <- t.dropped + 1)

  (* Merged counts over the sub-windows intersecting
     [now - horizon, now]. *)
  let agg_locked t ~now ~horizon_s =
    let abs = abs_index t now in
    advance_locked t abs;
    let k =
      max 1 (min t.n (int_of_float (Float.ceil (horizon_s /. t.width))))
    in
    let merged = Array.make (Array.length t.w_buckets + 1) 0 in
    let count = ref 0 and sum = ref 0. in
    for j = 0 to k - 1 do
      let a = t.cur - j in
      if a >= 0 then begin
        let s = slot t a in
        Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) t.rings.(s);
        count := !count + t.w_counts.(s);
        sum := !sum +. t.w_sums.(s)
      end
    done;
    (merged, !count, !sum)

  let count t ~now ~horizon_s =
    locked t.w_lock (fun () ->
        let _, c, _ = agg_locked t ~now ~horizon_s in
        c)

  let mean t ~now ~horizon_s =
    locked t.w_lock (fun () ->
        let _, c, s = agg_locked t ~now ~horizon_s in
        if c = 0 then None else Some (s /. float_of_int c))

  let quantile t ~now ~horizon_s q =
    locked t.w_lock (fun () ->
        let merged, _, _ = agg_locked t ~now ~horizon_s in
        quantile_of_counts ~buckets:t.w_buckets ~counts:merged q)

  (* Visibility into the ring's churn: how many sub-window slots have
     been recycled and how many observations arrived too old to land.
     Non-zero drops mean the live quantiles silently miss data. *)
  let advanced t = locked t.w_lock (fun () -> t.advanced)
  let dropped t = locked t.w_lock (fun () -> t.dropped)
end
