(** Fixed-size Domain pool shared by every wall-clock engine.

    The pool is spawned lazily on the first parallel operation and
    reused across queries. Its size comes from {!set_jobs} (the CLI's
    [--jobs]) or the [GENBASE_DOMAINS] environment variable, defaulting
    to 1 — at which point every operation runs inline on the caller and
    reproduces the sequential kernels bitwise, with no domain spawned.

    Each parallel operation is one region of indexed tasks: every lane
    claims the next index from a shared atomic cursor until none remain.

    Determinism: chunk boundaries are a pure function of (range, grain,
    domain count) and tasks write disjoint outputs, so a given domain
    count always produces the same floats. Operations issued from inside
    a running task execute inline (no nested regions, no deadlock). *)

val env_var : string
(** ["GENBASE_DOMAINS"]. *)

val parse_jobs : string -> (int, string) result
(** Validate a domain-count string: integers [>= 1] are [Ok]; zero,
    negatives and non-numeric input yield [Error msg]. *)

val jobs : unit -> int
(** Current pool size: the {!set_jobs} override if any, else a valid
    [GENBASE_DOMAINS], else 1. *)

val set_jobs : int -> unit
(** Override the pool size for this process. Raises [Invalid_argument]
    on [n < 1]. A live pool of a different size is shut down and
    respawned on next use. *)

val reset_jobs : unit -> unit
(** Drop the {!set_jobs} override, reverting to env/default sizing. *)

val shutdown : unit -> unit
(** Join all worker domains. The pool respawns on next use; callers
    normally never need this. *)

val in_parallel_region : unit -> bool
(** True while the calling domain is executing inside a pool task (such
    code must not submit new regions; the operations below detect this
    themselves and run inline). *)

val parallel_for : ?grain:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for ~grain ~lo ~hi body] runs [body a b] over disjoint
    subranges covering [\[lo, hi)], each at least [grain] wide (except
    possibly the last). With one lane the single call [body lo hi] is
    made on the caller. [body] must only perform writes that are
    disjoint across subranges. *)

val grain_for : work_per_index:int -> int
(** [grain_for ~work_per_index] is the smallest grain whose chunks carry
    at least 500k multiply-adds, the work that repays a fork-join on the
    recording host (DESIGN.md, "Analytics kernels"), when each index
    costs [work_per_index]. A region whose whole range is below that
    runs inline under {!parallel_for}. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map; one task per element. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map; one task per element. *)

val ranges : grain:int -> lo:int -> hi:int -> (int * int) list
(** Pure fixed-grain chunking of [\[lo, hi)] — independent of the
    domain count, for callers that need partitioning stable across pool
    sizes (e.g. the Q6 interval sweep's chunk-ordered stitching). *)
