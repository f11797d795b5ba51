(** Fixed-size domain pool for deterministic data parallelism.

    A pool of size [k] runs up to [k - 1] worker domains plus the
    submitting domain, which always participates in the work it submits.
    Workers are spawned by the first parallel region that has chunks for
    them and retire once two major collections have ended without a new
    region, so a pool with nothing to do soon holds no domain (a parked
    domain would have to be woken for every minor collection of the busy
    one).  A pool of size 1 spawns no domains at all and runs everything
    inline, so the sequential code path is untouched when parallelism is
    off.

    Determinism contract: [map_chunks] splits the index range [0, n)
    into contiguous chunks and delivers the chunk results in ascending
    chunk order, regardless of which domain finished first.  Any fold
    over those results whose merge is insensitive to chunk
    granularity — order-preserving concatenation, "first best wins"
    selection over an ordered walk — therefore produces bit-identical
    results at every pool size. *)

type t

val size : t -> int

val live_workers : t -> int
(** Worker domains currently running or parked: at most [size - 1],
    and 0 once the pool has been idle for two major collections. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool k f] runs [f] with a fresh pool of size [max k 1] and
    always shuts it down, even if [f] raises: the workers are signalled
    to exit and waited for. Work submitted to the pool after that runs
    inline on the caller. The pool spawns no domain up front; regions
    do, on demand. *)

(** {1 Default pool}

    The default pool is sized by the [PB_DOMAINS] environment variable
    (default 1, anything unparseable or < 1 is treated as 1) and is
    created lazily on first use.  [set_default_size] replaces it, which
    is how the bench driver implements [--domains N]. *)

val get_default : unit -> t
val set_default_size : int -> unit

(** {1 Parallel regions} *)

val parallel_for :
  t -> ?chunk_size:int -> ?should_stop:(unit -> bool) -> int -> (int -> unit) -> unit
(** [parallel_for pool n f] runs [f i] for every [i] in [0, n), split
    into contiguous chunks across the pool.  Returns once every call
    has finished.  [f] must only write to disjoint state per index.

    [should_stop] (default: never) is polled once at each chunk head;
    after it first answers [true], chunks that have not yet started are
    skipped entirely — how a governance token stops queued work without
    tearing down the pool.  Indexes inside skipped chunks are simply
    never visited; callers that must distinguish "ran" from "skipped"
    record completion per index themselves. *)

val map_chunks : t -> ?chunk_size:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_chunks pool ~n f] covers [0, n) with contiguous ranges
    [lo, hi) and returns the chunk results in ascending chunk order.
    With pool size 1 (or [n] = 0 handled as []), a single chunk
    [f ~lo:0 ~hi:n] is used. *)
