(* Fixed-size domain pool with a helping scheduler.

   Layout: a pool of size [k] runs up to [k - 1] worker domains that
   loop on a shared FIFO of thunks.  Every parallel region is submitted
   by some domain (the main domain, or a worker running a nested region);
   the submitter enqueues all but the first chunk, runs the first chunk
   itself, then *helps*: it keeps draining the shared queue until its
   own region's pending count reaches zero.  Because a submitter never
   blocks while runnable work exists, nested regions cannot deadlock —
   in the worst case a region's submitter executes every one of its own
   chunks inline.

   Workers exist only while there is work.  A region spawns the workers
   its chunks can use; an idle worker parks on the condition variable
   and retires once [idle_cycles] major collections have ended without
   a new region.  A parked worker is not free: every OCaml 5 minor
   collection stops all domains, and a parked domain joins in through a
   backup thread that must be woken, usually on another core, before the
   collecting domain can go on — a wake-up paid on every collection of a
   sequential workload that merely once used the pool.  Counting major
   cycles rather than time keeps workers across the short sequential
   stretches between the regions of one query (respawning them there
   would churn domains, and each new domain builds its heap afresh).

   Cross-domain signalling goes through one mutex and one condition
   variable, broadcast when work is enqueued, when a region completes,
   when a major cycle ends, when a worker retires and on shutdown.
   Spurious wakeups are handled by re-checking state in a loop. *)

type t = {
  size : int;
  mu : Mutex.t;
  cond : Condition.t;
  q : (unit -> unit) Queue.t;
  cycles : int Atomic.t;  (** major collections ended since [create] *)
  alarm : Gc.alarm option;  (** counts [cycles]; [None] at size 1 *)
  mutable regions : int;  (** regions that have enqueued work *)
  mutable stopping : bool;
  mutable live : int;  (** workers spawned and not yet retired *)
}

let size t = t.size
let idle_cycles = 2

(* The next task for a worker, or [None] once it has retired.  A worker
   retires under [mu] only with the queue empty, and submitters count
   live workers under [mu] after enqueueing, so a region never counts on
   a worker that is about to leave. *)
let next_task pool =
  let retire () =
    pool.live <- pool.live - 1;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mu;
    None
  in
  let rec wait regions cycles =
    if pool.stopping then retire ()
    else
      match Queue.take_opt pool.q with
      | Some _ as task ->
          Mutex.unlock pool.mu;
          task
      | None when pool.regions <> regions -> wait pool.regions (Atomic.get pool.cycles)
      | None when Atomic.get pool.cycles - cycles >= idle_cycles -> retire ()
      | None ->
          Condition.wait pool.cond pool.mu;
          wait regions cycles
  in
  Mutex.lock pool.mu;
  wait pool.regions (Atomic.get pool.cycles)

let rec worker_body pool =
  match next_task pool with
  | None -> ()
  | Some task ->
      (* Region wrappers catch their own exceptions; a raise here would
         kill the domain, so guard anyway. *)
      (try task () with _ -> ());
      worker_body pool

(* Bring the live workers up to [min (size - 1) wanted].  The runtime
   detaches domain threads, so a retired worker needs no join; a spawn
   refused at the runtime's domain limit leaves the work to the
   submitter. *)
let spawn_workers pool ~wanted =
  Mutex.lock pool.mu;
  let k = if pool.stopping then 0 else max 0 (min (pool.size - 1) wanted - pool.live) in
  pool.live <- pool.live + k;
  Mutex.unlock pool.mu;
  for _ = 1 to k do
    try ignore (Domain.spawn (fun () -> worker_body pool))
    with Failure _ ->
      Mutex.protect pool.mu (fun () ->
          pool.live <- pool.live - 1;
          Condition.broadcast pool.cond)
  done

let create k =
  let size = max k 1 and cond = Condition.create () and cycles = Atomic.make 0 in
  let alarm =
    if size = 1 then None
    else
      Some
        (Gc.create_alarm (fun () ->
             Atomic.incr cycles;
             Condition.broadcast cond))
  in
  {
    size;
    mu = Mutex.create ();
    cond;
    q = Queue.create ();
    cycles;
    alarm;
    regions = 0;
    stopping = false;
    live = 0;
  }

let live_workers pool = Mutex.protect pool.mu (fun () -> pool.live)

let shutdown pool =
  Option.iter Gc.delete_alarm pool.alarm;
  Mutex.lock pool.mu;
  pool.stopping <- true;
  Condition.broadcast pool.cond;
  while pool.live > 0 do
    Condition.wait pool.cond pool.mu
  done;
  Mutex.unlock pool.mu

let with_pool k f =
  let pool = create k in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Default pool (sized by PB_DOMAINS, overridable via set_default_size) *)

let env_size () =
  match Sys.getenv_opt "PB_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

let default_mu = Mutex.create ()
let default_pool : t option ref = ref None

let get_default () =
  Mutex.lock default_mu;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create (env_size ()) in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mu;
  pool

let set_default_size n =
  Mutex.lock default_mu;
  let old = !default_pool in
  default_pool := Some (create n);
  Mutex.unlock default_mu;
  Option.iter shutdown old

let () =
  at_exit (fun () ->
      Mutex.lock default_mu;
      let old = !default_pool in
      default_pool := None;
      Mutex.unlock default_mu;
      Option.iter shutdown old)

(* ------------------------------------------------------------------ *)
(* Parallel regions *)

(* Run every thunk, using the pool's workers plus the calling domain;
   returns once all have finished.  Re-raises the lowest-indexed
   exception, if any, for a deterministic failure. *)
let run_region pool (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n = 0 then ()
  else begin
    let exns = Array.make n None in
    let guarded i () =
      try thunks.(i) () with e -> exns.(i) <- Some e
    in
    (if pool.size <= 1 || pool.stopping || n = 1 then
       for i = 0 to n - 1 do
         guarded i ()
       done
     else begin
       let remaining = ref n in
       let finish () =
         Mutex.lock pool.mu;
         decr remaining;
         if !remaining = 0 then Condition.broadcast pool.cond;
         Mutex.unlock pool.mu
       in
       let wrap i () =
         guarded i ();
         finish ()
       in
       Mutex.lock pool.mu;
       for i = 1 to n - 1 do
         Queue.add (wrap i) pool.q
       done;
       pool.regions <- pool.regions + 1;
       Condition.broadcast pool.cond;
       Mutex.unlock pool.mu;
       spawn_workers pool ~wanted:(n - 1);
       wrap 0 ();
       (* Help until this region is fully drained.  We may execute
          chunks of other in-flight regions here; that is fine — they
          complete strictly sooner and their submitters get woken. *)
       let rec help () =
         Mutex.lock pool.mu;
         if !remaining = 0 then Mutex.unlock pool.mu
         else
           match Queue.take_opt pool.q with
           | Some task ->
               Mutex.unlock pool.mu;
               task ();
               help ()
           | None ->
               Condition.wait pool.cond pool.mu;
               Mutex.unlock pool.mu;
               help ()
       in
       help ()
     end);
    Array.iter (function Some e -> raise e | None -> ()) exns
  end

let ranges ?chunk_size pool n =
  let csize =
    match chunk_size with
    | Some c -> max 1 c
    | None ->
        (* Oversubscribe 4x for load balance; chunk order keeps
           determinism regardless of granularity. *)
        max 1 ((n + (pool.size * 4) - 1) / (pool.size * 4))
  in
  let rec go lo acc =
    if lo >= n then List.rev acc
    else
      let hi = min n (lo + csize) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []

let map_chunks pool ?chunk_size ~n f =
  if n <= 0 then []
  else if pool.size <= 1 && chunk_size = None then [ f ~lo:0 ~hi:n ]
  else begin
    let rs = ranges ?chunk_size pool n in
    let out = Array.make (List.length rs) None in
    let thunks =
      Array.of_list
        (List.mapi (fun i (lo, hi) () -> out.(i) <- Some (f ~lo ~hi)) rs)
    in
    run_region pool thunks;
    Array.to_list out
    |> List.map (function Some v -> v | None -> assert false)
  end

let map_reduce pool ?chunk_size ~n ~map ~reduce init =
  List.fold_left reduce init (map_chunks pool ?chunk_size ~n map)

let parallel_for pool ?chunk_size ?(should_stop = fun () -> false) n f =
  map_chunks pool ?chunk_size ~n (fun ~lo ~hi ->
      (* One poll per chunk: queued chunks of an already-stopped region
         are skipped wholesale instead of running to completion.  The
         caller is responsible for noticing which indexes never ran. *)
      if not (should_stop ()) then
        for i = lo to hi - 1 do
          f i
        done)
  |> ignore
