(* Cooperative governance token. See gov.mli for the contract.

   The representation is built for a poll-at-every-loop-head usage
   pattern: [check] is two atomic loads when nothing has happened
   (latched fate, own cancel flag), the parent chain is walked only for
   cancellation (trees are 2 deep in practice: request token →
   SketchRefine MILP child), and the wall clock is consulted on a sampled subset of polls
   so a token can be checked every few hundred inner-loop iterations
   without the time syscall dominating. *)

type resource = Milp_nodes | Bf_candidates | Ls_restarts | Sql_rows

let n_resources = 4

let idx = function
  | Milp_nodes -> 0
  | Bf_candidates -> 1
  | Ls_restarts -> 2
  | Sql_rows -> 3

let resource_name = function
  | Milp_nodes -> "milp_nodes"
  | Bf_candidates -> "bf_candidates"
  | Ls_restarts -> "ls_restarts"
  | Sql_rows -> "sql_rows"

type reason = Cancelled | Deadline | Budget of resource

exception Interrupted of reason

let reason_to_string = function
  | Cancelled -> "cancelled"
  | Deadline -> "deadline"
  | Budget r -> "budget:" ^ resource_name r

type t = {
  family : int;  (* unique per root token; children inherit it *)
  deadline : float;  (* absolute gettimeofday instant; infinity = none *)
  limits : int array;  (* per-resource; max_int = unlimited *)
  spent_counters : int Atomic.t array;  (* shared across the family *)
  cancel_flag : bool Atomic.t;
  parent : t option;
  latched : reason option Atomic.t;
  polls : int Atomic.t;  (* throttles clock reads in [check] *)
  caps : (int * int * int Atomic.t) list;
      (* private (resource index, limit, spend) caps of a [capped]
         subtree; children inherit them *)
}

let family_counter = Atomic.make 0

let norm_limit = function
  | Some n when n > 0 -> n
  | Some _ -> max_int (* <= 0 means unlimited *)
  | None -> max_int

let make ~deadline ~limits =
  {
    family = Atomic.fetch_and_add family_counter 1;
    deadline;
    limits;
    spent_counters = Array.init n_resources (fun _ -> Atomic.make 0);
    cancel_flag = Atomic.make false;
    parent = None;
    latched = Atomic.make None;
    polls = Atomic.make 0;
    caps = [];
  }

let create ?deadline_in ?deadline_at ?milp_nodes ?bf_candidates ?ls_restarts
    ?sql_rows () =
  let deadline =
    let from_in =
      match deadline_in with
      | Some s -> Unix.gettimeofday () +. s
      | None -> infinity
    in
    let from_at = match deadline_at with Some t -> t | None -> infinity in
    Float.min from_in from_at
  in
  let limits = Array.make n_resources max_int in
  limits.(idx Milp_nodes) <-
    norm_limit (match milp_nodes with Some _ -> milp_nodes | None -> Some 200_000);
  limits.(idx Bf_candidates) <-
    norm_limit
      (match bf_candidates with Some _ -> bf_candidates | None -> Some 5_000_000);
  limits.(idx Ls_restarts) <- norm_limit ls_restarts;
  limits.(idx Sql_rows) <- norm_limit sql_rows;
  make ~deadline ~limits

let unlimited () = make ~deadline:infinity ~limits:(Array.make n_resources max_int)

let child t =
  {
    t with
    cancel_flag = Atomic.make false;
    parent = Some t;
    latched = Atomic.make None;
    polls = Atomic.make 0;
  }

let capped t r n =
  let t = child t in
  if n <= 0 then t else { t with caps = (idx r, n, Atomic.make 0) :: t.caps }

let family_id t = t.family

let cancel t = Atomic.set t.cancel_flag true

let rec cancelled t =
  Atomic.get t.cancel_flag
  || match t.parent with Some p -> cancelled p | None -> false

(* Latch the first observed stop reason; every later poll reports it. *)
let latch t r =
  ignore (Atomic.compare_and_set t.latched None (Some r));
  Atomic.get t.latched

let fate t = Atomic.get t.latched

let cap_left t i =
  List.fold_left
    (fun acc (ci, limit, spent) ->
      if ci = i then min acc (limit - Atomic.get spent) else acc)
    max_int t.caps

let over_budget t r =
  let i = idx r in
  (t.limits.(i) <> max_int && Atomic.get t.spent_counters.(i) >= t.limits.(i))
  || (t.caps <> [] && cap_left t i <= 0)

(* Consult the clock on the first poll and every 32nd thereafter: loop
   heads poll every couple hundred iterations, so deadline detection
   granularity stays well under a millisecond of work while the common
   poll stays syscall-free. *)
let deadline_passed t =
  t.deadline < infinity
  && Atomic.fetch_and_add t.polls 1 land 31 = 0
  && Unix.gettimeofday () > t.deadline

(* Cancellation and deadline are request-global, so they latch: once
   seen, every later poll (any resource) reports them.  Budget
   exhaustion is deliberately NOT latched and only consulted for the
   resource the caller names: the MILP leg running out of nodes must not
   read as a stop signal to the local-search or SQL loops sharing the
   same token — that per-strategy fallback is the paper's whole hybrid
   design.  Budget checks stay sticky anyway because spend counters only
   grow. *)
let check ?resource t =
  match Atomic.get t.latched with
  | Some _ as r -> r
  | None ->
      if cancelled t then latch t Cancelled
      else if deadline_passed t then latch t Deadline
      else (
        match resource with
        | Some r when over_budget t r -> Some (Budget r)
        | _ -> None)

(* Boundary poll: unlike [check], the clock is read unconditionally —
   this runs once per request/run, not at loop heads, so sampling would
   only cost correctness (a deadline observed solely by child tokens
   must still latch here). *)
let refresh t =
  match Atomic.get t.latched with
  | Some _ as r -> r
  | None ->
      if cancelled t then latch t Cancelled
      else if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
        latch t Deadline
      else None

let tick ?resource t =
  match check ?resource t with None -> () | Some r -> raise (Interrupted r)

let tick_opt ?resource = function None -> () | Some t -> tick ?resource t

let spend t r n =
  let i = idx r in
  ignore (Atomic.fetch_and_add t.spent_counters.(i) n);
  if t.caps <> [] then
    List.iter
      (fun (ci, _, spent) -> if ci = i then ignore (Atomic.fetch_and_add spent n))
      t.caps

let budget_left t r =
  let i = idx r in
  let family =
    if t.limits.(i) = max_int then max_int
    else t.limits.(i) - Atomic.get t.spent_counters.(i)
  in
  let left = min family (cap_left t i) in
  if left = max_int then None else Some (max 0 left)

let remaining_time t =
  if t.deadline = infinity then None
  else Some (Float.max 0.0 (t.deadline -. Unix.gettimeofday ()))
