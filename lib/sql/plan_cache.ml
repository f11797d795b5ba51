module Metrics = Pb_obs.Metrics
module Trace = Pb_obs.Trace

let m_hits =
  Metrics.counter ~help:"Prepared-plan cache hits" "pb_sql_plan_cache_hits_total"

let m_misses =
  Metrics.counter ~help:"Prepared-plan cache misses (first sight or invalidated)"
    "pb_sql_plan_cache_misses_total"


type entry = {
  statements : Ast.statement list;
  memo : Compile.Memo.t;
  version : int;  (* Database.version at prepare time *)
  mutable tick : int;  (* last-use stamp for LRU eviction *)
}

type t = {
  mu : Mutex.t;
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
}

(* capacity 0 is a legal degenerate cache: every insertion is immediately
   evicted, so every lookup parses. The serving baseline without a cache
   is recorded in EXPERIMENTS "SQL"; bench --sql measures a warm cache
   against a cleared one in-process. *)
let create ?(capacity = 128) () =
  if capacity < 0 then invalid_arg "Plan_cache.create: negative capacity";
  { mu = Mutex.create (); capacity; tbl = Hashtbl.create 64; clock = 0 }

(* Trim surrounding whitespace and trailing semicolons only: collapsing
   interior whitespace could rewrite string literals, and lower-casing
   could change them outright. Conservative normalization misses some
   sharing ("SELECT  1" vs "SELECT 1") but never conflates distinct
   queries. *)
let normalize text =
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let n = String.length text in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < n && is_space text.[!lo] do
    incr lo
  done;
  while !hi >= !lo && (is_space text.[!hi] || text.[!hi] = ';') do
    decr hi
  done;
  String.sub text !lo (!hi - !lo + 1)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let evict_lru_unlocked t =
  (* O(n) scan; n is the (small) capacity, and eviction only runs on
     insertions past it. *)
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.tick <= entry.tick -> acc
        | _ -> Some (key, entry))
      t.tbl None
  in
  match victim with Some (key, _) -> Hashtbl.remove t.tbl key | None -> ()

let lookup t db ~parse text =
  let key = normalize text in
  let current = Database.version db in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some entry when entry.version = current ->
            t.clock <- t.clock + 1;
            entry.tick <- t.clock;
            Some entry
        | Some _stale ->
            Hashtbl.remove t.tbl key;
            None
        | None -> None)
  in
  match cached with
  | Some entry ->
      Metrics.incr m_hits;
      (entry.statements, entry.memo)
  | None ->
      Metrics.incr m_misses;
      (* Parse outside the lock so a slow prepare doesn't serialize other
         connections; on a race the first insert wins and both callers get
         functionally identical plans. *)
      let statements =
        Trace.with_span ~name:"sql.prepare" (fun () -> parse key)
      in
      let entry =
        { statements; memo = Compile.Memo.create (); version = current; tick = 0 }
      in
      let entry =
        locked t (fun () ->
            t.clock <- t.clock + 1;
            match Hashtbl.find_opt t.tbl key with
            | Some existing when existing.version = current ->
                existing.tick <- t.clock;
                existing
            | _ ->
                entry.tick <- t.clock;
                Hashtbl.replace t.tbl key entry;
                if Hashtbl.length t.tbl > t.capacity then evict_lru_unlocked t;
                entry)
      in
      (entry.statements, entry.memo)

let clear t = locked t (fun () -> Hashtbl.reset t.tbl)
