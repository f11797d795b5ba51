(* Solver progress telemetry: the incumbent trajectory of a run.

   Recorders are keyed by the governance-token family id rather than by
   thread: SketchRefine runs refine legs on separate pool domains, so a
   thread-keyed stream would miss every incumbent such a leg finds,
   while the Gov token — child tokens included — travels through
   every strategy loop already.  Emission is a no-op (one atomic load)
   while no recorder is installed anywhere, and a mutex-guarded
   registry lookup plus per-recorder append when one is; incumbent
   improvements are rare by definition (each one strictly improves the
   objective), so the slow path never sits on a per-candidate edge. *)

type event = {
  seq : int;
  elapsed : float;
  objective : float;
  bound : float option;
  gap : float option;
  nodes : int;
  strategy : string;
}

type recorder = {
  r_mu : Mutex.t;
  r_start : float;
  r_capacity : int;
  mutable r_events : event list;  (* newest first *)
  mutable r_count : int;  (* events ever appended (also the next seq) *)
}

let default_capacity = 512

(* Registry: family id -> stack of recorders (innermost first). Nested
   scopes — the server's per-request recorder outside, the engine's
   per-run recorder inside — each receive every event. *)
let registry_mu = Mutex.create ()
let registry : (int, recorder list) Hashtbl.t = Hashtbl.create 16
let active = Atomic.make 0

let events r =
  Mutex.lock r.r_mu;
  let evs = List.rev r.r_events in
  Mutex.unlock r.r_mu;
  evs

let with_recorder ?(capacity = default_capacity) ~key f =
  let r =
    {
      r_mu = Mutex.create ();
      r_start = Clock.now ();
      r_capacity = max 1 capacity;
      r_events = [];
      r_count = 0;
    }
  in
  Mutex.lock registry_mu;
  Hashtbl.replace registry key
    (r :: Option.value (Hashtbl.find_opt registry key) ~default:[]);
  Mutex.unlock registry_mu;
  Atomic.incr active;
  let finally () =
    Mutex.lock registry_mu;
    (match Hashtbl.find_opt registry key with
    | Some rs -> (
        match List.filter (fun r' -> r' != r) rs with
        | [] -> Hashtbl.remove registry key
        | rs' -> Hashtbl.replace registry key rs')
    | None -> ());
    Mutex.unlock registry_mu;
    Atomic.decr active
  in
  let v = Fun.protect ~finally f in
  (v, events r)

let gap_of ~objective bound =
  match bound with
  | Some b -> Some (Float.abs (b -. objective) /. Float.max 1.0 (Float.abs objective))
  | None -> None

(* Keep the newest [r_capacity] events: the tail of the trajectory is
   what an anytime consumer cares about.  The O(capacity) trim only
   runs once the ring is full. *)
let append r ev =
  Mutex.lock r.r_mu;
  let ev = { ev with seq = r.r_count; elapsed = Clock.now () -. r.r_start } in
  r.r_count <- r.r_count + 1;
  r.r_events <- ev :: r.r_events;
  if r.r_count > r.r_capacity then
    r.r_events <- List.filteri (fun i _ -> i < r.r_capacity) r.r_events;
  Mutex.unlock r.r_mu

let incumbent ~key ~strategy ?bound ~nodes objective =
  if Atomic.get active > 0 then begin
    Mutex.lock registry_mu;
    let rs = Option.value (Hashtbl.find_opt registry key) ~default:[] in
    Mutex.unlock registry_mu;
    if rs <> [] then begin
      let bound =
        match bound with
        | Some b when Float.is_finite b -> Some b
        | Some _ | None -> None
      in
      let ev =
        {
          seq = 0;
          elapsed = 0.0;
          objective;
          bound;
          gap = gap_of ~objective bound;
          nodes;
          strategy;
        }
      in
      List.iter (fun r -> append r ev) rs
    end
  end

(* ---- rendering ------------------------------------------------------- *)

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let event_to_string ev =
  Printf.sprintf "#%d +%.3fs %s obj=%s%s%s nodes=%d" ev.seq ev.elapsed
    ev.strategy (fnum ev.objective)
    (match ev.bound with Some b -> " bound=" ^ fnum b | None -> "")
    (match ev.gap with Some g -> Printf.sprintf " gap=%.4f" g | None -> "")
    ev.nodes

let render evs =
  String.concat "" (List.map (fun ev -> event_to_string ev ^ "\n") evs)

let event_to_json ev =
  let opt = function Some v -> Printf.sprintf "%.9g" v | None -> "null" in
  Printf.sprintf
    "{\"seq\":%d,\"elapsed_s\":%.6f,\"objective\":%.9g,\"bound\":%s,\"gap\":%s,\
     \"nodes\":%d,\"strategy\":\"%s\"}"
    ev.seq ev.elapsed ev.objective (opt ev.bound) (opt ev.gap) ev.nodes
    (Trace.json_escape ev.strategy)

let to_json evs =
  "[" ^ String.concat "," (List.map event_to_json evs) ^ "]"
