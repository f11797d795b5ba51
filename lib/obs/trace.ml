type span = {
  id : int;
  parent : int;
  name : string;
  attrs : (string * string) list;
  mutable counters : (string * int) list;
  start : float;
  mutable elapsed : float;
}

(* Concurrency: the open-span stack is thread-local, keyed by Thread.id
   in a mutex-guarded table (Domain.DLS would be shared by every
   systhread of a domain, so two server connection threads tracing
   concurrently would interleave their stacks).  Worker domains of the
   Pb_par pool open and close spans of their own — a span opened on a
   worker has no parent from the submitting thread and renders as an
   extra root.  The completed-span ring and the id source are shared:
   the ring behind a mutex, the id an atomic.  [add_count] touches only
   the top of the calling thread's own stack and needs no lock: a span
   is published (to the ring or a request context) only at close.

   A thread's state is touched only by that thread; the table mutex
   guards just the id->state mapping.  Entries are removed as soon as a
   thread's stack empties with no context installed, so the table does
   not grow with the server's one-thread-per-connection lifetime. *)

let enabled = Atomic.make false
let set_enabled v = Atomic.set enabled v
let is_enabled () = Atomic.get enabled

(* A request context collects every span the owning thread closes while
   it is installed, tagged with the request's trace id — the server
   wraps each request in [with_context] and files the result in the
   trace store.  Context spans bypass the global ring (unless tracing is
   also globally enabled), so concurrent requests never mix. *)
type context = { ctx_trace_id : string; mutable ctx_spans : span list }

type tstate = { mutable st_stack : span list; mutable st_ctx : context option }

(* Count of installed contexts, for the [with_span] fast path: when zero
   and global tracing is off, instrumentation stays two atomic loads. *)
let active_contexts = Atomic.make 0

let tls_mu = Mutex.create ()
let tls : (int, tstate) Hashtbl.t = Hashtbl.create 64

let tstate () =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock tls_mu;
  let st =
    match Hashtbl.find_opt tls id with
    | Some st -> st
    | None ->
        let st = { st_stack = []; st_ctx = None } in
        Hashtbl.add tls id st;
        st
  in
  Mutex.unlock tls_mu;
  st

let find_tstate () =
  let id = Thread.id (Thread.self ()) in
  Mutex.lock tls_mu;
  let st = Hashtbl.find_opt tls id in
  Mutex.unlock tls_mu;
  st

let forget_tstate st =
  if st.st_stack = [] && st.st_ctx = None then begin
    let id = Thread.id (Thread.self ()) in
    Mutex.lock tls_mu;
    (match Hashtbl.find_opt tls id with
    | Some cur when cur == st -> Hashtbl.remove tls id
    | Some _ | None -> ());
    Mutex.unlock tls_mu
  end

(* Ring buffer of completed spans. [next] is the write cursor; [total]
   counts every record ever written, so [total - capacity] (clamped) is
   the number of overwritten spans.  All four cells are guarded by
   [ring_mu]. *)
let ring_mu = Mutex.create ()
let capacity = ref 4096
let ring : span option array ref = ref (Array.make !capacity None)
let next = ref 0
let total = ref 0
let fresh_id = Atomic.make 0

let reset ?capacity:cap () =
  Mutex.lock ring_mu;
  (match cap with
  | Some c when c > 0 -> capacity := c
  | Some _ | None -> ());
  ring := Array.make !capacity None;
  next := 0;
  total := 0;
  Atomic.set fresh_id 0;
  Mutex.unlock ring_mu;
  (* Only the calling thread's dangling stack can be cleared; worker
     threads never leave spans open between parallel regions. *)
  match find_tstate () with
  | Some st ->
      st.st_stack <- [];
      forget_tstate st
  | None -> ()

let record sp =
  Mutex.lock ring_mu;
  !ring.(!next) <- Some sp;
  next := (!next + 1) mod !capacity;
  incr total;
  Mutex.unlock ring_mu

let dropped () =
  Mutex.lock ring_mu;
  let d = max 0 (!total - !capacity) in
  Mutex.unlock ring_mu;
  d

let open_span st ~attrs name =
  let parent = match st.st_stack with sp :: _ -> sp.id | [] -> -1 in
  let sp =
    {
      id = Atomic.fetch_and_add fresh_id 1;
      parent;
      name;
      attrs;
      counters = [];
      start = Clock.now ();
      elapsed = 0.0;
    }
  in
  st.st_stack <- sp :: st.st_stack;
  sp

let close_span st sp =
  sp.elapsed <- Clock.now () -. sp.start;
  (match st.st_stack with
  | top :: rest when top == sp -> st.st_stack <- rest
  | _ ->
      (* An exception unwound past intermediate spans: drop everything
         down to (and including) this span so nesting stays consistent. *)
      let rec pop = function
        | top :: rest -> if top == sp then rest else pop rest
        | [] -> []
      in
      st.st_stack <- pop st.st_stack);
  (match st.st_ctx with
  | Some ctx -> ctx.ctx_spans <- sp :: ctx.ctx_spans
  | None -> ());
  if Atomic.get enabled then record sp;
  forget_tstate st

let with_span ?(attrs = []) ~name f =
  let globally = Atomic.get enabled in
  if (not globally) && Atomic.get active_contexts = 0 then f ()
  else
    let st_opt =
      if globally then Some (tstate ())
      else
        (* Some request is tracing, but possibly not on this thread. *)
        match find_tstate () with
        | Some st when st.st_ctx <> None -> Some st
        | Some _ | None -> None
    in
    match st_opt with
    | None -> f ()
    | Some st -> (
        let sp = open_span st ~attrs name in
        match f () with
        | v ->
            close_span st sp;
            v
        | exception e ->
            close_span st sp;
            raise e)

let timed ?attrs ~name f =
  let t0 = Clock.now () in
  let v = with_span ?attrs ~name f in
  (v, Clock.now () -. t0)

let add_count key v =
  if Atomic.get enabled || Atomic.get active_contexts > 0 then
    match find_tstate () with
    | Some { st_stack = sp :: _; _ } ->
        let prev = Option.value (List.assoc_opt key sp.counters) ~default:0 in
        sp.counters <- (key, prev + v) :: List.remove_assoc key sp.counters
    | Some _ | None -> ()

let with_context ~trace_id f =
  let st = tstate () in
  let saved_stack = st.st_stack and saved_ctx = st.st_ctx in
  let ctx = { ctx_trace_id = trace_id; ctx_spans = [] } in
  st.st_stack <- [];
  st.st_ctx <- Some ctx;
  Atomic.incr active_contexts;
  let finally () =
    st.st_stack <- saved_stack;
    st.st_ctx <- saved_ctx;
    Atomic.decr active_contexts;
    forget_tstate st
  in
  let v =
    Fun.protect ~finally (fun () ->
        let root =
          open_span st ~attrs:[ ("trace_id", trace_id) ] "request"
        in
        match f () with
        | v ->
            close_span st root;
            v
        | exception e ->
            close_span st root;
            raise e)
  in
  (v, List.sort (fun a b -> compare a.id b.id) ctx.ctx_spans)

let current_trace_id () =
  match find_tstate () with
  | Some { st_ctx = Some ctx; _ } -> Some ctx.ctx_trace_id
  | Some _ | None -> None

let spans () =
  Mutex.lock ring_mu;
  let out = ref [] in
  Array.iter (function Some sp -> out := sp :: !out | None -> ()) !ring;
  Mutex.unlock ring_mu;
  List.sort (fun a b -> compare a.id b.id) !out

(* ---- rendering ------------------------------------------------------- *)

let fmt_elapsed s =
  if s < 0.001 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let render_spans ?(dropped = 0) all =
  let known = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace known sp.id ()) all;
  let children = Hashtbl.create 64 in
  let roots = ref [] in
  (* [all] is in open order; building child lists backwards keeps them
     in open order too. *)
  List.iter
    (fun sp ->
      if sp.parent >= 0 && Hashtbl.mem known sp.parent then
        Hashtbl.replace children sp.parent
          (sp
          :: Option.value (Hashtbl.find_opt children sp.parent) ~default:[])
      else roots := sp :: !roots)
    (List.rev all);
  let buf = Buffer.create 512 in
  let rec emit depth sp =
    let kvs =
      List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) sp.attrs
      @ List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (List.sort compare sp.counters)
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %8s%s\n" (String.make (2 * depth) ' ')
         (max 1 (34 - (2 * depth)))
         sp.name (fmt_elapsed sp.elapsed)
         (match kvs with [] -> "" | _ -> "  " ^ String.concat " " kvs));
    List.iter (emit (depth + 1))
      (Option.value (Hashtbl.find_opt children sp.id) ~default:[])
  in
  List.iter (emit 0) !roots;
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d older span(s) dropped)\n" dropped);
  Buffer.contents buf

let render_tree () = render_spans ~dropped:(dropped ()) (spans ())

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* [id_name] lets callers substitute a stable external id for the
   process-local span id — the trace store renders a request's root span
   under its wire trace id. *)
let span_to_json ?id_name sp =
  let str s = "\"" ^ json_escape s ^ "\"" in
  let obj_of kvs =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) kvs)
    ^ "}"
  in
  let ident i =
    match id_name with
    | None -> string_of_int i
    | Some f -> if i < 0 then "null" else str (f i)
  in
  obj_of
    [
      ("id", ident sp.id);
      ("parent", ident sp.parent);
      ("name", str sp.name);
      ("start", Printf.sprintf "%.6f" sp.start);
      ("elapsed_s", Printf.sprintf "%.6f" sp.elapsed);
      ("attrs", obj_of (List.map (fun (k, v) -> (k, str v)) sp.attrs));
      ( "counters",
        obj_of (List.map (fun (k, v) -> (k, string_of_int v)) sp.counters) );
    ]

