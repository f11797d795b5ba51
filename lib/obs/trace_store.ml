(* Bounded FIFO store of completed request traces, keyed by wire trace
   id.  One mutex guards the table and the eviction queue; entries are
   immutable once added, so readers copy nothing but the list spine. *)

type entry = {
  trace_id : string;
  started : float;
  elapsed : float;
  status : string;
  spans : Trace.span list;  (* open order; exactly one "request" root *)
  progress : Progress.event list;
}

type t = {
  mu : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  order : string Queue.t;  (* insertion order, oldest first *)
  mutable cap : int;
}

let create ?(capacity = 256) () =
  { mu = Mutex.create (); tbl = Hashtbl.create 64; order = Queue.create ();
    cap = capacity }

let default = create ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f


let evict_to t cap =
  while Queue.length t.order > cap do
    let victim = Queue.pop t.order in
    Hashtbl.remove t.tbl victim
  done

let set_capacity t cap =
  locked t (fun () ->
      t.cap <- max 0 cap;
      evict_to t t.cap)

let add t entry =
  locked t (fun () ->
      if t.cap > 0 then begin
        (* Re-adding an id (a client reusing a trace id) replaces the
           old entry but keeps one eviction-queue slot per live id. *)
        if Hashtbl.mem t.tbl entry.trace_id then begin
          let keep = Queue.create () in
          Queue.iter
            (fun id -> if id <> entry.trace_id then Queue.push id keep)
            t.order;
          Queue.clear t.order;
          Queue.transfer keep t.order
        end;
        Hashtbl.replace t.tbl entry.trace_id entry;
        Queue.push entry.trace_id t.order;
        evict_to t t.cap
      end)

let find t id = locked t (fun () -> Hashtbl.find_opt t.tbl id)

let ids t =
  locked t (fun () -> List.rev (Queue.fold (fun acc id -> id :: acc) [] t.order))

(* ---- rendering ------------------------------------------------------- *)

(* The root span of a stored trace is rendered under the wire trace id
   rather than its process-local int id, so the server-side tree a
   client retrieves is rooted at exactly the id it generated. *)
let root_span_id entry =
  let rec first = function
    | [] -> None
    | (sp : Trace.span) :: rest -> if sp.parent < 0 then Some sp.id else first rest
  in
  first entry.spans

let render entry =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "trace %s  status=%s  %.3fs  %d span(s)\n" entry.trace_id
       entry.status entry.elapsed (List.length entry.spans));
  Buffer.add_string buf (Trace.render_spans entry.spans);
  if entry.progress <> [] then begin
    Buffer.add_string buf "progress:\n";
    List.iter
      (fun ev ->
        Buffer.add_string buf ("  " ^ Progress.event_to_string ev ^ "\n"))
      entry.progress
  end;
  Buffer.contents buf

let to_json entry =
  let root = root_span_id entry in
  let id_name i =
    if Some i = root then entry.trace_id else string_of_int i
  in
  Printf.sprintf
    "{\"trace_id\":\"%s\",\"started\":%.6f,\"elapsed_s\":%.6f,\"status\":\"%s\",\
     \"spans\":[%s],\"progress\":%s}"
    (Trace.json_escape entry.trace_id)
    entry.started entry.elapsed
    (Trace.json_escape entry.status)
    (String.concat "," (List.map (Trace.span_to_json ~id_name) entry.spans))
    (Progress.to_json entry.progress)
