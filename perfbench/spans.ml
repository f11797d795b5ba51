(* The benchmark's own spans: recorded around each call it makes into a
   layer, kept in memory and written out when the run ends. Spans of one
   request share its trace id; server span trees fetched from
   /traces/<id> are converted into the same shape so both are reduced by
   the same self-time rule. *)

type span = {
  trace : string;
  id : string;
  parent : string option;
  name : string;
  start : float;
  stop : float;
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : string list ref = ref []
let current_trace = ref ""

(* Single-threaded by design: only the in-process PaQL caller opens
   spans. *)
let with_span name f =
  incr next_id;
  let id = string_of_int !next_id in
  let parent = match !open_stack with p :: _ -> Some p | [] -> None in
  open_stack := id :: !open_stack;
  let start = Unix.gettimeofday () in
  let finish () =
    open_stack := List.tl !open_stack;
    recorded := { trace = !current_trace; id; parent; name; start; stop = Unix.gettimeofday () } :: !recorded
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Run [f] as request [trace]; returns its result and the request's
   wall time. *)
let request trace name f =
  current_trace := trace;
  let t0 = Unix.gettimeofday () in
  let v = with_span name f in
  (v, Unix.gettimeofday () -. t0)

let add spans = recorded := List.rev_append spans !recorded

let duration s = s.stop -. s.start

(* Self time per span name for one request: a span's duration minus the
   durations of its direct children. Server spans from worker domains can
   overlap their parent's children, so self time is clamped at 0. *)
let self_times spans =
  let child_total = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value (Hashtbl.find_opt child_total p) ~default:0.0 in
          Hashtbl.replace child_total p (prev +. duration s)
      | None -> ())
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Float.max 0.0 (duration s -. Option.value (Hashtbl.find_opt child_total s.id) ~default:0.0)
      in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (prev +. self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []

(* Library span names that execute a SQL statement once it is planned. *)
let sql_exec = [ "sql.script"; "sql.select"; "sql.scan"; "sql.group"; "sql.sort"; "sql.hash_join"; "sql.product" ]

let self_of names selfs =
  List.fold_left (fun acc (k, v) -> if List.mem k names then acc +. v else acc) 0.0 selfs

(* Spans of a /traces/<id> document. Every process roots its tree at the
   shared trace id, so ids get a per-process [prefix] to stay distinct. *)
let of_trace_json ~prefix trace doc =
  List.filter_map
    (fun s ->
      match (Json.to_str (Json.member "id" s), Json.to_str (Json.member "name" s)) with
      | Some id, Some name ->
          let start = Json.to_num (Json.member "start" s) in
          Some
            {
              trace; id = prefix ^ id; name; start;
              parent = Option.map (( ^ ) prefix) (Json.to_str (Json.member "parent" s));
              stop = start +. Json.to_num (Json.member "elapsed_s" s);
            }
      | _ -> None)
    (Json.to_list (Json.member "spans" doc))

(* Spans the libraries recorded under a Pb_obs trace context. *)
let of_lib trace (spans : Pb_obs.Trace.span list) =
  List.map
    (fun (s : Pb_obs.Trace.span) ->
      { trace; id = "lib" ^ string_of_int s.id;
        parent = (if s.parent < 0 then None else Some ("lib" ^ string_of_int s.parent));
        name = s.name; start = s.start; stop = s.start +. s.elapsed })
    spans

let to_json s =
  Json.Obj
    [
      ("trace", Json.Str s.trace); ("id", Json.Str s.id);
      ("parent", match s.parent with Some p -> Json.Str p | None -> Json.Null);
      ("name", Json.Str s.name); ("start", Json.Num s.start); ("end", Json.Num s.stop);
    ]

let dump path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) (List.rev !recorded);
  close_out oc
